"""Acceptance tests for fleet-health supervision.

The ISSUE's headline scenario: a chaos campaign with one persistently
failing module and one injected worker kill must complete, with the
remaining modules' figures bit-identical to a clean serial run over
the same healthy subset, the quarantined module explicitly annotated
in the stored results, and ``audit_store`` passing over the store.
"""

import functools
import json

import pytest

from repro.characterization.activation import program_fig4a
from repro.characterization.campaign import EXPERIMENT_PROGRAMS, Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import ProcessPoolExecutor
from repro.health import BreakerPolicy, HealthTracker, audit_store

SERIALS = [spec.module_identifier + "#0" for spec in TESTED_MODULES[:3]]


def make_scope(specs=None, seed: int = 53) -> CharacterizationScope:
    return CharacterizationScope.build(
        config=SimulationConfig(seed=seed, columns_per_row=64),
        specs=list(specs) if specs is not None else TESTED_MODULES[:3],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


# Fig 4a on a reduced grid: real plan machinery, tiny wall-clock.
small_fig4a = functools.partial(
    program_fig4a, sizes=(4,), temperatures=(50.0, 70.0)
)


def no_sleep(_delay: float) -> None:
    return None


def latching_tracker() -> HealthTracker:
    return HealthTracker(BreakerPolicy(failure_threshold=1, max_trips=1))


class TestDegradedCampaignAcceptance:
    def test_quarantine_plus_worker_kill_matches_serial_healthy_subset(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENT_PROGRAMS, "fig4a", small_fig4a)
        store = ResultStore(tmp_path / "supervised")
        chaos = ChaosConfig(
            seed=5,
            bench_failure_serials=(SERIALS[1],),
            worker_kill_serials=(SERIALS[2],),
        )
        executor = ProcessPoolExecutor(jobs=2)
        result = Campaign(
            make_scope(),
            store=store,
            chaos=chaos,
            executor=executor,
            health=latching_tracker(),
            sleep=no_sleep,
        ).run(["fig4a"])

        # The campaign degrades instead of failing.
        assert result.succeeded
        assert result.completed == ["fig4a"]

        # The quarantine is explicit, in the result and on disk.
        quality = result.quality["fig4a"]
        assert quality["supervised"] is True
        assert quality["modules_quarantined"] == [SERIALS[1]]
        assert quality["modules_active"] == [SERIALS[0], SERIALS[2]]
        assert quality["coverage"] == pytest.approx(2 / 3)
        assert store.metadata("fig4a")["quality"] == quality
        assert result.health["quarantined"] == [SERIALS[1]]

        # The worker kill really happened and was recovered from.
        assert executor.metrics.worker_deaths >= 1
        assert executor.metrics.tasks_resharded >= 1
        assert result.engine_stats["modules_quarantined"] == 1
        assert result.engine_stats["breaker_trips"] >= 1

        # Bit-identity: a clean, serial, healthy-subset-from-the-start
        # campaign lands on exactly the same numbers.
        clean = Campaign(
            make_scope(specs=[TESTED_MODULES[0], TESTED_MODULES[2]]),
            sleep=no_sleep,
        ).run(["fig4a"])
        assert clean.data["fig4a"] == result.data["fig4a"]

        # And the stored artifacts survive a full audit, including the
        # serial recompute over the annotated healthy subset.
        report = audit_store(store, sample=1)
        assert report.passed
        assert report.figures_recomputed == 1

    def test_all_modules_quarantined_is_an_explicit_failure(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENT_PROGRAMS, "fig4a", small_fig4a)
        result = Campaign(
            make_scope(specs=TESTED_MODULES[:1]),
            chaos=ChaosConfig(seed=5, bench_failure_serials=(SERIALS[0],)),
            health=latching_tracker(),
            sleep=no_sleep,
        ).run(["fig4a"])
        assert not result.succeeded
        (failure,) = result.failures
        assert failure.reason == "no-healthy-modules"
        assert result.quality["fig4a"]["coverage"] == 0.0

    def test_unsupervised_campaign_reports_no_quality(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENT_PROGRAMS, "fig4a", small_fig4a)
        result = Campaign(
            make_scope(specs=TESTED_MODULES[:1]), sleep=no_sleep
        ).run(["fig4a"])
        assert result.succeeded
        assert result.quality == {}
        assert result.health is None


class TestResumeFailurePolicy:
    def test_resume_skips_deterministic_failures(self, tmp_path, fake_figure):
        calls = {"n": 0}

        def boom(_scope):
            calls["n"] += 1
            raise ValueError("deterministic bug")

        fake_figure("figboom", boom)
        store = ResultStore(tmp_path / "results")
        scope = make_scope(specs=TESTED_MODULES[:1])
        Campaign(scope, store=store, sleep=no_sleep).run(["figboom"])
        assert calls["n"] == 1

        resumed = Campaign(scope, store=store, sleep=no_sleep).run(
            ["figboom"], resume=True
        )
        assert calls["n"] == 1  # not re-attempted
        assert resumed.skipped_failed == ["figboom"]
        assert resumed.succeeded  # skip is not a fresh failure

    def test_retry_failed_reruns_them(self, tmp_path, fake_figure):
        calls = {"n": 0}

        def flaky_then_fine(_scope):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("fixed since")
            return {"a": 1.0}

        fake_figure("figfixed", flaky_then_fine)
        store = ResultStore(tmp_path / "results")
        scope = make_scope(specs=TESTED_MODULES[:1])
        Campaign(scope, store=store, sleep=no_sleep).run(["figfixed"])

        resumed = Campaign(scope, store=store, sleep=no_sleep).run(
            ["figfixed"], resume=True, retry_failed=True
        )
        assert resumed.completed == ["figfixed"]
        assert resumed.skipped_failed == []
        # The failure record is cleared once the experiment succeeds.
        assert store.load_manifest().failures == {}

    def test_transient_failures_are_always_retried_on_resume(
        self, tmp_path, fake_figure
    ):
        from repro.characterization.campaign import RetryPolicy
        from repro.errors import ProgramTransferError

        calls = {"n": 0}

        def down_then_up(_scope):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise ProgramTransferError("rig down")
            return {"a": 1.0}

        fake_figure("figdown", down_then_up)
        store = ResultStore(tmp_path / "results")
        scope = make_scope(specs=TESTED_MODULES[:1])
        retry = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        first = Campaign(scope, store=store, retry=retry, sleep=no_sleep).run(
            ["figdown"]
        )
        assert first.failures[0].reason == "retries-exhausted"

        resumed = Campaign(scope, store=store, retry=retry, sleep=no_sleep).run(
            ["figdown"], resume=True
        )
        assert resumed.completed == ["figdown"]  # not skipped: transient


class TestResumeIntegrity:
    def test_damaged_artifact_is_rerun_not_trusted(
        self, tmp_path, fake_figure
    ):
        fake_figure("figdata", lambda _scope: {"rate": 0.75})
        store = ResultStore(tmp_path / "results")
        scope = make_scope(specs=TESTED_MODULES[:1])
        Campaign(scope, store=store, sleep=no_sleep).run(["figdata"])

        path = store.directory / "figdata.json"
        document = json.loads(path.read_text())
        document["data"]["rate"] = 0.1
        path.write_text(json.dumps(document))

        tracker = latching_tracker()
        resumed = Campaign(
            scope, store=store, health=tracker, sleep=no_sleep
        ).run(["figdata"], resume=True)
        assert resumed.corrupt_rerun == ["figdata"]
        assert resumed.skipped == []
        assert resumed.data["figdata"] == {"rate": 0.75}
        assert store.load("figdata") == {"rate": 0.75}
        assert tracker.checksum_mismatches == 1

    def test_chaos_corrupted_save_detected_on_resume(
        self, tmp_path, fake_figure
    ):
        fake_figure("figdata", lambda _scope: {"rate": 0.75})
        store = ResultStore(tmp_path / "results")
        scope = make_scope(specs=TESTED_MODULES[:1])
        chaotic = Campaign(
            scope,
            store=store,
            chaos=ChaosConfig(seed=5, result_corruption_names=("figdata",)),
            sleep=no_sleep,
        ).run(["figdata"])
        assert chaotic.chaos_faults_injected == 1
        assert store.verify("figdata") in ("mismatch", "corrupt")

        resumed = Campaign(scope, store=store, sleep=no_sleep).run(
            ["figdata"], resume=True
        )
        assert resumed.corrupt_rerun == ["figdata"]
        assert store.verify("figdata") == "ok"
        assert store.load("figdata") == {"rate": 0.75}
