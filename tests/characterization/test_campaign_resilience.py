"""Tests for the failure-isolated, resumable campaign executor.

The chaos harness is the proof tool here: every fault class is
injected mid-campaign and the sweep must still converge to exactly
the data a fault-free run produces.
"""

import pytest

from repro.characterization.campaign import (
    Campaign,
    ExperimentFailure,
    RetryPolicy,
)
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.errors import ConfigurationError, ExperimentError, ProgramTransferError


def make_scope(seed: int = 43) -> CharacterizationScope:
    config = SimulationConfig(seed=seed, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


@pytest.fixture()
def scope():
    return make_scope()


def no_sleep(_delay: float) -> None:
    return None


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.3, jitter=0.0,
        )
        delays = [policy.delay_s(i) for i in range(4)]
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.3), pytest.approx(0.3)]

    def test_jitter_extends_delay(self):
        policy = RetryPolicy(base_delay_s=0.1, jitter=0.5)
        assert policy.delay_s(0, jitter_draw=1.0) == pytest.approx(0.15)
        assert policy.delay_s(0, jitter_draw=0.0) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


class TestFailureIsolation:
    def test_failing_experiment_does_not_abort_sweep(self, scope, fake_figure):
        def boom(_scope):
            try:
                raise KeyError("root cause")
            except KeyError as exc:
                raise ValueError("experiment blew up") from exc

        fake_figure("figboom", boom)
        fake_figure("figok", lambda _scope: {"a": 1.0})
        result = Campaign(scope, sleep=no_sleep).run(["figboom", "figok"])
        assert result.completed == ["figok"]
        assert not result.succeeded
        (failure,) = result.failures
        assert failure.experiment == "figboom"
        assert failure.reason == "error"
        assert failure.attempts == 1
        assert "ValueError: experiment blew up" in failure.error
        assert any("KeyError" in link for link in failure.chain)

    def test_transient_fault_retries_then_succeeds(self, scope, fake_figure):
        calls = {"n": 0}

        def flaky(_scope):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ProgramTransferError("link glitch")
            return {"a": 1.0}

        fake_figure("figflaky", flaky)
        sleeps = []
        campaign = Campaign(
            scope,
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.1,
                              multiplier=2.0, jitter=0.0),
            sleep=sleeps.append,
        )
        result = campaign.run(["figflaky"])
        assert result.completed == ["figflaky"]
        assert result.attempts["figflaky"] == 3
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_retries_exhausted_recorded(self, scope, fake_figure):
        fake_figure(
            "fignever",
            lambda _scope: (_ for _ in ()).throw(ProgramTransferError("down")),
        )
        result = Campaign(
            scope, retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=no_sleep,
        ).run(["fignever"])
        (failure,) = result.failures
        assert failure.reason == "retries-exhausted"
        assert failure.attempts == 3

    def test_time_budget_stops_retries(self, scope, fake_figure):
        fake_figure(
            "figslow",
            lambda _scope: (_ for _ in ()).throw(ProgramTransferError("down")),
        )
        ticks = iter(range(0, 1000, 10))  # each clock() call advances 10 s
        sleeps = []
        result = Campaign(
            scope,
            retry=RetryPolicy(max_attempts=100, base_delay_s=0.0),
            time_budget_s=5.0,
            sleep=sleeps.append,
            clock=lambda: float(next(ticks)),
        ).run(["figslow"])
        (failure,) = result.failures
        assert failure.reason == "time-budget"
        assert failure.attempts == 1
        assert sleeps == []

    def test_non_transient_simra_error_not_retried(self, scope, fake_figure):
        calls = {"n": 0}

        def broken(_scope):
            calls["n"] += 1
            raise ExperimentError("misconfigured")

        fake_figure("figbroken", broken)
        result = Campaign(
            scope, retry=RetryPolicy(max_attempts=5), sleep=no_sleep
        ).run(["figbroken"])
        assert calls["n"] == 1
        assert result.failures[0].reason == "error"

    def test_render_includes_failures(self, scope, fake_figure):
        fake_figure(
            "figboom",
            lambda _scope: (_ for _ in ()).throw(ValueError("nope")),
        )
        campaign = Campaign(scope, sleep=no_sleep)
        result = campaign.run(["figboom"])
        report = campaign.render(result)
        assert "figboom: FAILED" in report and "ValueError: nope" in report


class TestChaosConvergence:
    def test_burst_chaos_campaign_converges_to_clean_run(self):
        """Acceptance: seeded faults in the FPGA transfer, readback,
        thermal, and VPP paths all fire mid-campaign; retries carry the
        sweep to completion with data identical to a fault-free run."""
        experiments = ["fig4a", "fig11"]
        clean = Campaign(make_scope()).run(experiments)
        chaotic = Campaign(
            make_scope(),
            retry=RetryPolicy(max_attempts=6, base_delay_s=0.0),
            chaos=ChaosConfig.burst(seed=5),
            sleep=no_sleep,
        ).run(experiments)
        assert chaotic.succeeded
        assert chaotic.completed == experiments
        assert chaotic.chaos_faults_injected == 4  # one per fault kind
        assert chaotic.attempts["fig4a"] > 1  # retries actually happened
        assert chaotic.data == clean.data

    def test_light_chaos_smoke(self, tmp_path):
        """The nightly smoke configuration: rate-based faults with a
        finite cap, retry budget above the worst case, store attached."""
        store = ResultStore(tmp_path / "smoke")
        campaign = Campaign(
            make_scope(),
            store=store,
            retry=RetryPolicy(max_attempts=9, base_delay_s=0.0),
            chaos=ChaosConfig.light(seed=11, rate=0.2, max_faults_per_kind=2),
            sleep=no_sleep,
        )
        result = campaign.run(["fig4a"])
        assert result.succeeded
        assert store.has("fig4a")
        manifest = store.load_manifest()
        assert manifest.completed == ["fig4a"]

    def test_chaos_uninstalled_after_run(self, scope):
        original = scope.benches[0].bender
        Campaign(
            scope,
            retry=RetryPolicy(max_attempts=6, base_delay_s=0.0),
            chaos=ChaosConfig.burst(seed=5),
            sleep=no_sleep,
        ).run(["fig4a"])
        assert scope.benches[0].bender is original


class TestResume:
    def test_killed_campaign_resumes_from_manifest(
        self, scope, tmp_path, fake_figure
    ):
        calls = {"ok1": 0, "ok2": 0}

        def ok1(_scope):
            calls["ok1"] += 1
            return {"a": 1.0}

        def ok2(_scope):
            calls["ok2"] += 1
            return {"b": 2.0}

        def killed(_scope):
            raise KeyboardInterrupt  # the operator's ^C mid-campaign

        fake_figure("figok1", ok1)
        fake_figure("figok2", ok2)
        fake_figure("figkill", killed)

        store = ResultStore(tmp_path / "campaign")
        # Graceful interruption: the KeyboardInterrupt does not unwind;
        # the run reports a resumable partial result instead.
        partial = Campaign(scope, store=store, sleep=no_sleep).run(
            ["figok1", "figkill", "figok2"]
        )
        assert partial.interrupted
        assert not partial.succeeded
        assert partial.completed == ["figok1"]
        assert partial.not_run == ["figkill", "figok2"]
        manifest = store.load_manifest()
        assert manifest.completed == ["figok1"]

        fake_figure("figkill", lambda _scope: {"c": 3.0})
        result = Campaign(scope, store=store, sleep=no_sleep).run(
            ["figok1", "figkill", "figok2"], resume=True
        )
        assert result.skipped == ["figok1"]
        assert calls["ok1"] == 1  # not re-run
        assert result.completed == ["figkill", "figok2"]
        assert result.data["figok1"] == {"a": 1.0}  # reloaded from disk
        assert store.load_manifest().completed == ["figok1", "figkill", "figok2"]

    def test_resume_requires_store(self, scope):
        with pytest.raises(ExperimentError):
            Campaign(scope).run(["fig4a"], resume=True)

    def test_resume_rejects_config_mismatch(self, tmp_path, fake_figure):
        fake_figure("figok", lambda _scope: {"a": 1.0})
        store = ResultStore(tmp_path / "campaign")
        Campaign(make_scope(seed=43), store=store).run(["figok"])
        with pytest.raises(ExperimentError):
            Campaign(make_scope(seed=44), store=store).run(
                ["figok"], resume=True
            )

    def test_fresh_run_overwrites_stale_manifest(
        self, scope, tmp_path, fake_figure
    ):
        fake_figure("figok", lambda _scope: {"a": 1.0})
        store = ResultStore(tmp_path / "campaign")
        Campaign(scope, store=store).run(["figok"])
        result = Campaign(scope, store=store).run(["figok"])  # no resume
        assert result.completed == ["figok"]  # re-ran despite manifest
        assert store.load_manifest().completed == ["figok"]

    def test_failures_not_marked_complete(self, scope, tmp_path, fake_figure):
        fake_figure(
            "figboom",
            lambda _scope: (_ for _ in ()).throw(ValueError("nope")),
        )
        store = ResultStore(tmp_path / "campaign")
        Campaign(scope, store=store, sleep=no_sleep).run(["figboom"])
        assert store.load_manifest().completed == []
        assert not store.has("figboom")
