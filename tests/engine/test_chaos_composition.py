"""Fault injection and retry/resume composed with every executor.

The campaign's chaos harness wraps the scope's benches, and every
executor decides a plan's faults on those benches in the same order --
the process pool in its dispatching process, before a plan ships -- so
every executor injects the same faults, and the campaign's retry
policy converges to exactly the fault-free data.  The campaign still
hands the pool its chaos profile, for the worker kills.
"""

import pytest

from repro.characterization.campaign import Campaign, RetryPolicy
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import (
    FusedExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)


def make_scope(seed: int = 43) -> CharacterizationScope:
    config = SimulationConfig(seed=seed, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def no_sleep(_delay: float) -> None:
    return None


class TestChaosWithExecutors:
    @pytest.mark.parametrize(
        "executor_factory",
        [SerialExecutor, FusedExecutor, lambda: ProcessPoolExecutor(jobs=2)],
        ids=["serial", "fused", "fused-parallel"],
    )
    def test_burst_chaos_converges_to_clean_run(self, executor_factory):
        """Every fault kind fires once mid-campaign; the retrying
        campaign still produces data identical to a fault-free run,
        regardless of which executor drives the trials."""
        experiments = ["fig4a", "fig11"]
        with executor_factory() as executor:
            clean = Campaign(make_scope(), executor=executor).run(
                experiments
            )
        with executor_factory() as executor:
            chaotic = Campaign(
                make_scope(),
                retry=RetryPolicy(max_attempts=6, base_delay_s=0.0),
                chaos=ChaosConfig.burst(seed=5),
                sleep=no_sleep,
                executor=executor,
            ).run(experiments)
        assert chaotic.succeeded
        assert chaotic.chaos_faults_injected == 4  # one per fault kind
        assert chaotic.data == clean.data

    def test_rate_chaos_converges_under_parallel_executor(self):
        """The pool decides faults in its dispatching process against
        the campaign's one capped engine, so a rate-keyed chaotic
        campaign converges -- and injects exactly what ``fused`` does."""
        experiments = ["fig4a"]

        def run(executor, chaos=None):
            with executor:
                return Campaign(
                    make_scope(),
                    retry=RetryPolicy(max_attempts=20, base_delay_s=0.0),
                    chaos=chaos,
                    sleep=no_sleep,
                    executor=executor,
                ).run(experiments)

        chaos = ChaosConfig.light(seed=11, rate=0.2, max_faults_per_kind=2)
        clean = run(ProcessPoolExecutor(jobs=2))
        chaotic = run(ProcessPoolExecutor(jobs=2), chaos)
        in_process = run(FusedExecutor(), chaos)
        assert chaotic.succeeded
        assert chaotic.data == clean.data
        assert in_process.chaos_faults_injected > 0
        assert chaotic.chaos_faults_injected == (
            in_process.chaos_faults_injected
        )
        assert chaotic.attempts == in_process.attempts

    def test_campaign_hands_chaos_profile_to_parallel_executor(
        self, fake_figure
    ):
        """The worker-kill path: the campaign temporarily points the
        executor's chaos profile at its own, and restores it
        afterwards."""
        observed = {}
        executor = ProcessPoolExecutor(jobs=1)

        def probe(_scope):
            observed["chaos"] = executor.chaos
            return {"a": 1.0}

        fake_figure("figprobe", probe)
        chaos = ChaosConfig.light(seed=11)
        result = Campaign(
            make_scope(), chaos=chaos, sleep=no_sleep, executor=executor
        ).run(["figprobe"])
        assert result.succeeded
        assert observed["chaos"] is chaos  # set while running
        assert executor.chaos is None  # restored afterwards

    def test_chaos_uninstalled_with_executor_attached(self):
        scope = make_scope()
        original = scope.benches[0].bender
        Campaign(
            scope,
            retry=RetryPolicy(max_attempts=6, base_delay_s=0.0),
            chaos=ChaosConfig.burst(seed=5),
            sleep=no_sleep,
            executor=FusedExecutor(),
        ).run(["fig4a"])
        assert scope.benches[0].bender is original


class TestCampaignEngineStats:
    def test_stats_attached_and_persisted(self, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        executor = SerialExecutor()
        result = Campaign(
            make_scope(), store=store, executor=executor
        ).run(["fig4a"])
        assert result.succeeded
        assert result.engine_stats is not None
        assert result.engine_stats["executor"] == "serial"
        assert result.engine_stats["plans"] > 0
        assert result.engine_stats["trials"] > 0
        stored = store.load("engine-stats")
        assert stored["plans"] == result.engine_stats["plans"]

    def test_no_executor_means_no_stats(self):
        result = Campaign(make_scope()).run(["fig4a"])
        assert result.engine_stats is None

    @pytest.mark.parametrize("name", ["serial", "fused", "fused-parallel"])
    def test_campaign_data_identical_across_executors(self, name):
        reference = Campaign(make_scope()).run(["fig4a"])
        candidate = Campaign(
            make_scope(), executor=make_executor(name, jobs=2)
        ).run(["fig4a"])
        assert candidate.data == reference.data

    def test_resume_skips_finished_figures_with_executor(
        self, tmp_path, fake_figure
    ):
        calls = {"n": 0}

        def counted(_scope):
            calls["n"] += 1
            return {"a": 1.0}

        fake_figure("figcount", counted)
        store = ResultStore(tmp_path / "resume")
        executor = FusedExecutor()
        Campaign(make_scope(), store=store, executor=executor).run(
            ["figcount"]
        )
        result = Campaign(make_scope(), store=store, executor=executor).run(
            ["figcount"], resume=True
        )
        assert calls["n"] == 1  # not re-run after resume
        assert result.skipped == ["figcount"]
