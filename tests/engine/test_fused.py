"""Fused-executor contract tests.

The fused path evaluates a whole plan as packed bit-plane math after a
one-APA semantic probe per task; the fused-parallel path shards the
same fused evaluation across a worker pool with shared-memory mask
returns.  Both must reproduce the serial reference bit for bit --
masks, rates, and convergence checkpoints -- including under chaos
worker kills and off-regime fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bender.testbench import TestBench
from repro.characterization.activation import build_activation_plan
from repro.characterization.convergence import majx_convergence_curve
from repro.characterization.disturbance import disturbance_check
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.characterization.majority import MAJX_POINT, build_majx_plan
from repro.characterization.rowcopy import (
    build_copy_plan,
    multi_row_copy_distribution,
)
from repro.chaos import ChaosConfig, ChaosHarness
from repro.config import SimulationConfig
from repro.core.patterns import (
    COPY_TESTED_PATTERNS,
    MAJX_TESTED_PATTERNS,
    PATTERN_AA55,
)
from repro.core.rowgroups import VALID_GROUP_SIZES, sample_groups
from repro.dram.bank import Bank
from repro.dram.behavior import ReliabilityModel
from repro.dram.vendor import TESTED_MODULES
from repro.engine import (
    FusedExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
    run_plan,
    slice_plan,
)
from repro.engine import executors, kernels
from repro.errors import PersistentBenchError

ACT_POINT = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
COPY_POINT = OperatingPoint(t1_ns=36.0, t2_ns=3.0)
KILL_SERIAL = TESTED_MODULES[1].module_identifier + "#0"


def make_scope(
    seed: int = 51,
    columns: int = 64,
    trials: int = 4,
    functional_only: bool = False,
):
    return CharacterizationScope.build(
        config=SimulationConfig(
            seed=seed, columns_per_row=columns, functional_only=functional_only
        ),
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=2,
        trials=trials,
    )


def assert_outcomes_identical(reference, candidate):
    assert len(reference.outcomes) == len(candidate.outcomes)
    for ours, theirs in zip(reference.outcomes, candidate.outcomes):
        assert ours.index == theirs.index
        assert ours.rate == theirs.rate
        assert ours.checkpoint_rates == theirs.checkpoint_rates
        assert np.array_equal(ours.mask, theirs.mask)


@pytest.mark.parametrize("name", ["fused", "fused-parallel"])
class TestFusedBitIdentity:
    """Cell-for-cell equality with the serial reference."""

    def make(self, name):
        if name == "fused":
            return FusedExecutor()
        return ProcessPoolExecutor(jobs=2)

    def test_activation_masks_match_serial(self, name):
        reference = SerialExecutor().run(
            build_activation_plan(make_scope(), 8, ACT_POINT)
        )
        candidate = self.make(name).run(
            build_activation_plan(make_scope(), 8, ACT_POINT)
        )
        assert_outcomes_identical(reference, candidate)

    def test_copy_masks_match_serial(self, name):
        reference = SerialExecutor().run(
            build_copy_plan(make_scope(), 3, COPY_POINT)
        )
        candidate = self.make(name).run(
            build_copy_plan(make_scope(), 3, COPY_POINT)
        )
        assert_outcomes_identical(reference, candidate)

    def test_checkpoints_match_serial(self, name):
        checkpoints = (1, 2, 3, 4)
        reference = majx_convergence_curve(
            make_scope(), 3, 4, checkpoints, executor=SerialExecutor()
        )
        candidate = majx_convergence_curve(
            make_scope(), 3, 4, checkpoints, executor=self.make(name)
        )
        assert candidate == reference

    def test_off_regime_plan_falls_back_bit_identically(self, name):
        # Copy plan in the consecutive (RowClone) window: the probe
        # resolves a semantic the kernel does not fuse, so every task
        # must take the serial fallback.
        point = OperatingPoint(t1_ns=36.0, t2_ns=6.0)
        reference = SerialExecutor().run(
            build_copy_plan(make_scope(), 3, point)
        )
        executor = self.make(name)
        candidate = executor.run(build_copy_plan(make_scope(), 3, point))
        assert_outcomes_identical(reference, candidate)
        assert "fallback" in executor.metrics.stages

    def test_copy_plan_at_majority_timings_fuses(self, name):
        # t1 = 1.5 ns never drives the sense amplifiers, so the APA
        # charge-shares the opened rows; the kernel fuses that regime
        # on the probe's semantic instead of replaying every trial.
        point = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
        reference = SerialExecutor().run(
            build_copy_plan(make_scope(), 3, point)
        )
        executor = self.make(name)
        plan = build_copy_plan(make_scope(), 3, point)
        candidate = executor.run(plan)
        assert_outcomes_identical(reference, candidate)
        assert "fallback" not in executor.metrics.stages
        assert executor.metrics.apa_programs == len(plan.tasks)


class TestFusedMajorityCopyProperty:
    """Multi-RowCopy in its charge-sharing regime, fused vs serial."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        group_size=st.sampled_from(VALID_GROUP_SIZES),
        t1_ns=st.sampled_from((1.5, 3.0)),
        t2_ns=st.sampled_from((1.5, 3.0)),
        pattern=st.sampled_from(
            tuple(dict.fromkeys(COPY_TESTED_PATTERNS + MAJX_TESTED_PATTERNS))
        ),
        offset=st.integers(0, 6),
        trials=st.integers(1, 3),
    )
    def test_matches_serial(
        self, group_size, t1_ns, t2_ns, pattern, offset, trials
    ):
        # Group size 2 is a one-to-one tie that resolves to the sense
        # amplifiers' bias; larger groups out-vote the source.
        point = OperatingPoint(t1_ns=t1_ns, t2_ns=t2_ns, pattern=pattern)

        def plan():
            scope = CharacterizationScope.build(
                config=SimulationConfig(seed=7, columns_per_row=64),
                specs=TESTED_MODULES[:2],
                modules_per_spec=1,
                groups_per_size=1,
                trials=1,
            )
            return slice_plan(
                build_copy_plan(scope, group_size - 1, point), offset, trials
            )

        reference = SerialExecutor().run(plan())
        executor = FusedExecutor()
        candidate = executor.run(plan())
        assert_outcomes_identical(reference, candidate)
        assert [o.trial_rates for o in candidate.outcomes] == [
            o.trial_rates for o in reference.outcomes
        ]
        assert "fallback" not in executor.metrics.stages


def _noise_plans(functional_only: bool = False):
    """One plan per fused kernel and Multi-RowCopy regime, at points
    where some contests have an unstable column and others do not."""

    def scope(seed=51, columns=64):
        return make_scope(
            seed=seed, columns=columns, functional_only=functional_only
        )

    # Fig 7 drives MAJX through the fixed pairs of MAJX_TESTED_PATTERNS.
    majx_point = OperatingPoint(
        t1_ns=MAJX_POINT.t1_ns, t2_ns=MAJX_POINT.t2_ns, pattern=PATTERN_AA55
    )
    return {
        "activation": lambda: build_activation_plan(
            scope(seed=2024, columns=256), 8, ACT_POINT
        ),
        "majx-fixed-pair": lambda: build_majx_plan(scope(), 3, 8, majx_point),
        "copy": lambda: build_copy_plan(
            scope(), 3, OperatingPoint(t1_ns=9.0, t2_ns=3.0)
        ),
        "copy-majority": lambda: build_copy_plan(
            scope(), 7, OperatingPoint(t1_ns=3.0, t2_ns=3.0)
        ),
    }


class TestNoiseOnDemand:
    """The fused kernels draw a contest's noise only where some column
    is unstable; a skipped row is read nowhere, so outcomes stay equal
    to the serial reference."""

    def count_draws(self, monkeypatch):
        counts = {"entries": 0, "drawn": 0}
        noise_where = kernels._noise_where
        block = ReliabilityModel.context_noise_block

        def counting_noise_where(reliability, entries, needed, columns):
            counts["entries"] += len(entries)
            return noise_where(reliability, entries, needed, columns)

        def counting_block(self, entries, columns):
            counts["drawn"] += len(entries)
            return block(self, entries, columns)

        monkeypatch.setattr(kernels, "_noise_where", counting_noise_where)
        monkeypatch.setattr(
            ReliabilityModel, "context_noise_block", counting_block
        )
        return counts

    @pytest.mark.parametrize("kind", sorted(_noise_plans()))
    def test_draws_only_unstable_rows_bit_identically(self, kind, monkeypatch):
        build = _noise_plans()[kind]
        reference = SerialExecutor().run(build())
        counts = self.count_draws(monkeypatch)
        executor = FusedExecutor()
        assert_outcomes_identical(reference, executor.run(build()))
        assert "fallback" not in executor.metrics.stages
        assert 0 < counts["drawn"] < counts["entries"], counts
        composed = ProcessPoolExecutor(jobs=2)
        assert_outcomes_identical(reference, composed.run(build()))

    @pytest.mark.parametrize("kind", sorted(_noise_plans()))
    def test_functional_only_draws_no_noise(self, kind, monkeypatch):
        build = _noise_plans(functional_only=True)[kind]
        reference = SerialExecutor().run(build())
        counts = self.count_draws(monkeypatch)
        assert_outcomes_identical(reference, FusedExecutor().run(build()))
        assert counts["entries"] > 0
        assert counts["drawn"] == 0
        composed = ProcessPoolExecutor(jobs=2)
        assert_outcomes_identical(reference, composed.run(build()))


class TestFusedInstrumentation:
    def test_one_probe_per_task_on_regime(self):
        executor = FusedExecutor()
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        run_plan(plan, executor)
        # Fused counts exactly one APA program (the probe, resolved
        # without replaying cells) per task; the trials themselves run
        # as packed bit-plane math.
        assert executor.metrics.apa_programs == len(plan.tasks)
        assert "probe" in executor.metrics.stages
        assert "fuse" in executor.metrics.stages
        assert "fallback" not in executor.metrics.stages

    def test_probe_is_a_chaos_fault_point(self):
        # The regime-gated probe resolves the semantic without replaying
        # cells, yet it is still the bench contact where faults fire.
        scope = make_scope()
        bench = scope.benches[0]
        harness = ChaosHarness(
            ChaosConfig(seed=1, bench_failure_serials=(bench.module.serial,))
        )
        plan = build_activation_plan(scope, 8, ACT_POINT)
        with harness.installed([bench]):
            with pytest.raises(PersistentBenchError):
                FusedExecutor().run(plan)
        assert harness.engine.stats.injected["bench-failure"] == 1

    def test_make_executor_builds_fused_variants(self):
        assert make_executor("fused").name == "fused"
        composed = make_executor("fused-parallel", jobs=2)
        assert composed.name == "fused-parallel"
        assert composed.jobs == 2


class TestFusedParallelSupervision:
    """Pool supervision on the Multi-RowCopy kernel, whose slices fuse
    two regimes (test_executors.py covers activation plans)."""

    @staticmethod
    def distribution(executor):
        return multi_row_copy_distribution(
            make_scope(), 3, COPY_POINT, executor=executor
        )

    def test_worker_crash_recovers_bit_identically(self):
        reference = self.distribution(SerialExecutor())
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        executor = ProcessPoolExecutor(jobs=2, chaos=chaos)
        assert self.distribution(executor) == reference
        assert executor.metrics.pool_restarts >= 1
        assert executor.metrics.tasks_resharded >= 1

    def test_serial_fallback_when_restart_budget_exhausted(
        self, monkeypatch
    ):
        reference = self.distribution(SerialExecutor())
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        monkeypatch.setattr(executors, "MAX_POOL_RESTARTS", 0)
        executor = ProcessPoolExecutor(jobs=2, chaos=chaos)
        assert self.distribution(executor) == reference
        assert executor.metrics.pool_restarts == 1


class TestFusedDisturbanceAudit:
    """The disturbance kernel has no regime gate, so its fused path
    models no physics: the finalize audit must read back a bank that a
    real APA hammered, or a bystander flip would go unseen."""

    def test_audit_sees_an_injected_bystander_flip(self, monkeypatch):
        config = SimulationConfig(seed=51, columns_per_row=64)
        victim = TESTED_MODULES[0].profile.subarray_rows - 1
        original = Bank._apply_majority

        def leaky_majority(self, subarray_index, rows, t1, t2):
            original(self, subarray_index, rows, t1, t2)
            # A model bug: the APA also clears a bystander row.
            self.subarray(subarray_index).write_row_bits(
                victim, np.zeros(self.columns, dtype=np.uint8)
            )

        monkeypatch.setattr(Bank, "_apply_majority", leaky_majority)
        group = sample_groups(0, victim + 1, 4, 1, "leak")[0]
        # The pool is created after the patch, so its forked workers
        # run the leaky bank too.
        for executor in (
            SerialExecutor(), FusedExecutor(), ProcessPoolExecutor(jobs=2)
        ):
            bench = TestBench.for_spec(TESTED_MODULES[0], config=config)
            report = disturbance_check(
                bench, 0, group, trials=4, executor=executor
            )
            assert not report.clean, executor.name
            assert victim in report.flipped_rows, executor.name
