"""Executor contract tests.

The engine's hard guarantee: for a given plan and simulation seed,
the serial reference, the fused executor, and the fused process-pool
executor at any worker count all produce bit-identical results -- the same
:class:`~repro.characterization.stats.DistributionSummary`, the same
convergence checkpoints, the same disturbance audit.
"""

import numpy as np
import pytest

from repro.bender.testbench import TestBench
from repro.characterization.activation import (
    activation_success_distribution,
    build_activation_plan,
)
from repro.characterization.convergence import majx_convergence_curve
from repro.characterization.disturbance import disturbance_check
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.characterization.majority import majx_success_distribution
from repro.characterization.rowcopy import multi_row_copy_distribution
from repro.characterization.variability import per_module_majx
from repro.config import SimulationConfig
from repro.core.rowgroups import sample_groups
from repro.dram.module import Module
from repro.dram.vendor import PROFILE_SAMSUNG, TESTED_MODULES
from repro.engine import (
    FusedExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    TrialKernel,
    TrialPlan,
    TrialTask,
    make_executor,
    run_plan,
    run_task_serial,
)
from repro.engine import executors
from repro.chaos import ChaosConfig
from repro.errors import ExperimentError

ACT_POINT = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
COPY_POINT = OperatingPoint(t1_ns=36.0, t2_ns=3.0)

EXECUTOR_FACTORIES = {
    "serial": SerialExecutor,
    "fused": FusedExecutor,
    "fused-parallel": lambda: ProcessPoolExecutor(jobs=2),
    "fused-parallel@1": lambda: ProcessPoolExecutor(jobs=1),
}
NON_SERIAL = ["fused", "fused-parallel", "fused-parallel@1"]


def make_scope(
    seed: int = 51, columns: int = 64, trials: int = 4,
    specs=TESTED_MODULES[:2],
):
    """A fresh two-manufacturer scope (fresh rig per executor run)."""
    return CharacterizationScope.build(
        config=SimulationConfig(seed=seed, columns_per_row=columns),
        specs=specs,
        modules_per_spec=1,
        groups_per_size=2,
        trials=trials,
    )


def outcome_keys(outcomes):
    return [
        (o.index, o.rate, o.trials, o.cells, o.mask.tobytes(), o.trial_rates)
        for o in outcomes
    ]


class TestBitIdentity:
    """Same seed, any executor, same numbers -- the engine contract."""

    @pytest.mark.parametrize("other", NON_SERIAL)
    def test_activation_distribution_matches_serial(self, other):
        reference = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=SerialExecutor()
        )
        candidate = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=EXECUTOR_FACTORIES[other]()
        )
        assert candidate == reference

    @pytest.mark.parametrize("other", NON_SERIAL)
    def test_majx_distribution_matches_serial(self, other):
        reference = majx_success_distribution(
            make_scope(), 3, 8, ACT_POINT, executor=SerialExecutor()
        )
        candidate = majx_success_distribution(
            make_scope(), 3, 8, ACT_POINT, executor=EXECUTOR_FACTORIES[other]()
        )
        assert candidate == reference

    @pytest.mark.parametrize("other", NON_SERIAL)
    def test_rowcopy_distribution_matches_serial(self, other):
        reference = multi_row_copy_distribution(
            make_scope(), 3, COPY_POINT, executor=SerialExecutor()
        )
        candidate = multi_row_copy_distribution(
            make_scope(), 3, COPY_POINT, executor=EXECUTOR_FACTORIES[other]()
        )
        assert candidate == reference

    @pytest.mark.parametrize("other", NON_SERIAL)
    def test_convergence_checkpoints_match_serial(self, other):
        checkpoints = (1, 2, 4, 8)
        reference = majx_convergence_curve(
            make_scope(), 3, 8, checkpoints, executor=SerialExecutor()
        )
        candidate = majx_convergence_curve(
            make_scope(), 3, 8, checkpoints,
            executor=EXECUTOR_FACTORIES[other](),
        )
        assert candidate == reference

    def test_per_module_breakdown_matches_serial(self):
        reference = per_module_majx(
            make_scope(), 3, 8, ACT_POINT, executor=SerialExecutor()
        )
        candidate = per_module_majx(
            make_scope(), 3, 8, ACT_POINT, executor=FusedExecutor()
        )
        assert candidate == reference

    def test_disturbance_audit_matches_serial(self, quick_config):
        reports = []
        for executor in (SerialExecutor(), FusedExecutor()):
            bench = TestBench.for_spec(TESTED_MODULES[0], config=quick_config)
            group = sample_groups(0, 512, 8, 1, "engine-disturb")[0]
            reports.append(
                disturbance_check(bench, 0, group, trials=6, executor=executor)
            )
        assert reports[0] == reports[1]

    def test_outcome_masks_match_cell_for_cell(self):
        plans = []
        for _ in range(2):
            scope = make_scope()
            plans.append(build_activation_plan(scope, 8, ACT_POINT))
        serial = SerialExecutor().run(plans[0])
        fused = FusedExecutor().run(plans[1])
        for ours, theirs in zip(serial.outcomes, fused.outcomes):
            assert ours.index == theirs.index
            assert np.array_equal(ours.mask, theirs.mask)
            assert ours.checkpoint_rates == theirs.checkpoint_rates


class TestInstrumentation:
    def test_serial_counts_one_program_per_trial(self):
        executor = SerialExecutor()
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        run_plan(plan, executor)
        assert executor.metrics.plans == 1
        assert executor.metrics.tasks == len(plan.tasks)
        assert executor.metrics.trials == plan.total_trials
        assert executor.metrics.apa_programs == plan.total_trials
        assert executor.metrics.executor_busy_fraction > 0.0

    def test_parallel_reports_worker_pool(self):
        executor = ProcessPoolExecutor(jobs=2)
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        run_plan(plan, executor)
        assert executor.metrics.workers == 2
        assert executor.metrics.busy_s > 0.0

    def test_metrics_accumulate_across_plans(self):
        executor = SerialExecutor()
        scope = make_scope()
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        assert executor.metrics.plans == 2


KILL_SERIAL = TESTED_MODULES[1].module_identifier + "#0"


class TestWorkerSupervision:
    """Worker death, re-queued slices, and the in-process fallback -- all
    of it must preserve the bit-identity contract, because measurement
    noise is context-keyed, never execution-history-keyed."""

    def test_worker_crash_recovers_bit_identically(self):
        reference = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=SerialExecutor()
        )
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        executor = ProcessPoolExecutor(jobs=2, chaos=chaos)
        candidate = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=executor
        )
        assert candidate == reference
        assert executor.metrics.worker_deaths >= 1
        assert executor.metrics.tasks_resharded >= 1

    def test_kill_fires_once_per_serial(self):
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        executor = ProcessPoolExecutor(jobs=2, chaos=chaos)
        activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=executor
        )
        deaths_after_first = executor.metrics.worker_deaths
        activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=executor
        )
        assert executor.metrics.worker_deaths == deaths_after_first

    def test_serial_fallback_when_restart_budget_exhausted(self):
        # No survivor to re-queue onto: the only worker dies, and the
        # rest of the batch runs in-process, one slice at a time.
        reference = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=SerialExecutor()
        )
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        executor = ProcessPoolExecutor(jobs=1, chaos=chaos)
        candidate = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=executor
        )
        assert candidate == reference
        assert executor.metrics.worker_deaths == 1
        assert executor.metrics.tasks_resharded >= 1


class _WrongShapeKernel(TrialKernel):
    op_name = "broken"
    signature = "broken"

    def run_trial(self, bench, task, point, trial):
        return np.ones(task.cells + 1, dtype=bool)


class TestErrors:
    def test_make_executor_names(self):
        assert make_executor(None).name == "serial"
        assert make_executor("serial").name == "serial"
        assert make_executor("fused").name == "fused"
        assert make_executor("fused-parallel", jobs=3).jobs == 3
        for removed in ("gpu", "batched", "parallel"):
            with pytest.raises(ExperimentError, match="unknown executor"):
                make_executor(removed)

    def test_kernel_shape_mismatch_rejected(self, quick_config):
        bench = TestBench.for_spec(TESTED_MODULES[0], config=quick_config)
        group = sample_groups(0, 512, 4, 1, "engine-shape")[0]
        task = TrialTask(
            index=0, bench_index=0, serial=bench.module.serial,
            bank=0, subarray=0, group=group, trials=1, cells=8,
        )
        with pytest.raises(ExperimentError, match="expected"):
            run_task_serial(
                _WrongShapeKernel(), ACT_POINT, (), bench, task
            )

    def test_parallel_requires_catalog_benches(self, quick_config):
        module = Module("HANDMADE#0", PROFILE_SAMSUNG, config=quick_config)
        bench = TestBench(module)
        group = sample_groups(0, 512, 4, 1, "engine-nospec")[0]
        plan = TrialPlan(
            name="nospec",
            kernel=_WrongShapeKernel(),
            point=ACT_POINT,
            tasks=[
                TrialTask(
                    index=0, bench_index=0, serial=module.serial,
                    bank=0, subarray=0, group=group, trials=1, cells=8,
                )
            ],
            benches=[bench],
        )
        with pytest.raises(ExperimentError, match="catalog-built"):
            ProcessPoolExecutor(jobs=1).run(plan)


class TestStreamingRunMany:
    """run_many(on_result): settled plans stream strictly in plan order
    -- the hook the campaign's incremental commits hang off (PR 6)."""

    def _plans(self, count=3):
        scope = make_scope()
        return [
            build_activation_plan(scope, 8, ACT_POINT) for _ in range(count)
        ]

    @pytest.mark.parametrize("name", ["serial", "fused-parallel"])
    def test_emission_order_and_parity(self, name):
        plans = self._plans()
        streamed = []
        with EXECUTOR_FACTORIES[name]() as executor:
            kept = executor.run_many(
                plans, on_result=lambda i, r: streamed.append((i, r))
            )
            unstreamed = executor.run_many(plans)
        assert [index for index, _ in streamed] == [0, 1, 2]
        # A streamed result is the caller's alone: nothing is kept.
        assert kept == []
        results = [result for _, result in streamed]
        for result in results:
            assert not isinstance(result, Exception)
        assert [
            [(o.rate, o.mask.tobytes()) for o in r.outcomes] for r in results
        ] == [
            [(o.rate, o.mask.tobytes()) for o in r.outcomes]
            for r in unstreamed
        ]

    def test_interrupt_in_hook_leaves_streamed_plans_delivered(self):
        plans = self._plans(2)
        streamed = []

        def hook(index, result):
            streamed.append(index)
            raise KeyboardInterrupt

        with EXECUTOR_FACTORIES["fused-parallel"]() as executor:
            with pytest.raises(KeyboardInterrupt):
                executor.run_many(plans, on_result=hook)
        assert streamed == [0]


class TestCloseIdempotence:
    def test_double_close_is_a_no_op(self):
        executor = ProcessPoolExecutor(jobs=2)
        run_plan(build_activation_plan(make_scope(), 8, ACT_POINT), executor)
        executor.close()
        executor.close()

    def test_close_before_first_run(self):
        ProcessPoolExecutor(jobs=2).close()

    def test_context_manager_after_manual_close(self):
        executor = ProcessPoolExecutor(jobs=2)
        with executor:
            run_plan(
                build_activation_plan(make_scope(), 8, ACT_POINT), executor
            )
            executor.close()
        # __exit__ closed it a second time without complaint.


class TestSliceDispatch:
    """Whole-plan-slice shipping: O(workers) round trips per plan."""

    def test_dispatch_count_is_bounded_by_workers(self):
        executor = ProcessPoolExecutor(jobs=2)
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        run_plan(plan, executor)
        # One columnar message per slice, at most one slice per
        # worker -- not one dispatch per task.
        assert 1 <= executor.metrics.dispatches <= 2
        assert executor.metrics.dispatches < len(plan.tasks)
        assert executor.metrics.bytes_shipped_down > 0

    def test_adaptive_sizing_collapses_tiny_plans(self, monkeypatch):
        # A huge dispatch floor + the observed per-task cost from run
        # one should shrink run two to a single slice.
        monkeypatch.setattr(executors, "DISPATCH_TARGET_S", 3600.0)
        executor = ProcessPoolExecutor(jobs=2)
        scope = make_scope()
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        first = executor.metrics.dispatches
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        assert executor.metrics.dispatches - first == 1

    def test_zero_target_disables_adaptation(self, monkeypatch):
        monkeypatch.setattr(executors, "DISPATCH_TARGET_S", 0.0)
        executor = ProcessPoolExecutor(jobs=2)
        scope = make_scope()
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        first = executor.metrics.dispatches
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        # No cost model consulted: same slicing both times.
        assert executor.metrics.dispatches - first == first

    def test_bench_fingerprint_reuse_across_dispatches(self):
        # A slice builds each touched bench once; the *next* dispatch
        # to the same worker finds it cached by fingerprint, so the
        # rebuild cost is paid once per worker, not once per dispatch.
        # (Deltas, not absolutes: under the fork start method a worker
        # can inherit benches an earlier in-process slice cached.)
        executor = ProcessPoolExecutor(jobs=1)
        scope = make_scope()
        plan = build_activation_plan(scope, 8, ACT_POINT)
        run_plan(plan, executor)
        before = executor.metrics.worker_bench_reuses
        run_plan(build_activation_plan(scope, 8, ACT_POINT), executor)
        benches_touched = len({t.bench_index for t in plan.tasks})
        assert (
            executor.metrics.worker_bench_reuses - before == benches_touched
        )

    def test_bench_reuse_across_run_many_batches(self):
        scope = make_scope()
        with ProcessPoolExecutor(jobs=1) as executor:
            # Warm the worker's bench cache with one batch first.
            executor.run_many([build_activation_plan(scope, 8, ACT_POINT)])
            before = executor.metrics.worker_bench_reuses
            plans = [
                build_activation_plan(scope, 8, ACT_POINT) for _ in range(3)
            ]
            executor.run_many(plans)
        benches = len({t.bench_index for t in plans[0].tasks})
        # Every plan of the warm batch finds its benches cached --
        # reuse scales with batch size.
        assert executor.metrics.worker_bench_reuses - before == benches * 3


class TestStreamedFrames:
    """A pipelined batch cuts its task stream, not each plan: one
    ``run-slice`` frame carries consecutive plans."""

    def test_multi_figure_campaign_ships_few_frames_on_every_worker(self):
        from repro.characterization.campaign import Campaign

        with ProcessPoolExecutor(jobs=2) as executor:
            result = Campaign(make_scope(), executor=executor).run(
                ["fig3", "fig6", "fig10"]
            )
        assert result.succeeded
        stats = result.engine_stats
        assert stats["pipelined_plans"] > 2 * executors.SLICES_PER_WORKER
        assert 2 <= stats["dispatches"] <= 2 * executors.SLICES_PER_WORKER
        assert stats["workers"] == 2

    def test_chaos_kill_in_a_multi_plan_frame_fires_once(self, monkeypatch):
        from repro.engine import fleet

        scope = make_scope()
        plans = [build_activation_plan(scope, 8, ACT_POINT) for _ in range(3)]
        reference = [SerialExecutor().run(plan).outcomes for plan in plans]
        real_send = fleet.send_columns
        kill_frames = []

        def recording_send(sock, header, segments):
            if any(head.get("kill_worker") for head, _ in segments):
                kill_frames.append(len(segments))
            real_send(sock, header, segments)

        monkeypatch.setattr(fleet, "send_columns", recording_send)
        # One frame per worker: each frame spans plan boundaries.
        monkeypatch.setattr(executors, "SLICES_PER_WORKER", 1)
        kill_serial = TESTED_MODULES[1].module_identifier + "#0"
        chaos = ChaosConfig(seed=3, worker_kill_serials=(kill_serial,))
        with ProcessPoolExecutor(jobs=2, chaos=chaos) as executor:
            results = executor.run_many(plans)
        assert len(kill_frames) == 1 and kill_frames[0] > 1
        assert executor.metrics.worker_deaths == 1
        for result, want in zip(results, reference):
            assert outcome_keys(result.outcomes) == outcome_keys(want)

    def test_error_in_one_plan_spares_its_frame_neighbour(self, monkeypatch):
        # Two single-module plans share one frame; the first module's
        # bench fails persistently, the second plan still lands.
        monkeypatch.setattr(executors, "SLICES_PER_WORKER", 1)
        doomed_scope = make_scope(specs=TESTED_MODULES[:1])
        doomed = build_activation_plan(doomed_scope, 8, ACT_POINT)
        clean = build_activation_plan(
            make_scope(specs=TESTED_MODULES[1:2]), 8, ACT_POINT
        )
        reference = SerialExecutor().run(clean).outcomes
        serial = doomed_scope.benches[0].module.serial
        chaos = ChaosConfig(seed=3, bench_failure_serials=(serial,))
        with ProcessPoolExecutor(jobs=1, chaos=chaos) as executor:
            failed, landed = executor.run_many([doomed, clean])
            assert executor.metrics.dispatches == 1
        assert isinstance(failed, Exception)
        assert outcome_keys(landed.outcomes) == outcome_keys(reference)
        # The failed segment's injected fault is still on the ledger,
        # and in the executor's metrics.
        assert executor._faults_spent.get("bench-failure", 0) >= 1
        assert executor.metrics.chaos_faults_injected == sum(
            executor._faults_spent.values()
        )


class TestBatchMetricsWindows:
    """run_many must report one wall/execute window per batch, not the
    sum of per-plan windows (the 129 s-for-a-2 s-campaign bug)."""

    def test_run_many_window_is_single_not_summed(self):
        import time

        scope = make_scope()
        plans = [
            build_activation_plan(scope, 8, ACT_POINT) for _ in range(3)
        ]
        with ProcessPoolExecutor(jobs=2) as executor:
            started = time.perf_counter()
            executor.run_many(plans)
            elapsed = time.perf_counter() - started
        # Accumulating per-plan windows in a pipelined batch would
        # overshoot the true elapsed time several-fold.
        assert executor.metrics.wall_s <= elapsed * 1.2
        assert executor.metrics.execute_s <= elapsed * 1.2
        assert executor.metrics.wall_s > 0.0

    def test_serial_run_many_window_also_single(self):
        import time

        scope = make_scope()
        plans = [
            build_activation_plan(scope, 8, ACT_POINT) for _ in range(3)
        ]
        executor = SerialExecutor()
        started = time.perf_counter()
        executor.run_many(plans)
        elapsed = time.perf_counter() - started
        assert executor.metrics.wall_s <= elapsed * 1.2
