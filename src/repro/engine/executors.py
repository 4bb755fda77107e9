"""Pluggable executors for :class:`~repro.engine.plan.TrialPlan`.

Two strategies, one contract: for a given plan and simulation seed,
every executor produces bit-identical task outcomes (and therefore
bit-identical :class:`~repro.characterization.stats.DistributionSummary`
results).  The serial executor is the reference: every trial runs
through the full bench.  The fused executor evaluates whole plans as
packed bit-plane math, gated by a per-task APA semantic probe so the
fused math only runs in the regimes it reproduces; the process-pool
executor runs the same fused evaluation sharded across worker
processes, rebuilding each bench from its catalog spec in the worker.

The process-pool executor additionally owns a *persistent* worker
pool: the pool spins up lazily on first use, survives across plans
(and across experiments, when driven by
:class:`~repro.engine.scheduler.CampaignScheduler` through
:meth:`ExecutorBase.run_many`), and is torn down by ``close()`` / the
context-manager exit.  Workers cache their rebuilt benches between
shards and hand results back as columnar arrays
(:mod:`repro.engine.columnar`) with masks in shared memory, so
neither pool spawns nor pickled Python objects dominate campaign
wall-clock.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import time
from dataclasses import replace
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .. import rng
from ..bender.program import apa_program
from ..bender.testbench import TestBench
from ..chaos import ChaosConfig, ChaosHarness, FaultKind
from ..errors import ExperimentError, TransientInfrastructureError
from . import bitplane
from .cache import TrialCache
from .columnar import (
    OutcomeColumns,
    TaskColumns,
    pack_outcomes,
    pack_tasks,
    unpack_outcomes,
    unpack_tasks,
)
from .kernels import TrialKernel, measurement_context, point_token
from .metrics import EngineMetrics
from .plan import PlanResult, TaskOutcome, TrialPlan, TrialTask

if TYPE_CHECKING:  # characterization imports the engine; avoid the cycle
    from ..characterization.experiment import OperatingPoint


def available_cpu_count() -> int:
    """CPUs actually usable by this process (cgroup/affinity-aware).

    ``os.cpu_count()`` reports the machine; a containerized CI job is
    usually pinned to far fewer.  Prefer ``os.process_cpu_count``
    (3.13+), fall back to the scheduler affinity mask, then to the
    machine count -- so worker defaults never oversubscribe a
    cgroup-limited runner.
    """
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        count = counter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def run_task_serial(
    kernel: TrialKernel,
    point: OperatingPoint,
    checkpoints: Sequence[int],
    bench: TestBench,
    task: TrialTask,
) -> TaskOutcome:
    """Reference execution of one task: trial loop through the bench.

    Every trial runs with the bank's noise context pinned to the
    measurement identity, so the model's coin flips do not depend on
    how many operations preceded this trial.
    """
    device_bank = bench.module.bank(task.bank)
    kernel.setup(bench, task, point)
    checkpoint_set = set(checkpoints)
    snapshots: List[Tuple[int, float]] = []
    mask = np.ones(task.cells, dtype=bool)
    trial_rates: List[float] = []
    # The context tokens only vary in the trial index; build the
    # invariant prefix once instead of re-deriving the point token
    # (string formatting) every trial.
    context_prefix = (kernel.signature, point_token(point), task.group_token)
    # ``trial`` is the absolute index (offset by any round slicing) so
    # the noise stream matches a one-shot run; ``local`` counts within
    # this slice for checkpoints and accumulation.
    for local, trial in enumerate(
        range(task.trial_offset, task.trial_offset + task.trials)
    ):
        with device_bank.noise_context(*context_prefix, trial):
            correct = np.asarray(
                kernel.run_trial(bench, task, point, trial), dtype=bool
            )
        if correct.shape != (task.cells,):
            raise ExperimentError(
                f"kernel {kernel.op_name!r} returned shape {correct.shape}, "
                f"expected ({task.cells},)"
            )
        trial_rates.append(float(np.mean(correct)))
        mask &= correct
        if (local + 1) in checkpoint_set:
            snapshots.append((local + 1, float(np.mean(mask))))
    audit = kernel.finalize(bench, task, point)
    if audit is not None:
        mask &= np.asarray(audit, dtype=bool)
    return TaskOutcome(
        index=task.index,
        rate=float(np.mean(mask)),
        trials=task.trials,
        cells=task.cells,
        mask=mask,
        checkpoint_rates=tuple(snapshots),
        trial_rates=tuple(trial_rates),
    )


def _probe_semantic(
    kernel: TrialKernel,
    bench: TestBench,
    task: TrialTask,
    point: "OperatingPoint",
) -> str:
    """The APA semantic the task's operating point resolves to.

    A regime-gated kernel only needs the bank's decision, which
    :meth:`TestBench.resolve` reads off the bank's decision table
    without replaying cells.  A kernel with no regime gate
    (``fused_semantics is None``) gets one real APA instead: its
    fused path models no physics, and its ``finalize`` audits the
    bench state that this real APA leaves behind.
    """
    subarray_rows = bench.module.profile.subarray_rows
    rf_global, rs_global = task.group.global_pair(subarray_rows)
    program = apa_program(
        task.bank, rf_global, rs_global, point.t1_ns, point.t2_ns
    )
    if kernel.fused_semantics is not None:
        return bench.resolve(program)
    bench.run(program)
    event = bench.module.bank(task.bank).last_event
    return event.semantic if event is not None else "none"


def _outcome_from_planes(
    kernel: TrialKernel,
    point: "OperatingPoint",
    checkpoints: Sequence[int],
    bench: TestBench,
    task: TrialTask,
    planes: np.ndarray,
) -> TaskOutcome:
    """Reduce one task's packed trial planes to a TaskOutcome.

    The AND-over-trials reduction and every rate stay in the packed
    domain (popcount / cells == np.mean of the bool mask, exactly), so
    the outcome is bit-identical to the serial reference.
    """
    expected_shape = (task.trials, bitplane.words_for(task.cells))
    if planes.shape != expected_shape:
        raise ExperimentError(
            f"kernel {kernel.op_name!r} slice returned shape {planes.shape}, "
            f"expected {expected_shape}"
        )
    running = bitplane.and_accumulate(planes)
    snapshots = tuple(
        (count, bitplane.rate(running[count - 1], task.cells))
        for count in checkpoints
        if 1 <= count <= task.trials
    )
    # popcount / cells is exactly np.mean over the unpacked booleans,
    # so the per-trial rates stay bit-identical to the serial path.
    trial_rates = tuple(
        bitplane.rate(planes[i], task.cells) for i in range(task.trials)
    )
    mask_words = running[-1].copy()
    audit = kernel.finalize(bench, task, point)
    if audit is not None:
        mask_words &= bitplane.pack_matrix(np.asarray(audit, dtype=bool))
    return TaskOutcome(
        index=task.index,
        rate=bitplane.rate(mask_words, task.cells),
        trials=task.trials,
        cells=task.cells,
        mask=bitplane.unpack_mask(mask_words, task.cells),
        checkpoint_rates=snapshots,
        trial_rates=trial_rates,
    )


def run_tasks_fused(
    kernel: TrialKernel,
    point: "OperatingPoint",
    checkpoints: Sequence[int],
    bench: TestBench,
    tasks: Sequence[TrialTask],
    delta: EngineMetrics,
) -> List[TaskOutcome]:
    """Fused execution of one bench's tasks.

    Probes each task's APA semantic (:func:`_probe_semantic`), evaluates
    the tasks whose semantic the kernel fuses
    (:attr:`TrialKernel.fused_semantics`) in one
    :meth:`TrialKernel.run_slice` call per semantic (block RNG + packed
    bit-plane reduction), and falls back to the per-trial serial
    reference for any other task.  The probed semantic is handed to
    ``run_slice``, so the bank's decision table stays the only place a
    timing regime is decided.  ``delta`` receives probe/fuse/fallback
    stage timings and APA program counts.
    """
    outcomes: List[TaskOutcome] = []
    sliceable: Dict[str, List[TrialTask]] = {}
    fused = kernel.fused_semantics
    for task in tasks:
        probe_started = time.perf_counter()
        kernel.setup(bench, task, point)
        semantic = _probe_semantic(kernel, bench, task, point)
        delta.apa_programs += 1
        delta.add_stage("probe", time.perf_counter() - probe_started)
        if fused is None or semantic in fused:
            sliceable.setdefault(semantic, []).append(task)
        else:
            fallback_started = time.perf_counter()
            outcomes.append(
                run_task_serial(kernel, point, checkpoints, bench, task)
            )
            delta.apa_programs += task.trials
            delta.add_stage("fallback", time.perf_counter() - fallback_started)
    for semantic, regime_tasks in sliceable.items():
        fuse_started = time.perf_counter()
        planes_list = kernel.run_slice(bench, regime_tasks, point, semantic)
        if len(planes_list) != len(regime_tasks):
            raise ExperimentError(
                f"kernel {kernel.op_name!r} slice returned "
                f"{len(planes_list)} plane stacks for {len(regime_tasks)} tasks"
            )
        for task, planes in zip(regime_tasks, planes_list):
            outcomes.append(
                _outcome_from_planes(
                    kernel, point, checkpoints, bench, task, planes
                )
            )
        delta.add_stage("fuse", time.perf_counter() - fuse_started)
    return outcomes


_CACHE_COUNTER_FIELDS = (
    "cache_hits",
    "cache_misses",
    "cache_bytes_read",
    "cache_bytes_written",
)


class ExecutorBase:
    """Shared surface: ``run(plan) -> PlanResult`` plus cumulative metrics.

    With a :class:`~repro.engine.cache.TrialCache` attached, ``run``
    becomes a read-through wrapper: tasks whose outcome is already
    cached are served from disk, the remainder run as a sub-plan on
    the concrete executor (``_run``), and fresh outcomes are stored
    back under the executor's name as their origin.  Because every
    executor is bit-identical, a cached outcome is interchangeable
    with a recomputed one -- except for audits, which pass a cache
    with ``require_origin`` set so they never certify an executor
    against its own stored output.

    Executors also expose an explicit lifecycle -- ``start()`` /
    ``close()`` / context manager.  In-process executors hold no
    external resources, so the default hooks are no-ops; the
    process-pool executor uses them to manage its persistent worker
    pool (creation stays lazy either way).
    """

    name = "base"
    supports_pipelining = False
    """Whether :meth:`run_many` overlaps plans on shared workers."""

    def __init__(self, cache: Optional[TrialCache] = None) -> None:
        self.metrics = EngineMetrics(executor=self.name)
        self.cache = cache
        self._merge_skip_windows = False
        """While True (pipelined batches), per-plan deltas merge into
        the cumulative metrics without their wall/execute windows --
        overlapping plans would otherwise multi-count the same
        seconds; the batch adds one real window instead."""

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Eagerly acquire execution resources (no-op by default)."""

    def close(self) -> None:
        """Release execution resources (no-op by default)."""

    def __enter__(self) -> "ExecutorBase":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @contextlib.contextmanager
    def chaos_profile(
        self, chaos: Optional[ChaosConfig]
    ) -> Iterator["ExecutorBase"]:
        """Temporarily swap the executor's chaos profile.

        Restoration happens in a ``finally`` block, so an error raised
        anywhere in the body can never leave the executor pointing at
        the caller's chaos engine.  Executors without a ``chaos``
        attribute (every in-process one) make this a no-op.
        """
        if not hasattr(self, "chaos"):
            yield self
            return
        saved = self.chaos
        self.chaos = chaos
        try:
            yield self
        finally:
            self.chaos = saved

    # -- execution ------------------------------------------------------------

    def run(self, plan: TrialPlan) -> PlanResult:
        if self.cache is None:
            return self._run(plan)
        return self._run_cached(plan)

    def run_many(
        self,
        plans: Sequence[TrialPlan],
        on_result: Optional[
            Callable[[int, Union[PlanResult, Exception]], None]
        ] = None,
    ) -> List[Union[PlanResult, Exception]]:
        """Run plans back to back, isolating per-plan failures.

        The default implementation is strictly sequential; pipelining
        executors override it to keep their workers saturated across
        plan boundaries.  The returned list is parallel to ``plans``:
        each element is the plan's :class:`PlanResult`, or the
        exception that plan died of.

        ``on_result`` streams each settled plan (index, result-or-
        exception) to the caller as soon as it is available, strictly
        in plan order -- the hook incremental campaign commits hang
        off.  Exceptions it raises propagate to the caller (a
        ``KeyboardInterrupt`` mid-stream leaves already-streamed plans
        delivered).
        """
        results: List[Union[PlanResult, Exception]] = []
        for index, plan in enumerate(plans):
            try:
                result: Union[PlanResult, Exception] = self.run(plan)
            except Exception as exc:
                result = exc
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results

    def _run(self, plan: TrialPlan) -> PlanResult:
        raise NotImplementedError

    def _run_cached(self, plan: TrialPlan) -> PlanResult:
        cache = self.cache
        assert cache is not None
        started = time.perf_counter()
        before = cache.counters()
        ptoken = point_token(plan.point)
        checkpoints = tuple(plan.checkpoints)
        keys: Dict[int, str] = {}
        served: List[TaskOutcome] = []
        missing: List[TrialTask] = []
        for task in plan.tasks:
            config = plan.benches[task.bench_index].module.config
            key = cache.key_for(config, plan.kernel, ptoken, task, checkpoints)
            keys[task.index] = key
            outcome = cache.load(key, task)
            if outcome is None:
                missing.append(task)
            else:
                served.append(outcome)
        if missing:
            sub_result = self._run(replace(plan, tasks=missing))
            for outcome in sub_result.outcomes:
                cache.store(keys[outcome.index], outcome, origin=self.name)
            delta = sub_result.metrics
            outcomes = sorted(
                served + list(sub_result.outcomes),
                key=lambda outcome: outcome.index,
            )
        else:
            # Every task served from cache: the plan still counts, but
            # no tasks/trials were *executed* -- the hit counters tell
            # that story.
            delta = EngineMetrics(executor=self.name, workers=1)
            delta.plans += 1
            delta.wall_s += time.perf_counter() - started
            self.metrics.merge(delta)
            outcomes = sorted(served, key=lambda outcome: outcome.index)
        # Attribute this plan's cache activity to both the returned
        # delta and the cumulative metrics (the sub-plan's delta was
        # already merged by _finish, so mutate both explicitly).
        after = cache.counters()
        for field in _CACHE_COUNTER_FIELDS:
            gained = after[field] - before[field]
            setattr(delta, field, getattr(delta, field) + gained)
            setattr(
                self.metrics, field, getattr(self.metrics, field) + gained
            )
        return PlanResult(plan_name=plan.name, outcomes=outcomes, metrics=delta)

    def _apply_environment(self, plan: TrialPlan, delta: EngineMetrics) -> None:
        if not plan.apply_environment:
            return
        started = time.perf_counter()
        for bench in plan.benches:
            bench.set_temperature(plan.point.temperature_c)
            bench.set_vpp(plan.point.vpp)
        delta.environment_s += time.perf_counter() - started

    def _finish(self, plan: TrialPlan, delta: EngineMetrics,
                outcomes: List[TaskOutcome], started: float) -> PlanResult:
        reduce_started = time.perf_counter()
        outcomes.sort(key=lambda outcome: outcome.index)
        delta.plans += 1
        delta.reduce_s += time.perf_counter() - reduce_started
        delta.wall_s += time.perf_counter() - started
        self.metrics.merge(delta, skip_windows=self._merge_skip_windows)
        return PlanResult(plan_name=plan.name, outcomes=outcomes, metrics=delta)


class SerialExecutor(ExecutorBase):
    """Reference executor: every trial through the full bench, in order."""

    name = "serial"

    def _run(self, plan: TrialPlan) -> PlanResult:
        started = time.perf_counter()
        delta = EngineMetrics(executor=self.name, workers=1)
        self._apply_environment(plan, delta)
        execute_started = time.perf_counter()
        outcomes: List[TaskOutcome] = []
        for task in plan.tasks:
            bench = plan.benches[task.bench_index]
            outcomes.append(
                run_task_serial(plan.kernel, plan.point, plan.checkpoints, bench, task)
            )
            delta.tasks += 1
            delta.trials += task.trials
            delta.cells += task.cells
            delta.apa_programs += task.trials
        delta.execute_s += time.perf_counter() - execute_started
        delta.busy_s = delta.execute_s
        return self._finish(plan, delta, outcomes, started)


_BENCH_CACHE: Dict[Tuple[str, Any], TestBench] = {}
"""Worker-local benches keyed by (module serial, simulation config).

Rebuilding a bench from its catalog spec costs more than most shards;
with a persistent pool the same worker sees the same modules over and
over, so benches are cached for the process lifetime.  A cached bench
is reset to the baseline environment before reuse, which -- because
the thermal controller settles exactly and all trial noise is keyed
by measurement context, never execution history -- makes it
indistinguishable from a freshly built one.
"""

_BENCH_CACHE_LIMIT = 32


def _bench_for_section(section: Dict[str, Any]) -> Tuple[TestBench, bool]:
    """A (possibly cached) bench for one slice section; True when reused."""
    key = (section["serial"], section["config"])
    bench = _BENCH_CACHE.get(key)
    if bench is not None:
        # Same starting point as a fresh build: baseline environment,
        # applied before any chaos harness goes in (a fresh bench's
        # constructor drives the same settings pre-harness).
        bench.reset_environment()
        return bench, True
    bench = TestBench.for_spec(
        section["spec"], section["instance"], config=section["config"]
    )
    while len(_BENCH_CACHE) >= _BENCH_CACHE_LIMIT:
        _BENCH_CACHE.pop(next(iter(_BENCH_CACHE)))
    _BENCH_CACHE[key] = bench
    return bench, False


def _write_masks(outcomes: List[TaskOutcome], payload: Dict[str, Any]) -> None:
    """Write packed final masks into the shard's shared-memory window.

    Each task owns a fixed packed-word slot, so a shard re-executed
    after a pool rebuild overwrites it with identical bits.
    """
    layout: Dict[int, Tuple[int, int]] = payload["mask_layout"]
    shm = shared_memory.SharedMemory(name=payload["mask_shm"])
    words_view = np.ndarray((shm.size // 8,), dtype=np.uint64, buffer=shm.buf)
    for outcome in outcomes:
        offset, words = layout[outcome.index]
        packed = bitplane.pack_matrix(np.asarray(outcome.mask, dtype=bool))
        words_view[offset:offset + words] = packed
    del words_view
    shm.close()


def _run_slice(
    payload: Dict[str, Any],
) -> Tuple[
    Optional[OutcomeColumns], Dict[str, Any], Dict[str, int], Optional[Exception]
]:
    """Worker entry point: run one contiguous slice of a plan.

    Module-level so it pickles under the default process start method.
    A slice spans one or more bench *sections* -- the payload carries a
    section table (spec/serial/config/chaos per bench) plus the slice's
    task specs as one :class:`~repro.engine.columnar.TaskColumns`
    message, so a dispatch amortizes its round-trip, bench
    rebuild/fingerprint check, and chaos-harness install over many
    tasks instead of paying them per bench shard.  Each bench's tasks
    run fused (:func:`run_tasks_fused`).

    Results come back *columnar* too: masks go into the parent's
    shared-memory window (when one is attached) and everything else is
    packed into :class:`~repro.engine.columnar.OutcomeColumns`, so the
    pickle channel carries a few flat arrays instead of per-trial
    Python objects.  Alongside travel a stats dict (busy time,
    worker-side APA programs, stage timings, bench reuses, tasks run),
    the per-kind chaos faults the local harnesses injected, and any
    *transient* error the slice died of.  Transient errors travel back
    as data rather than through ``future.result()`` so the parent can
    credit the injected faults to its ``max_faults_per_kind`` ledger
    before re-raising -- a slice that faulted and raised would
    otherwise never be accounted, and a rate-keyed chaotic campaign
    would retry against an undiminished fault budget forever.
    """
    if payload.get("kill_worker"):
        # Chaos proof load: this slice's worker dies abruptly, the way
        # an OOM kill or segfault would -- no exception, no cleanup.
        os._exit(86)
    started = time.perf_counter()
    sections: List[Dict[str, Any]] = payload["sections"]
    tasks = unpack_tasks(
        payload["tasks"], [section["serial"] for section in sections]
    )
    by_slot: Dict[int, List[TrialTask]] = {}
    for task in tasks:
        by_slot.setdefault(task.bench_index, []).append(task)
    outcomes: List[TaskOutcome] = []
    stats: Dict[str, Any] = {
        "apa_programs": 0,
        "stages": {},
        "bench_reuses": 0,
        "tasks_run": 0,
    }
    injected: Dict[str, int] = {}
    error: Optional[Exception] = None
    point: OperatingPoint = payload["point"]
    for slot in sorted(by_slot):
        section = sections[slot]
        bench, reused = _bench_for_section(section)
        if reused:
            stats["bench_reuses"] += 1
        harness: Optional[ChaosHarness] = None
        if section["chaos"] is not None:
            harness = ChaosHarness(section["chaos"])
            harness.install(bench)
        try:
            if payload["apply_environment"]:
                bench.set_temperature(point.temperature_c)
                bench.set_vpp(point.vpp)
            scratch = EngineMetrics(executor="slice")
            outcomes.extend(
                run_tasks_fused(
                    payload["kernel"], point, payload["checkpoints"],
                    bench, by_slot[slot], scratch,
                )
            )
            stats["apa_programs"] += scratch.apa_programs
            for stage, seconds in scratch.stages.items():
                stats["stages"][stage] = (
                    stats["stages"].get(stage, 0.0) + seconds
                )
            stats["tasks_run"] += len(by_slot[slot])
        except TransientInfrastructureError as exc:
            error = exc
        finally:
            if harness is not None:
                for kind, count in harness.engine.stats.injected.items():
                    if count:
                        injected[kind] = injected.get(kind, 0) + count
                harness.uninstall()
        if error is not None:
            break
    columns: Optional[OutcomeColumns] = None
    if error is None:
        if payload.get("mask_shm") is not None:
            _write_masks(outcomes, payload)
            columns = pack_outcomes(outcomes, include_masks=False)
        else:
            columns = pack_outcomes(outcomes, include_masks=True)
    stats["busy_s"] = time.perf_counter() - started
    return columns, stats, injected, error


class _PendingPlan:
    """One plan moving through prepare -> slice -> execute -> finalize."""

    __slots__ = (
        "plan", "started", "delta", "sections", "section_tasks",
        "run_tasks", "served", "keys", "cache_before", "all_served",
        "shm", "layout", "execute_started", "shard_columns", "error",
    )

    def __init__(self, plan: TrialPlan, started: float) -> None:
        self.plan = plan
        self.started = started
        self.delta: Optional[EngineMetrics] = None
        self.sections: List[Dict[str, Any]] = []
        """Per-bench rebuild recipes (spec/instance/serial/config/chaos)."""
        self.section_tasks: List[List[TrialTask]] = []
        """Tasks per section, parallel to ``sections``, in plan order."""
        self.run_tasks: List[TrialTask] = []
        self.served: List[TaskOutcome] = []
        self.keys: Optional[Dict[int, str]] = None
        self.cache_before: Optional[Dict[str, int]] = None
        self.all_served = False
        self.shm: Optional[shared_memory.SharedMemory] = None
        self.layout: Dict[int, Tuple[int, int]] = {}
        self.execute_started: float = started
        self.shard_columns: Dict[int, Tuple[OutcomeColumns, float]] = {}
        self.error: Optional[Exception] = None


MAX_POOL_RESTARTS = 2
"""Pool rebuilds per batch before the survivors run in-process."""

DISPATCH_TARGET_S = 0.05
"""Minimum estimated compute per dispatch; slices are sized so each
round-trip amortizes over at least this much work (0 disables the
adaptation)."""


class ProcessPoolExecutor(ExecutorBase):
    """Shards a plan's tasks across benches and runs them fused in processes.

    Workers rebuild each bench from its catalog spec (``module.spec``),
    which is what makes the shards picklable; benches built by hand
    around a bare :class:`~repro.dram.module.Module` cannot be shipped
    and raise :class:`~repro.errors.ExperimentError`.  When ``chaos``
    is set, each worker installs its own fault harness so fault
    injection composes with sharded execution; worker-side injection
    counts surface in ``metrics.chaos_faults_injected``, and the
    parent keeps a per-kind ledger of them so ``max_faults_per_kind``
    holds across shard re-executions (see :meth:`_worker_chaos`).

    The worker pool is *persistent*: it spins up lazily on the first
    plan (sized to the work at hand, capped at ``jobs``), is reused by
    every subsequent plan -- including a whole pipelined campaign
    through :meth:`run_many` -- and grows on demand.  ``close()`` (or
    the context-manager exit) tears it down; garbage collection does
    too, as a backstop.  Workers cache rebuilt benches between shards
    and reset them to the baseline environment on reuse, which the
    exact thermal settle makes bit-identical to a fresh rebuild.

    The pool is also *supervised*: a worker that dies mid-shard (the
    pool surfaces it as ``BrokenProcessPool``) does not sink the plan.
    The dead worker's unfinished shards are re-issued onto a rebuilt
    pool -- safe because every trial's noise is keyed by measurement
    context, never execution history, so re-running a shard lands on
    identical bits -- and after :data:`MAX_POOL_RESTARTS` rebuilds the
    survivors run in-process, one slice at a time.
    """

    name = "fused-parallel"
    supports_pipelining = True

    def __init__(
        self,
        jobs: Optional[int] = None,
        chaos: Optional[ChaosConfig] = None,
        cache: Optional[TrialCache] = None,
    ) -> None:
        super().__init__(cache=cache)
        self.jobs = jobs
        self.chaos = chaos
        self._task_cost_ema: Optional[float] = None
        """Exponential moving average of observed per-task worker
        seconds, feeding the adaptive slice sizing."""
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._kills_done: set = set()
        """Module serials whose one-shot chaos worker-kill already fired."""
        self._faults_spent: Dict[str, int] = {}
        """Worker-injected faults per kind, accumulated across every
        plan this executor has run -- the parent-side ledger that makes
        ``max_faults_per_kind`` hold across shard re-executions."""
        self._chaos_epoch = 0
        """Plan-run counter salting the worker chaos schedule, so a
        retried shard does not deterministically replay the exact
        fault sequence that just failed it."""

    # -- pool lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spin the worker pool up eagerly (it is lazy otherwise)."""
        self._ensure_pool(self._pool_target())

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent).

        The pool reference is detached before the shutdown call, so a
        second ``close()`` -- or ``close()`` from an interrupt handler
        racing the context-manager exit -- is a no-op rather than a
        double shutdown.  In-flight futures are cancelled; running
        shards are waited out, never killed mid-write.
        """
        pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _pool_target(self) -> int:
        return max(1, self.jobs or available_cpu_count())

    def _ensure_pool(self, need: int) -> concurrent.futures.ProcessPoolExecutor:
        """The persistent pool, created lazily and grown by recreation."""
        want = max(1, min(self._pool_target(), need))
        if self._pool is not None:
            if self._pool_workers >= want:
                self.metrics.pool_reuses += 1
                return self._pool
            self.close()
        self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=want)
        self._pool_workers = want
        return self._pool

    # -- plan execution -------------------------------------------------------

    def _run(self, plan: TrialPlan) -> PlanResult:
        pending = self._prepare(plan, manage_cache=False)
        try:
            self._execute_batch([pending])
        except BaseException:
            self._release(pending)
            raise
        return self._finalize(pending)

    def run_many(
        self,
        plans: Sequence[TrialPlan],
        on_result: Optional[
            Callable[[int, Union[PlanResult, Exception]], None]
        ] = None,
    ) -> List[Union[PlanResult, Exception]]:
        """Pipelined execution: one task stream over the shared pool.

        Every plan is prepared up front, all shards are submitted as a
        single supervised stream (so the pool stays saturated across
        plan boundaries), and results are finalized strictly in plan
        order -- a failing plan surfaces as its exception without
        disturbing its neighbours.

        With ``on_result`` set, each plan is finalized and streamed to
        the caller as soon as its last shard lands (still strictly in
        plan order), instead of after the whole batch drains -- so a
        crash mid-batch loses only plans whose results were never
        delivered.  Exceptions the callback raises abort the batch:
        in-flight shards are abandoned, shared memory is released, and
        the exception propagates.
        """
        batch_started = time.perf_counter()
        pendings: List[_PendingPlan] = []
        for plan in plans:
            try:
                pending = self._prepare(
                    plan, manage_cache=self.cache is not None
                )
            except Exception as exc:
                pending = _PendingPlan(plan, time.perf_counter())
                pending.error = exc
            pendings.append(pending)
        order = {id(pending): index for index, pending in enumerate(pendings)}
        settled: Dict[int, Union[PlanResult, Exception]] = {}
        next_emit = [0]

        def settle(pending: _PendingPlan) -> None:
            index = order[id(pending)]
            if index in settled:
                return
            try:
                settled[index] = self._finalize(pending)
            except Exception as exc:
                settled[index] = exc
            while next_emit[0] in settled:
                if on_result is not None:
                    on_result(next_emit[0], settled[next_emit[0]])
                next_emit[0] += 1

        live = [p for p in pendings if p.error is None and p.sections]
        # Per-plan wall/execute windows overlap across a pipelined
        # batch; merging them all would multi-count the same seconds
        # (a 2 s batch of 60 plans once reported 129 s of wall).  Plans
        # keep their own windows in their PlanResult deltas, but the
        # cumulative metrics take exactly one batch-level window.
        self._merge_skip_windows = True
        execute_started = time.perf_counter()
        try:
            try:
                # Plans that never reach the pool (prepare errors, fully
                # cache-served) settle up front so their stream position
                # never blocks a later live plan's delivery.
                for pending in pendings:
                    if pending not in live:
                        settle(pending)
                if live:
                    self._execute_batch(live, on_complete=settle)
            except BaseException:
                for pending in pendings:
                    self._release(pending)
                raise
            for pending in pendings:
                settle(pending)
        finally:
            self._merge_skip_windows = False
            now = time.perf_counter()
            if live:
                self.metrics.execute_s += now - execute_started
            self.metrics.wall_s += now - batch_started
        return [settled[index] for index in range(len(pendings))]

    def _prepare(self, plan: TrialPlan, manage_cache: bool) -> _PendingPlan:
        """Cache split, environment, bench sections, and the mask window."""
        pending = _PendingPlan(plan, time.perf_counter())
        run_tasks = list(plan.tasks)
        if manage_cache and self.cache is not None:
            cache = self.cache
            pending.cache_before = cache.counters()
            ptoken = point_token(plan.point)
            checkpoints = tuple(plan.checkpoints)
            pending.keys = {}
            missing: List[TrialTask] = []
            for task in plan.tasks:
                config = plan.benches[task.bench_index].module.config
                key = cache.key_for(
                    config, plan.kernel, ptoken, task, checkpoints
                )
                pending.keys[task.index] = key
                outcome = cache.load(key, task)
                if outcome is None:
                    missing.append(task)
                else:
                    pending.served.append(outcome)
            if not missing:
                pending.all_served = True
                return pending
            run_tasks = missing
        pending.run_tasks = run_tasks
        self._chaos_epoch += 1
        delta = EngineMetrics(executor=self.name)
        pending.delta = delta
        # Drive the local benches too, so the rig observable to the
        # caller ends in the same state a serial run would leave.
        self._apply_environment(plan, delta)
        shards: Dict[int, List[TrialTask]] = {}
        for task in run_tasks:
            shards.setdefault(task.bench_index, []).append(task)
        for bench_index in sorted(shards):
            bench = plan.benches[bench_index]
            module = bench.module
            if module.spec is None:
                raise ExperimentError(
                    "fused-parallel executor requires catalog-built benches; "
                    f"module {module.serial!r} has no spec to rebuild from"
                )
            serial = module.serial
            instance = (
                int(serial.rsplit("#", 1)[1]) if "#" in serial else 0
            )
            kill_worker = (
                self.chaos is not None
                and serial in self.chaos.worker_kill_serials
                and serial not in self._kills_done
            )
            if kill_worker:
                self._kills_done.add(serial)
            pending.sections.append(
                {
                    "spec": module.spec,
                    "instance": instance,
                    "serial": serial,
                    "config": module.config,
                    "chaos": self._worker_chaos(serial),
                    "kill_worker": kill_worker,
                }
            )
            pending.section_tasks.append(shards[bench_index])
        if pending.sections:
            # Slices hand their masks back through one preallocated
            # shared-memory window instead of the pickle channel; each
            # task owns a fixed packed-word slot, so a slice re-executed
            # after a pool rebuild overwrites it with identical bits.
            offset = 0
            for task in run_tasks:
                words = bitplane.words_for(task.cells)
                pending.layout[task.index] = (offset, words)
                offset += words
            pending.shm = shared_memory.SharedMemory(
                create=True, size=max(8, offset * 8)
            )
        pending.execute_started = time.perf_counter()
        return pending

    def _build_slices(self, pending: _PendingPlan) -> List[Dict[str, Any]]:
        """Chunk one plan's prepared work into contiguous slice payloads.

        The flattened (section, task) stream is cut into at most
        ``workers`` contiguous slices -- one dispatch per worker is the
        O(workers) round-trip floor, versus the old payload-per-bench
        shape that paid a pool round-trip for every shard.  Once a
        per-task cost estimate exists (EMA over observed worker busy
        seconds, see :meth:`_harvest`), the slice count also adapts
        *downward* so every dispatch carries at least
        :data:`DISPATCH_TARGET_S` of estimated compute: tiny plans collapse
        toward a single dispatch instead of fanning out work that costs
        less than its own round-trip.

        Each payload carries a slice-local section table (bench rebuild
        recipes for just the benches the slice touches) and the slice's
        tasks as one :class:`~repro.engine.columnar.TaskColumns`
        message; tasks reference sections by slot, so the worker
        rebuilds/fingerprint-checks each bench once per slice.
        """
        flat: List[Tuple[int, TrialTask]] = []
        for section_index, tasks in enumerate(pending.section_tasks):
            for task in tasks:
                flat.append((section_index, task))
        if not flat:
            return []
        delta = pending.delta
        assert delta is not None
        total = len(flat)
        n_slices = max(1, min(self._pool_target(), total))
        if self._task_cost_ema and DISPATCH_TARGET_S > 0:
            affordable = int(total * self._task_cost_ema / DISPATCH_TARGET_S)
            n_slices = max(1, min(n_slices, affordable))
        base, extra = divmod(total, n_slices)
        payloads: List[Dict[str, Any]] = []
        cursor = 0
        for slice_index in range(n_slices):
            size = base + (1 if slice_index < extra else 0)
            chunk = flat[cursor:cursor + size]
            cursor += size
            if not chunk:
                continue
            slot_of: Dict[int, int] = {}
            sections: List[Dict[str, Any]] = []
            slots: List[int] = []
            tasks: List[TrialTask] = []
            kill = False
            for section_index, task in chunk:
                slot = slot_of.get(section_index)
                if slot is None:
                    section = pending.sections[section_index]
                    slot = len(sections)
                    slot_of[section_index] = slot
                    sections.append(section)
                    kill = kill or bool(section["kill_worker"])
                slots.append(slot)
                tasks.append(task)
            columns = pack_tasks(tasks, slots)
            payload: Dict[str, Any] = {
                "sections": sections,
                "tasks": columns,
                "kernel": pending.plan.kernel,
                "point": pending.plan.point,
                "checkpoints": tuple(pending.plan.checkpoints),
                "apply_environment": pending.plan.apply_environment,
                "kill_worker": kill,
                "mask_shm": None,
            }
            if pending.shm is not None:
                payload["mask_shm"] = pending.shm.name
                payload["mask_layout"] = {
                    task.index: pending.layout[task.index] for task in tasks
                }
            delta.dispatches += 1
            delta.bytes_shipped_down += columns.nbytes()
            payloads.append(payload)
        delta.workers = max(1, min(self._pool_target(), len(payloads)))
        return payloads

    def _execute_batch(
        self,
        pendings: List[_PendingPlan],
        on_complete: Optional[Callable[[_PendingPlan], None]] = None,
    ) -> None:
        """Run every pending plan's slices to completion, supervised.

        All slices share one job stream over the persistent pool.
        Per-plan accounting (resharded tasks, chaos faults) lands in
        each owner's delta; whole-batch events (pool rebuilds) are
        credited once -- to the single owner's delta when one plan runs
        alone (the historical shape), or straight to the cumulative
        metrics for a pipelined batch.

        ``on_complete`` fires the moment a plan has no outstanding
        slices left -- every slice harvested, or the plan abandoned on
        its first error -- which is what lets :meth:`run_many` stream
        finalized plans mid-batch.
        """
        jobs: Dict[int, Tuple[_PendingPlan, Dict[str, Any]]] = {}
        for pending in pendings:
            for payload in self._build_slices(pending):
                jobs[len(jobs)] = (pending, payload)
        if not jobs:
            return
        outstanding: Dict[int, int] = {}
        for owner, _ in jobs.values():
            outstanding[id(owner)] = outstanding.get(id(owner), 0) + 1

        def job_settled(owner: _PendingPlan) -> None:
            outstanding[id(owner)] -= 1
            if outstanding[id(owner)] == 0 and on_complete is not None:
                on_complete(owner)
        batch_extra = (
            pendings[0].delta
            if len(pendings) == 1
            else EngineMetrics(executor=self.name)
        )
        assert batch_extra is not None
        pending_jobs = dict(jobs)
        restarts = 0
        while pending_jobs:
            if restarts > MAX_POOL_RESTARTS:
                # Out of pool rebuilds: finish the survivors one by one
                # in-process (the kill flag must not reach this path,
                # or os._exit would take down the campaign itself).
                for index in sorted(pending_jobs):
                    owner, payload = pending_jobs[index]
                    if owner.error is None:
                        try:
                            owner.shard_columns[index] = self._harvest(
                                _run_slice(dict(payload, kill_worker=False)),
                                owner.delta,
                            )
                        except TransientInfrastructureError as exc:
                            owner.error = exc
                    job_settled(owner)
                pending_jobs.clear()
                break
            broke = False
            pool = self._ensure_pool(len(pending_jobs))
            try:
                future_job: Dict[concurrent.futures.Future, int] = {}
                for index in sorted(pending_jobs):
                    future_job[
                        pool.submit(_run_slice, pending_jobs[index][1])
                    ] = index
                active = set(future_job)
                while active:
                    done, _ = concurrent.futures.wait(
                        active, return_when=concurrent.futures.FIRST_COMPLETED
                    )
                    round_failed = False
                    for future in done:
                        active.discard(future)
                        index = future_job[future]
                        owner = pending_jobs[index][0]
                        try:
                            harvested = self._harvest(
                                future.result(), owner.delta
                            )
                        except concurrent.futures.process.BrokenProcessPool:
                            raise
                        except Exception as exc:
                            # Keep harvesting (and crediting) the rest
                            # of this round before the owner's failure
                            # takes effect.
                            if owner.error is None:
                                owner.error = exc
                            round_failed = True
                            continue
                        owner.shard_columns[index] = harvested
                        del pending_jobs[index]
                        job_settled(owner)
                    if round_failed:
                        # Abandon every remaining shard of each failed
                        # plan; sibling plans keep running.
                        abandoned = {
                            index
                            for index, (owner, _) in pending_jobs.items()
                            if owner.error is not None
                        }
                        for future in list(active):
                            if future_job[future] in abandoned:
                                future.cancel()
                                active.discard(future)
                        for index in abandoned:
                            owner, _payload = pending_jobs.pop(index)
                            job_settled(owner)
            except concurrent.futures.process.BrokenProcessPool:
                broke = True
                self.close()  # discard the broken pool
            if broke:
                restarts += 1
                batch_extra.pool_restarts += 1
                for owner, payload in pending_jobs.values():
                    owner.delta.tasks_resharded += len(payload["tasks"])
                    # A chaos kill flag fires once: clear it before the
                    # shard is re-issued, or the rebuilt pool dies too.
                    payload["kill_worker"] = False
        if len(pendings) > 1:
            self.metrics.merge(batch_extra)

    def _finalize(self, pending: _PendingPlan) -> PlanResult:
        """Unpack, account, cache-store, and commit one plan, in order."""
        plan = pending.plan
        cache = self.cache if pending.keys is not None else None
        try:
            if pending.error is not None:
                raise pending.error
            if pending.all_served:
                delta = EngineMetrics(executor=self.name, workers=1)
                delta.plans += 1
                delta.wall_s += time.perf_counter() - pending.started
                self.metrics.merge(
                    delta, skip_windows=self._merge_skip_windows
                )
                outcomes = sorted(
                    pending.served, key=lambda outcome: outcome.index
                )
                result = PlanResult(
                    plan_name=plan.name, outcomes=outcomes, metrics=delta
                )
            else:
                delta = pending.delta
                assert delta is not None
                fresh: List[TaskOutcome] = []
                words_view = None
                if pending.shm is not None:
                    words_view = np.ndarray(
                        (pending.shm.size // 8,),
                        dtype=np.uint64,
                        buffer=pending.shm.buf,
                    )
                try:
                    for index in sorted(pending.shard_columns):
                        columns, busy_s = pending.shard_columns[index]
                        delta.busy_s += busy_s
                        fresh.extend(
                            unpack_outcomes(
                                columns,
                                words_view=words_view,
                                layout=(
                                    pending.layout
                                    if words_view is not None
                                    else None
                                ),
                            )
                        )
                finally:
                    del words_view
                for task in pending.run_tasks:
                    delta.tasks += 1
                    delta.trials += task.trials
                    delta.cells += task.cells
                delta.execute_s += time.perf_counter() - pending.execute_started
                if cache is not None:
                    for outcome in fresh:
                        cache.store(
                            pending.keys[outcome.index], outcome,
                            origin=self.name,
                        )
                    sub = self._finish(plan, delta, fresh, pending.started)
                    outcomes = sorted(
                        pending.served + sub.outcomes,
                        key=lambda outcome: outcome.index,
                    )
                    result = PlanResult(
                        plan_name=plan.name, outcomes=outcomes, metrics=delta
                    )
                else:
                    result = self._finish(plan, delta, fresh, pending.started)
            if cache is not None:
                after = cache.counters()
                for field in _CACHE_COUNTER_FIELDS:
                    gained = after[field] - pending.cache_before[field]
                    setattr(delta, field, getattr(delta, field) + gained)
                    setattr(
                        self.metrics, field,
                        getattr(self.metrics, field) + gained,
                    )
            return result
        finally:
            self._release(pending)

    @staticmethod
    def _release(pending: _PendingPlan) -> None:
        """Free the plan's shared-memory mask window (idempotent)."""
        shm, pending.shm = pending.shm, None
        if shm is not None:
            shm.close()
            shm.unlink()

    _RATE_FIELDS = {
        FaultKind.PROGRAM_DROP: "program_drop_rate",
        FaultKind.READBACK_CORRUPTION: "readback_corruption_rate",
        FaultKind.THERMAL_EXCURSION: "thermal_excursion_rate",
        FaultKind.VPP_BROWNOUT: "vpp_brownout_rate",
    }

    def _worker_chaos(self, serial: str) -> Optional[ChaosConfig]:
        """The chaos profile one shard's worker should install.

        Worker harnesses are rebuilt per shard, so two properties the
        serial harness gets for free must be restored here:

        - **caps persist**: a fault kind whose accumulated worker-side
          injections have reached ``max_faults_per_kind`` is shipped
          with rate 0, so a retried plan eventually runs fault-free
          and a chaotic campaign converges;
        - **schedules advance**: the seed is salted with a per-plan
          epoch (and the shard's serial), so a retried shard does not
          deterministically replay the exact fault sequence that just
          failed it.

        Target-keyed faults (bench failures, worker kills) are
        unaffected: they ignore the seed and are capped elsewhere.
        """
        chaos = self.chaos
        if chaos is None:
            return None
        rated = [
            field
            for field in self._RATE_FIELDS.values()
            if getattr(chaos, field) > 0.0
        ]
        if not rated:
            return chaos
        overrides: Dict[str, Any] = {}
        cap = chaos.max_faults_per_kind
        if cap is not None:
            for kind, field in self._RATE_FIELDS.items():
                if (
                    field in rated
                    and self._faults_spent.get(kind.value, 0) >= cap
                ):
                    overrides[field] = 0.0
        salt = rng.generator(
            "worker-chaos", chaos.seed, self._chaos_epoch, serial
        )
        overrides["seed"] = int(salt.integers(0, 2**31))
        return replace(chaos, **overrides)

    def _harvest(
        self,
        shard: Tuple[
            Optional[OutcomeColumns],
            Dict[str, Any],
            Dict[str, int],
            Optional[Exception],
        ],
        delta: EngineMetrics,
    ) -> Tuple[OutcomeColumns, float]:
        """Account one finished shard, re-raising its transient error.

        The fault ledger is credited *before* the raise so that a
        retried plan runs against a diminished budget -- the property
        that makes chaotic parallel campaigns converge.
        """
        columns, stats, injected, error = shard
        delta.chaos_faults_injected += sum(injected.values())
        for kind, count in injected.items():
            self._faults_spent[kind] = self._faults_spent.get(kind, 0) + count
        if error is not None:
            raise error
        delta.apa_programs += stats.get("apa_programs", 0)
        for stage, seconds in stats.get("stages", {}).items():
            delta.add_stage(stage, seconds)
        delta.worker_bench_reuses += stats.get("bench_reuses", 0)
        delta.bytes_shipped += columns.nbytes()
        tasks_run = int(stats.get("tasks_run", 0))
        if tasks_run:
            # Adaptive slice sizing input: observed per-task worker
            # seconds, smoothed so one outlier slice cannot whipsaw
            # the next plan's dispatch count.
            per_task = stats["busy_s"] / tasks_run
            if self._task_cost_ema is None:
                self._task_cost_ema = per_task
            else:
                self._task_cost_ema = (
                    0.5 * self._task_cost_ema + 0.5 * per_task
                )
        return columns, stats["busy_s"]


class FusedExecutor(ExecutorBase):
    """Evaluates whole plans as fused array programs over bit-planes.

    Per task it probes ONE APA program through the bench (resolved
    from the bank's decision table; also the point where chaos faults
    can fire).  Per bench, every task whose probed semantic the kernel
    fuses has its (site x row-group x trial) keyed draws gathered into
    a handful of block RNG calls
    (``ReliabilityModel.context_noise_block``, and
    ``DataPattern.row_bits_block`` for the pattern rows the bench
    host's memo has not drawn yet), and the trials-to-mask reduction
    runs over packed uint64 bit-planes (:mod:`repro.engine.bitplane`).
    Any other task (wrong timing regime, blocked vendor) falls back to
    the per-trial reference path.  Both paths key their noise off the
    same measurement context, so the executor is bit-identical to
    :class:`SerialExecutor` -- it just makes orders of magnitude fewer
    RNG and bench round trips.
    """

    name = "fused"

    def _run(self, plan: TrialPlan) -> PlanResult:
        started = time.perf_counter()
        delta = EngineMetrics(executor=self.name, workers=1)
        self._apply_environment(plan, delta)
        execute_started = time.perf_counter()
        shards: Dict[int, List[TrialTask]] = {}
        for task in plan.tasks:
            shards.setdefault(task.bench_index, []).append(task)
            delta.tasks += 1
            delta.trials += task.trials
            delta.cells += task.cells
        outcomes: List[TaskOutcome] = []
        for bench_index in sorted(shards):
            bench = plan.benches[bench_index]
            outcomes.extend(
                run_tasks_fused(
                    plan.kernel, plan.point, plan.checkpoints,
                    bench, shards[bench_index], delta,
                )
            )
        delta.execute_s += time.perf_counter() - execute_started
        delta.busy_s = delta.execute_s
        return self._finish(plan, delta, outcomes, started)


def make_executor(
    name: Optional[str],
    jobs: Optional[int] = None,
    chaos: Optional[ChaosConfig] = None,
    cache: Optional[TrialCache] = None,
) -> ExecutorBase:
    """Build an executor from a CLI-style name."""
    if name in (None, "serial"):
        return SerialExecutor(cache=cache)
    if name == "fused":
        return FusedExecutor(cache=cache)
    if name == "fused-parallel":
        return ProcessPoolExecutor(jobs=jobs, chaos=chaos, cache=cache)
    raise ExperimentError(
        f"unknown executor {name!r}; choose serial, fused, or fused-parallel"
    )


def run_plan(plan: TrialPlan, executor: Optional[ExecutorBase] = None) -> PlanResult:
    """Run a plan on the given executor (default: a fresh serial one)."""
    return (executor or SerialExecutor()).run(plan)
