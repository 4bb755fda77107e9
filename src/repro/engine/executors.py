"""Pluggable executors for :class:`~repro.engine.plan.TrialPlan`.

Two strategies, one contract: for a given plan and simulation seed,
every executor produces bit-identical task outcomes (and therefore
bit-identical :class:`~repro.characterization.stats.DistributionSummary`
results).  The serial executor is the reference: every trial runs
through the full bench.  The fused executor evaluates whole plans as
packed bit-plane math, gated by a per-task APA semantic probe so the
fused math only runs in the regimes it reproduces; the process-pool
executor runs the same fused evaluation sliced across worker
processes, rebuilding each bench from its catalog spec in the worker.

The process-pool executor additionally owns *persistent* workers:
they start lazily on first use, survive across plans (and across
experiments, when driven by
:class:`~repro.engine.scheduler.CampaignScheduler` through
:meth:`ExecutorBase.run_many`), and are shut down by ``close()`` / the
context-manager exit.  Slices of the batch's task stream travel to
them, and outcomes back, as columnar frames over one socket protocol
(:mod:`repro.engine.fleet`).

Chaos is one schedule for all three: each executor decides a plan's
rig faults -- the environment step per bench, then one link site per
task (:func:`decide_sites`) -- before any of its tasks run, on the
campaign's harnessed benches and in plan order.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import select
import signal
import socket
import time
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

from ..bender.program import apa_program
from ..bender.testbench import TestBench
from ..chaos import ChaosConfig, ChaoticBender
from ..config import SimulationConfig
from ..errors import ExperimentError
from . import bitplane
from .columnar import OutcomeColumns, TaskColumns, pack_tasks, unpack_outcomes
from .kernels import TrialKernel, point_token
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


def decide_sites(plan: TrialPlan) -> List[ChaoticBender]:
    """Decide the link faults of every task site of ``plan``.

    A task is one site: its chaotic link is consulted once, in plan
    order (which :func:`~repro.engine.plan.tasks_for_scope` makes
    bench-major), and the first fault raises, so no later site of the
    plan is consulted.  Every executor calls this before the plan's
    tasks run, so the order never depends on how they run.  Returns the
    plan's chaotic links -- empty on a clean rig, which costs one pass
    over the benches.
    """
    links = [bench.bender for bench in plan.benches]
    chaotic = [link for link in links if isinstance(link, ChaoticBender)]
    if chaotic:
        for task in plan.tasks:
            link = links[task.bench_index]
            if isinstance(link, ChaoticBender):
                link.decide_site()
    return chaotic


class ExecutorBase:
    """Shared surface: ``run(plan) -> PlanResult`` plus cumulative metrics.

    ``run`` executes the plan on the concrete executor; every executor
    is bit-identical to :class:`SerialExecutor`, the reference.

    Executors also expose an explicit lifecycle -- ``start()`` /
    ``close()`` / context manager.  In-process executors hold no
    external resources, so the default hooks are no-ops; the
    process-pool executor uses them to manage its persistent worker
    pool (creation stays lazy either way).
    """

    name = "base"

    def __init__(self) -> None:
        self.metrics = EngineMetrics(executor=self.name)
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
        """Execute one plan; each executor implements ``_run``.

        ``run`` lives on this class alone, so wrapping
        ``ExecutorBase.run`` (as the e2e span tracer in
        ``benchmarks/e2e/tracing.py`` does) covers every executor.
        """
        return self._run(plan)

    def _run(self, plan: TrialPlan) -> PlanResult:
        raise NotImplementedError

    def run_many(
        self,
        plans: Sequence[TrialPlan],
        on_result: Optional[
            Callable[[int, Union[PlanResult, Exception]], None]
        ] = None,
    ) -> List[Union[PlanResult, Exception]]:
        """Run plans back to back, isolating per-plan failures.

        The default implementation is strictly sequential; the
        process-pool executor overrides it to keep its workers
        saturated across plan boundaries.  The returned list is
        parallel to ``plans``: each element is the plan's
        :class:`PlanResult`, or the exception that plan died of.

        ``on_result`` streams each settled plan (index, result-or-
        exception) to the caller as soon as it is available, strictly
        in plan order -- the hook incremental campaign commits hang
        off.  A streamed result is the caller's alone: with
        ``on_result`` set the returned list is empty.  Exceptions the
        callback raises propagate to the caller (a
        ``KeyboardInterrupt`` mid-stream leaves already-streamed plans
        delivered).
        """
        results: List[Union[PlanResult, Exception]] = []
        for index, plan in enumerate(plans):
            try:
                result: Union[PlanResult, Exception] = self.run(plan)
            except Exception as exc:
                result = exc
            if on_result is None:
                results.append(result)
            else:
                on_result(index, result)
        return results

    def _apply_environment(self, plan: TrialPlan, delta: EngineMetrics) -> None:
        """Drive each bench to the plan's point: one environment site
        per bench for a chaotic rig."""
        if not plan.apply_environment:
            return
        started = time.perf_counter()
        for bench in plan.benches:
            bench.set_temperature(plan.point.temperature_c)
            bench.set_vpp(plan.point.vpp)
        delta.environment_s += time.perf_counter() - started

    @contextlib.contextmanager
    def _decided(self, plan: TrialPlan, delta: EngineMetrics) -> Iterator[None]:
        """Decide every rig fault of ``plan``, then run the body clean.

        The environment step and each task site are decided before any
        task runs (:func:`decide_sites`), so an in-process executor
        meets exactly the faults the pool decides in its parent; the
        tasks then cross their chaotic links without further checks.
        """
        self._apply_environment(plan, delta)
        links = decide_sites(plan)
        for link in links:
            link.decided = True
        try:
            yield
        finally:
            for link in links:
                link.decided = False

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
        with self._decided(plan, delta):
            execute_started = time.perf_counter()
            outcomes: List[TaskOutcome] = []
            for task in plan.tasks:
                bench = plan.benches[task.bench_index]
                outcomes.append(run_task_serial(
                    plan.kernel, plan.point, plan.checkpoints, bench, task
                ))
                delta.tasks += 1
                delta.trials += task.trials
                delta.cells += task.cells
                delta.apa_programs += task.trials
            delta.execute_s += time.perf_counter() - execute_started
        delta.busy_s = delta.execute_s
        return self._finish(plan, delta, outcomes, started)


_Segment = Tuple["_PendingPlan", Dict[str, Any], TaskColumns]
"""One plan's part of a frame: its owner, segment header and tasks."""


class _Worker:
    """Dispatcher-side handle of one forked worker: its socket and pid."""

    __slots__ = ("sock", "process")

    def __init__(self, sock: socket.socket, process: int) -> None:
        self.sock = sock
        self.process = process


class _PendingPlan:
    """One plan moving through prepare -> segment -> execute -> finalize."""

    __slots__ = (
        "plan", "started", "delta", "head", "sections", "kills",
        "section_tasks", "execute_started", "shard_columns", "error",
    )

    def __init__(self, plan: TrialPlan, started: float) -> None:
        self.plan = plan
        self.started = started
        self.delta: Optional[EngineMetrics] = None
        self.head: Dict[str, Any] = {}
        """The plan's part of every ``run-slice`` segment header
        (kernel, operating point, checkpoints) as wire specs."""
        self.sections: List[Dict[str, Any]] = []
        """Per-bench wire specs (serial and simulation config)."""
        self.kills: List[bool] = []
        """Per section: whether the chaos worker kill has yet to ride
        a segment (the first segment holding the section takes it)."""
        self.section_tasks: List[List[TrialTask]] = []
        """Tasks per section, parallel to ``sections``, in plan order."""
        self.execute_started: float = started
        self.shard_columns: List[Tuple[OutcomeColumns, float]] = []
        """Harvested (outcomes, worker busy seconds) per segment."""
        self.error: Optional[Exception] = None


DISPATCH_TARGET_S = 0.05
"""Minimum estimated compute per dispatch; slices are sized so each
round-trip amortizes over at least this much work (0 disables the
adaptation)."""

SLICES_PER_WORKER = 8
"""Most slices per worker a multi-plan batch's task stream is cut
into: enough that a worker finishing early finds more queued, few
enough that dispatch round trips stay a sliver of the batch."""

SHUTDOWN_TIMEOUT_S = 5.0
"""How long ``close()`` waits for a worker to exit before SIGKILL."""


class ProcessPoolExecutor(ExecutorBase):
    """Shards a plan's tasks across benches and runs them fused in workers.

    A batch's task stream is cut into slices (:meth:`_build_frames`),
    and each slice travels to a worker process as one ``run-slice``
    frame over a socket (:mod:`repro.engine.fleet`): wire specs
    rebuild the kernel, operating point and each bench from its catalog spec
    (``module.spec``), so benches built by hand around a bare
    :class:`~repro.dram.module.Module` cannot be shipped and raise
    :class:`~repro.errors.ExperimentError`.  Workers run no chaos
    harness: every rig fault a plan can meet is decided in this
    process while the plan is prepared (:meth:`_prepare`), against the
    campaign's harnessed benches and in the order an in-process
    executor decides them, so the pool injects exactly the faults
    ``serial`` and ``fused`` do.  A faulted plan never ships.  The
    ``chaos`` profile only names the modules whose segment kills its
    worker (``worker_kill_serials``).

    The workers are *persistent*: they are forked lazily on the first
    plan (sized to the work at hand, capped at ``jobs``), serve every
    subsequent plan -- including a whole pipelined campaign through
    :meth:`run_many` -- and are topped up on demand.  ``close()`` (or
    the context-manager exit) shuts them down; garbage collection does
    too, as a backstop.  Workers cache rebuilt benches between slices
    and reset them to the baseline environment on reuse, which the
    exact thermal settle makes bit-identical to a fresh rebuild.

    Worker death is supervised once: the dead worker's whole frame is
    re-queued onto a survivor -- safe because every trial's noise is
    keyed by measurement context, never execution history, so
    re-running a slice lands on identical bits -- and when no worker
    survives, the rest of the batch runs in-process.
    """

    name = "fused-parallel"

    def __init__(
        self,
        jobs: Optional[int] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        super().__init__()
        self.jobs = jobs
        self.chaos = chaos
        self._task_cost_ema: Optional[float] = None
        """Exponential moving average of observed per-task worker
        seconds, feeding the adaptive slice sizing."""
        self._workers: List[_Worker] = []
        self._kills_done: set = set()
        """Module serials whose one-shot chaos worker-kill already fired."""
        self._config_specs: Dict[SimulationConfig, Dict[str, Any]] = {}
        """Wire spec per simulation config: a campaign ships the same
        few configs in every section of every plan."""

    # -- workers --------------------------------------------------------------

    def start(self) -> None:
        """Start the workers eagerly (they are started lazily otherwise)."""
        self._ensure_workers(self._pool_target())

    def close(self) -> None:
        """Shut every worker down (idempotent).

        The worker list is detached first, so a second ``close()`` --
        or ``close()`` from an interrupt handler racing the
        context-manager exit -- is a no-op.
        """
        workers, self._workers = self._workers, []
        if not workers:
            return
        from .fleet import send_frame

        for worker in workers:
            with contextlib.suppress(OSError):
                send_frame(worker.sock, {"type": "shutdown"})
            worker.sock.close()
        for worker in workers:
            self._reap(worker.process, SHUTDOWN_TIMEOUT_S)

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _pool_target(self) -> int:
        return max(1, self.jobs or available_cpu_count())

    def _ensure_workers(self, need: int) -> None:
        """Top the live workers up to ``min(jobs, need)``."""
        want = max(1, min(self._pool_target(), need))
        if len(self._workers) < want:
            self._workers.extend(self._launch(want - len(self._workers)))

    def _launch(self, count: int) -> List[_Worker]:
        """Fork ``count`` workers, each serving one end of a socketpair."""
        from .fleet import serve_connection

        workers: List[_Worker] = []
        for _ in range(count):
            ours, theirs = socket.socketpair()
            pid = os.fork()
            if pid == 0:
                # The worker: serve, then leave without unwinding the
                # dispatcher's stack (or running its exit handlers).
                status = 0
                try:
                    for worker in self._workers + workers:
                        worker.sock.close()
                    ours.close()
                    serve_connection(theirs)
                except BaseException:
                    status = 1
                finally:
                    os._exit(status)
            theirs.close()
            workers.append(_Worker(ours, pid))
        for worker in workers:
            self._greet(worker.sock)
        return workers

    @staticmethod
    def _greet(sock: socket.socket) -> None:
        """Read a new worker's ``hello``."""
        from .fleet import recv_frame

        header, _ = recv_frame(sock)
        if header.get("type") != "hello":
            raise ExperimentError(
                f"worker opened with {header.get('type')!r}, expected hello"
            )

    @staticmethod
    def _reap(pid: int, timeout: float) -> None:
        """Wait for a forked worker to exit; SIGKILL it past ``timeout``."""
        deadline = time.monotonic() + timeout
        with contextlib.suppress(ChildProcessError, ProcessLookupError):
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    return
                time.sleep(0.001)

    def _drop(self, worker: _Worker, timeout: float) -> None:
        """Forget one worker: close its socket and reap its process."""
        self._workers.remove(worker)
        worker.sock.close()
        self._reap(worker.process, timeout)

    # -- plan execution -------------------------------------------------------

    def _run(self, plan: TrialPlan) -> PlanResult:
        pending = self._prepare(plan)
        self._execute_batch([pending])
        return self._finalize(pending)

    def run_many(
        self,
        plans: Sequence[TrialPlan],
        on_result: Optional[
            Callable[[int, Union[PlanResult, Exception]], None]
        ] = None,
    ) -> List[Union[PlanResult, Exception]]:
        """Pipelined execution: one task stream over the shared workers.

        Every plan is prepared up front, the plans' tasks run as a
        single supervised stream of frames that span plan boundaries
        (so the workers stay saturated and a small plan costs no round
        trip of its own), and results are finalized strictly in plan
        order -- a failing plan surfaces as its exception without
        disturbing its neighbours.

        With ``on_result`` set, each plan is finalized and streamed to
        the caller as soon as its last slice lands (still strictly in
        plan order), instead of after the whole batch drains -- so a
        crash mid-batch loses only plans whose results were never
        delivered -- and, as in :meth:`ExecutorBase.run_many`, the
        returned list is empty.  Exceptions the callback raises abort
        the batch: workers holding in-flight slices are discarded, and
        the exception propagates.
        """
        batch_started = time.perf_counter()
        pendings: List[_PendingPlan] = []
        for plan in plans:
            try:
                pending = self._prepare(plan)
            except Exception as exc:
                pending = _PendingPlan(plan, time.perf_counter())
                pending.error = exc
            pendings.append(pending)
        live = {
            index: pending
            for index, pending in enumerate(pendings)
            if pending.error is None and pending.sections
        }
        order = {id(pending): index for index, pending in live.items()}
        settled: Dict[int, Union[PlanResult, Exception]] = {}
        next_emit = [0]

        def settle(index: int) -> None:
            if index < next_emit[0] or index in settled:
                return
            try:
                settled[index] = self._finalize(pendings[index])
            except Exception as exc:
                settled[index] = exc
            while next_emit[0] in settled:
                if on_result is not None:
                    on_result(next_emit[0], settled.pop(next_emit[0]))
                next_emit[0] += 1

        # Per-plan wall/execute windows overlap across a pipelined
        # batch; merging them all would multi-count the same seconds
        # (a 2 s batch of 60 plans once reported 129 s of wall).  Plans
        # keep their own windows in their PlanResult deltas, but the
        # cumulative metrics take exactly one batch-level window.
        self._merge_skip_windows = True
        execute_started = time.perf_counter()
        try:
            # Plans that never reach a worker (prepare errors, no
            # tasks) settle up front so their stream position never
            # blocks a later live plan's delivery.
            for index in range(len(pendings)):
                if index not in live:
                    settle(index)
            if live:
                self._execute_batch(
                    list(live.values()),
                    on_complete=lambda pending: settle(order[id(pending)]),
                )
            for index in range(len(pendings)):
                settle(index)
        finally:
            self._merge_skip_windows = False
            now = time.perf_counter()
            if live:
                self.metrics.execute_s += now - execute_started
            self.metrics.wall_s += now - batch_started
        return [settled[index] for index in sorted(settled)]

    def _prepare(self, plan: TrialPlan) -> _PendingPlan:
        """Rig faults, bench sections and the plan's segment header.

        The local benches take the environment step and every task
        site is decided here, in plan order, so a faulted plan raises
        before it ships -- and the rig observable to the caller ends in
        the state a serial run would leave.
        """
        from .fleet import config_to_spec, kernel_to_spec, point_to_spec

        pending = _PendingPlan(plan, time.perf_counter())
        delta = EngineMetrics(executor=self.name)
        pending.delta = delta
        self._apply_environment(plan, delta)
        decide_sites(plan)
        shards: Dict[int, List[TrialTask]] = {}
        for task in plan.tasks:
            shards.setdefault(task.bench_index, []).append(task)
        for bench_index in sorted(shards):
            module = plan.benches[bench_index].module
            if module.spec is None:
                raise ExperimentError(
                    "fused-parallel executor requires catalog-built benches; "
                    f"module {module.serial!r} has no spec to rebuild from"
                )
            serial = module.serial
            config = self._config_specs.get(module.config)
            if config is None:
                config = self._config_specs[module.config] = config_to_spec(
                    module.config
                )
            pending.sections.append({"serial": serial, "config": config})
            kill = (
                self.chaos is not None
                and serial in self.chaos.worker_kill_serials
                and serial not in self._kills_done
            )
            if kill:
                self._kills_done.add(serial)
            pending.kills.append(kill)
            pending.section_tasks.append(shards[bench_index])
        if pending.sections:
            pending.head = {
                "kernel": kernel_to_spec(plan.kernel),
                "point": point_to_spec(plan.point),
                "checkpoints": list(plan.checkpoints),
                "apply_environment": plan.apply_environment,
            }
        pending.execute_started = time.perf_counter()
        return pending

    def _build_frames(
        self, pendings: Sequence[_PendingPlan]
    ) -> List[List[_Segment]]:
        """Cut the batch's task stream into contiguous slices, one frame each.

        Every plan's flattened (section, task) stream is joined in plan
        order and cut into ``min(tasks, workers * min(plans,
        SLICES_PER_WORKER))`` slices of near-equal task count.  A
        one-plan batch thus gets at most one slice per worker -- the
        O(workers) round-trip floor -- and a pipelined stream of
        hundreds of small plans travels in a few frames per worker
        instead of one or more per plan.  Once a per-task cost estimate
        exists (EMA over observed worker busy seconds, see
        :meth:`_harvest`), the slice count also adapts *downward* so
        every dispatch carries at least :data:`DISPATCH_TARGET_S` of
        estimated compute.

        A slice may span plan boundaries: its frame holds one segment
        per plan it touches (:meth:`_segment`).
        """
        flat = [
            (pending, section_index, task)
            for pending in pendings
            for section_index, tasks in enumerate(pending.section_tasks)
            for task in tasks
        ]
        if not flat:
            return []
        total = len(flat)
        n_slices = min(
            total,
            self._pool_target() * min(len(pendings), SLICES_PER_WORKER),
        )
        if self._task_cost_ema and DISPATCH_TARGET_S > 0:
            affordable = int(total * self._task_cost_ema / DISPATCH_TARGET_S)
            n_slices = max(1, min(n_slices, affordable))
        base, extra = divmod(total, n_slices)
        frames: List[List[_Segment]] = []
        cursor = 0
        for slice_index in range(n_slices):
            size = base + (1 if slice_index < extra else 0)
            chunk = flat[cursor:cursor + size]
            cursor += size
            runs = itertools.groupby(chunk, key=lambda item: item[0])
            frames.append([
                self._segment(owner, [item[1:] for item in run])
                for owner, run in runs
            ])
        return frames

    @staticmethod
    def _segment(
        pending: _PendingPlan, items: Sequence[Tuple[int, TrialTask]]
    ) -> _Segment:
        """One plan's part of a slice: its ``run-slice`` segment.

        The header carries a segment-local section table (just the
        benches the segment touches) and the tasks travel as one
        :class:`~repro.engine.columnar.TaskColumns` message; tasks
        reference sections by slot, so the worker rebuilds or fetches
        each bench once per segment.  A chaos worker kill rides only
        the first segment that holds its section.
        """
        slot_of: Dict[int, int] = {}
        sections: List[Dict[str, Any]] = []
        slots: List[int] = []
        tasks: List[TrialTask] = []
        kill = False
        for section_index, task in items:
            slot = slot_of.get(section_index)
            if slot is None:
                slot = slot_of[section_index] = len(sections)
                sections.append(pending.sections[section_index])
                kill = kill or pending.kills[section_index]
                pending.kills[section_index] = False
            slots.append(slot)
            tasks.append(task)
        columns = pack_tasks(tasks, slots)
        assert pending.delta is not None
        pending.delta.bytes_shipped_down += columns.nbytes()
        header = dict(pending.head, sections=sections, kill_worker=kill)
        return pending, header, columns

    def _execute_batch(
        self,
        pendings: List[_PendingPlan],
        on_complete: Optional[Callable[[_PendingPlan], None]] = None,
    ) -> None:
        """Run every pending plan's segments to completion, supervised.

        All frames share one queue over the workers, driven by a
        ``select`` loop: each idle worker takes the next frame, and
        each reply segment is harvested into its owner plan.  A worker
        that dies (EOF or a socket error) takes nothing with it: its
        whole frame goes back to the front of the queue for a
        survivor, and once no worker survives the rest of the queue
        runs in-process.  Per-plan accounting (resharded tasks) lands
        in each owner's delta; frames, the workers that
        received one, and worker deaths are batch facts, credited once
        -- to the single owner's delta when one plan runs alone, or
        straight to the cumulative metrics for a pipelined batch.

        ``on_complete`` fires the moment a plan has no outstanding
        segments left -- every segment harvested, or the plan
        abandoned on its first error -- which is what lets
        :meth:`run_many` stream finalized plans mid-batch.  Idle
        workers are refilled before the callbacks run, so a slow
        commit never starves them.
        """
        from .fleet import recv_columns, send_columns, serve_slice

        frames = self._build_frames(pendings)
        if not frames:
            return
        outstanding: Dict[int, int] = {}
        for frame in frames:
            for owner, _, _ in frame:
                outstanding[id(owner)] = outstanding.get(id(owner), 0) + 1
        done: List[_PendingPlan] = []
        batch_extra = (
            pendings[0].delta
            if len(pendings) == 1
            else EngineMetrics(executor=self.name)
        )
        assert batch_extra is not None
        queue = collections.deque(range(len(frames)))
        in_flight: Dict[_Worker, int] = {}
        reached: set = set()  # pids of workers that received a frame

        def settle(owner: _PendingPlan, reply) -> None:
            try:
                owner.shard_columns.append(self._harvest(reply, owner.delta))
            except Exception as exc:
                if owner.error is None:
                    owner.error = exc
            done.append(owner)

        def requeue(worker: _Worker, index: int) -> None:
            self._drop(worker, SHUTDOWN_TIMEOUT_S)
            batch_extra.worker_deaths += 1
            # A chaos kill fires once: clear it before the frame is
            # re-issued, or the survivor dies too.
            frames[index] = [
                (owner, dict(header, kill_worker=False), columns)
                for owner, header, columns in frames[index]
            ]
            for owner, _, columns in frames[index]:
                owner.delta.tasks_resharded += len(columns)
            queue.appendleft(index)

        def live_segments(index: int) -> List[_Segment]:
            """The frame minus segments abandoned with their plans."""
            for owner, _, _ in frames[index]:
                if owner.error is not None:
                    done.append(owner)
            frames[index] = [s for s in frames[index] if s[0].error is None]
            return frames[index]

        def dispatch() -> None:
            idle = [w for w in self._workers if w not in in_flight]
            while queue and idle:
                index = queue.popleft()
                frame = live_segments(index)
                if not frame:
                    continue
                worker = idle.pop(0)
                try:
                    send_columns(
                        worker.sock,
                        {"type": "run-slice"},
                        [(header, columns) for _, header, columns in frame],
                    )
                except OSError:
                    requeue(worker, index)
                    continue
                batch_extra.dispatches += 1
                reached.add(worker.process)
                in_flight[worker] = index

        def complete() -> None:
            while done:
                owner = done.pop(0)
                outstanding[id(owner)] -= 1
                if outstanding[id(owner)] == 0 and on_complete is not None:
                    on_complete(owner)

        self._ensure_workers(len(frames))
        try:
            while queue or in_flight:
                dispatch()
                if not in_flight:
                    # No worker left: finish the queue in-process.
                    while queue:
                        for owner, header, columns in live_segments(
                            queue.popleft()
                        ):
                            settle(owner, serve_slice(
                                dict(header, kill_worker=False), columns
                            ))
                        complete()
                    break
                readable, _, _ = select.select(
                    [worker.sock for worker in in_flight], [], []
                )
                for worker in [w for w in in_flight if w.sock in readable]:
                    index = in_flight.pop(worker)
                    try:
                        _, replies = recv_columns(worker.sock)
                        if len(replies) != len(frames[index]):
                            raise ExperimentError(
                                f"worker answered {len(replies)} segments "
                                f"for {len(frames[index])}"
                            )
                    except Exception:  # EOF, a socket error, a torn frame
                        requeue(worker, index)
                        continue
                    for (owner, _, _), reply in zip(frames[index], replies):
                        settle(owner, reply)
                dispatch()
                complete()
        except BaseException:
            # A worker still holding a frame would answer into the next
            # batch: it goes with the batch.
            for worker in list(in_flight):
                self._drop(worker, 0.0)
            raise
        batch_extra.workers = max(1, len(reached))
        if len(pendings) > 1:
            self.metrics.merge(batch_extra)

    def _finalize(self, pending: _PendingPlan) -> PlanResult:
        """Unpack, account, and commit one plan's outcomes, in order."""
        if pending.error is not None:
            raise pending.error
        delta = pending.delta
        assert delta is not None
        fresh: List[TaskOutcome] = []
        for columns, busy_s in pending.shard_columns:
            delta.busy_s += busy_s
            fresh.extend(unpack_outcomes(columns))
        pending.shard_columns.clear()
        for task in pending.plan.tasks:
            delta.tasks += 1
            delta.trials += task.trials
            delta.cells += task.cells
        delta.execute_s += time.perf_counter() - pending.execute_started
        return self._finish(pending.plan, delta, fresh, pending.started)

    def _harvest(
        self,
        reply: Tuple[Dict[str, Any], Optional[OutcomeColumns]],
        delta: EngineMetrics,
    ) -> Tuple[OutcomeColumns, float]:
        """Account one ``slice-result`` segment, re-raising its error."""
        from .fleet import error_from_spec

        header, columns = reply
        if header["error"] is not None:
            raise error_from_spec(header["error"])
        stats = header["stats"]
        delta.apa_programs += stats["apa_programs"]
        for stage, seconds in stats["stages"].items():
            delta.add_stage(stage, seconds)
        delta.worker_bench_reuses += stats["bench_reuses"]
        delta.bytes_shipped += columns.nbytes()
        if stats["tasks_run"]:
            # Adaptive slice sizing input: observed per-task worker
            # seconds, smoothed so one outlier slice cannot whipsaw
            # the next plan's dispatch count.
            per_task = stats["busy_s"] / stats["tasks_run"]
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
    from the bank's decision table).  Per bench, every task whose probed semantic the kernel
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
        with self._decided(plan, delta):
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
) -> ExecutorBase:
    """Build an executor from a CLI-style name."""
    if name in (None, "serial"):
        return SerialExecutor()
    if name == "fused":
        return FusedExecutor()
    if name == "fused-parallel":
        return ProcessPoolExecutor(jobs=jobs, chaos=chaos)
    raise ExperimentError(
        f"unknown executor {name!r}; choose serial, fused, or fused-parallel"
    )


def run_plan(plan: TrialPlan, executor: Optional[ExecutorBase] = None) -> PlanResult:
    """Run a plan on the given executor (default: a fresh serial one)."""
    return (executor or SerialExecutor()).run(plan)
