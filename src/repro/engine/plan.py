"""Declarative measurement plans for the trial-execution engine.

A characterization module no longer walks (site x group x trial)
itself; it builds a :class:`TrialPlan` -- the site/group/trial
selection plus a :class:`~repro.engine.kernels.TrialKernel` describing
the operation -- and hands it to an executor.  The plan is pure data
(tasks and kernels are picklable) so the same plan can run serially,
sharded across processes, or vectorized in batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .metrics import EngineMetrics

# Annotation-only: characterization imports the engine (a cycle), and
# cache readers must not load the simulator.
if TYPE_CHECKING:
    from ..bender.testbench import TestBench
    from ..characterization.experiment import CharacterizationScope, OperatingPoint
    from ..core.rowgroups import RowGroup


@dataclass(frozen=True)
class TrialTask:
    """One accumulator's worth of work: a row group at one site."""

    index: int
    """Position in the plan; results are always reduced in this order."""
    bench_index: int
    serial: str
    bank: int
    subarray: int
    group: RowGroup
    trials: int
    cells: int
    """Cells the per-trial correctness vector covers."""
    trial_offset: int = 0
    """First absolute trial index this task covers.

    Measurement noise is keyed by the *absolute* trial index, so a
    task sliced into ``[offset, offset + trials)`` windows draws
    exactly the bits a one-shot run of the same total count would --
    the mechanism behind round-sliced adaptive planning.
    """

    @property
    def group_token(self) -> str:
        """Stable identity of the row group for noise keying."""
        rows = ",".join(str(r) for r in sorted(self.group.rows))
        return f"{self.group.subarray}:{rows}"


@dataclass
class TrialPlan:
    """A full measurement: tasks + kernel + operating point."""

    name: str
    kernel: "TrialKernel"  # noqa: F821 -- avoids a circular import
    point: OperatingPoint
    tasks: List[TrialTask]
    benches: List[TestBench]
    checkpoints: Tuple[int, ...] = ()
    """Trial counts at which to snapshot the running success rate."""
    apply_environment: bool = True
    """Whether executors drive every bench to the operating point."""

    @property
    def total_trials(self) -> int:
        """Trials across all tasks."""
        return sum(task.trials for task in self.tasks)


@dataclass(frozen=True)
class TaskOutcome:
    """Reduction of one task: the AND-accumulated correctness."""

    index: int
    rate: float
    trials: int
    cells: int
    mask: np.ndarray
    """Per-cell True where the cell was correct in every trial."""
    checkpoint_rates: Tuple[Tuple[int, float], ...] = ()
    """(trial count, running success rate) at each plan checkpoint."""
    trial_rates: Tuple[float, ...] = ()
    """Per-trial fraction of cells correct, one entry per trial.

    Unlike :attr:`rate` (the AND over trials, monotone in the trial
    count) these are independent observations of the same estimand,
    so a bootstrap CI over them converges -- the statistic the
    adaptive planner targets.
    """


@dataclass
class PlanResult:
    """What an executor returns: ordered outcomes + a metrics delta."""

    plan_name: str
    outcomes: List[TaskOutcome]
    metrics: EngineMetrics = field(default_factory=EngineMetrics)

    def rates(self) -> List[float]:
        """Per-task success rates in task order."""
        return [outcome.rate for outcome in self.outcomes]


def tasks_for_scope(
    scope: CharacterizationScope,
    group_size: int,
    cells_per_group: Callable[[TestBench], int],
    bench_predicate: Optional[Callable[[TestBench], bool]] = None,
    trials: Optional[int] = None,
) -> List[TrialTask]:
    """Expand a scope into tasks in the canonical site order.

    The order (bench -> bank -> subarray -> group) matches what the
    characterization modules historically produced, so distribution
    summaries line up sample-for-sample with the pre-engine code.
    """
    tasks: List[TrialTask] = []
    per_task_trials = scope.trials if trials is None else trials
    for bench_index, bench in enumerate(scope.benches):
        if bench_predicate is not None and not bench_predicate(bench):
            continue
        for bank in scope.banks:
            for subarray in scope.subarrays:
                for group in scope.groups_for(bench, bank, subarray, group_size):
                    tasks.append(
                        TrialTask(
                            index=len(tasks),
                            bench_index=bench_index,
                            serial=bench.module.serial,
                            bank=bank,
                            subarray=subarray,
                            group=group,
                            trials=per_task_trials,
                            cells=cells_per_group(bench),
                        )
                    )
    return tasks


def slice_plan(plan: TrialPlan, offset: int, trials: int) -> TrialPlan:
    """A copy of ``plan`` covering absolute trials ``[offset, offset+trials)``.

    Works on any built plan -- every plan-builder's output is
    round-sliceable without the builder knowing.  The window is
    independent of the plan's built trial count: measurement noise is
    keyed by the absolute trial index, so any ``[offset, offset +
    trials)`` window draws exactly the bits a one-shot run of
    ``offset + trials`` total trials would -- which is how the
    adaptive planner extends a cell past its built budget up to
    ``max_trials``.  Checkpoints are a running AND over the full trial
    sequence, so checkpointed plans cannot be cut mid-stream; callers
    (the adaptive planner) run them full-budget in a single round
    instead.
    """
    if offset < 0 or trials < 0:
        raise ValueError("slice_plan: offset and trials must be >= 0")
    if plan.checkpoints:
        raise ValueError(
            "slice_plan: checkpointed plans are not sliceable (running-AND "
            "checkpoint semantics span the whole trial sequence)"
        )
    tasks = [
        replace(
            task,
            trial_offset=task.trial_offset + offset,
            trials=trials,
        )
        for task in plan.tasks
    ]
    return TrialPlan(
        name=plan.name,
        kernel=plan.kernel,
        point=plan.point,
        tasks=tasks,
        benches=plan.benches,
        checkpoints=(),
        apply_environment=plan.apply_environment,
    )


def merge_outcomes(earlier: TaskOutcome, later: TaskOutcome) -> TaskOutcome:
    """Combine two slices of the same task into the one-shot outcome.

    The combined mask is the AND of the slice masks -- exactly the
    mask a single run over the union of the trial windows produces --
    and the per-trial rates concatenate, so the merged outcome is
    bit-identical to an unsliced run of ``earlier.trials +
    later.trials`` trials.
    """
    if earlier.index != later.index or earlier.cells != later.cells:
        raise ValueError("merge_outcomes: outcomes belong to different tasks")
    if earlier.checkpoint_rates or later.checkpoint_rates:
        raise ValueError("merge_outcomes: checkpointed outcomes do not merge")
    mask = np.logical_and(earlier.mask, later.mask)
    return TaskOutcome(
        index=earlier.index,
        rate=float(np.mean(mask)) if mask.size else 0.0,
        trials=earlier.trials + later.trials,
        cells=earlier.cells,
        mask=mask,
        checkpoint_rates=(),
        trial_rates=earlier.trial_rates + later.trial_rates,
    )


def rates_by_serial(plan: TrialPlan, result: PlanResult) -> Dict[str, List[float]]:
    """Group per-task rates by module serial, preserving task order."""
    grouped: Dict[str, List[float]] = {}
    for task, outcome in zip(plan.tasks, result.outcomes):
        grouped.setdefault(task.serial, []).append(outcome.rate)
    return grouped


def checkpoint_rates_by_count(
    result: PlanResult, checkpoints: Sequence[int]
) -> Dict[int, np.ndarray]:
    """Per-checkpoint rate arrays, gathered in one vectorized pass.

    Returns ``{T: rates}`` in checkpoint order (first occurrence wins
    for duplicates), skipping checkpoints no task reported; within a
    checkpoint, rates keep task order.
    """
    pairs = [
        pair
        for outcome in result.outcomes
        for pair in outcome.checkpoint_rates
    ]
    if pairs:
        counts = np.fromiter(
            (pair[0] for pair in pairs), dtype=np.int64, count=len(pairs)
        )
        rates = np.fromiter(
            (pair[1] for pair in pairs), dtype=np.float64, count=len(pairs)
        )
    else:
        counts = np.empty(0, dtype=np.int64)
        rates = np.empty(0, dtype=np.float64)
    grouped: Dict[int, np.ndarray] = {}
    for t in dict.fromkeys(checkpoints):
        selected = rates[counts == t]
        if selected.size:
            grouped[t] = selected
    return grouped


def checkpoint_means(
    result: PlanResult, checkpoints: Sequence[int]
) -> Dict[int, float]:
    """Mean running success rate across tasks at each checkpoint."""
    return {
        t: float(np.mean(rates))
        for t, rates in checkpoint_rates_by_count(result, checkpoints).items()
    }
