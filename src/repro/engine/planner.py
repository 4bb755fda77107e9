"""Adaptive corner-matrix planning: CI-targeted early stopping.

A figure sweep is a corner matrix -- each
:class:`~repro.engine.scheduler.PlanStep` of an
:class:`~repro.engine.scheduler.ExperimentProgram` is one cell
(vendor x temperature x VPP x data-pattern x timing corner).  The
fixed-budget path runs every cell for the same trial count, so most
compute re-confirms corners that are already statistically settled
(0% or 100% success) while the interesting success-rate cliffs stay
under-sampled.

:class:`AdaptivePlanner` runs the matrix in *rounds* instead:

1. every live cell gets a slice of trials
   (:func:`~repro.engine.plan.slice_plan` offsets the slice so the
   noise stream is bit-identical to a one-shot run of the same total
   count), executed through the existing executors' ``run_many``
   pipeline;
2. after each round every cell's per-trial success rates feed a
   seeded incremental bootstrap
   (:class:`~repro.characterization.stats.StreamingBootstrap` --
   round N+1 never re-resamples round N's observations), and a cell
   whose CI half-width reaches the target stops early
   (``stop_reason="converged"``);
3. the trial budget converged cells free is reallocated to the
   surviving high-variance cells -- the ones sitting on the success
   cliffs -- proportionally to their observed per-trial variance,
   with a per-cell floor of the base round size, a cap at the cell's
   remaining budget, and deterministic seeded tie-breaking, so a
   re-run allocates identically.

Cells that never converge stop at ``max_trials``
(``stop_reason="budget"``).  Checkpointed plans cannot be sliced
(their running-AND checkpoint schedule spans the whole trial
sequence) and run once at their built budget
(``stop_reason="fixed"``).

Reproducibility guarantees: trial slicing is bit-identical by the
trial-index keying of all measurement noise, the bootstrap is seeded,
and the allocation policy is a pure function of (observations, seed)
-- so an adaptive campaign is as deterministic as a fixed one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .. import rng
from ..errors import ExperimentError
from .executors import ExecutorBase
from .metrics import EngineMetrics
from .plan import PlanResult, TaskOutcome, TrialPlan, merge_outcomes, slice_plan
from .scheduler import ExperimentProgram

if TYPE_CHECKING:  # characterization imports the engine; avoid the cycle
    from ..characterization.stats import BootstrapCI


@dataclass(frozen=True)
class AdaptiveConfig:
    """The adaptive-planning knobs, as one fingerprintable value.

    A campaign run with these knobs produces different data than a
    fixed-budget run (fewer trials per converged cell), so the whole
    config rides in the campaign manifest's fingerprint: resume
    refuses to mix budgets, and ``simra-dram audit`` rebuilds the
    exact planner for its recompute cross-check.
    """

    ci_target: float = 0.02
    round_trials: int = 4
    max_trials: int = 32
    confidence: float = 0.95
    resamples: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.ci_target <= 0.0:
            raise ExperimentError(
                f"ci_target must be positive, got {self.ci_target}"
            )
        if self.round_trials < 1:
            raise ExperimentError(
                f"round_trials must be >= 1, got {self.round_trials}"
            )
        if self.max_trials < self.round_trials:
            raise ExperimentError(
                f"max_trials ({self.max_trials}) must be >= round_trials "
                f"({self.round_trials})"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ExperimentError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.resamples < 1:
            raise ExperimentError(
                f"need at least one resample, got {self.resamples}"
            )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ci_target": self.ci_target,
            "round_trials": self.round_trials,
            "max_trials": self.max_trials,
            "confidence": self.confidence,
            "resamples": self.resamples,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AdaptiveConfig":
        return cls(
            ci_target=float(payload["ci_target"]),
            round_trials=int(payload["round_trials"]),
            max_trials=int(payload["max_trials"]),
            confidence=float(payload.get("confidence", 0.95)),
            resamples=int(payload.get("resamples", 2000)),
            seed=int(payload.get("seed", 0)),
        )

    def planner(
        self,
        executor: ExecutorBase,
        on_round: Optional[Callable[[str, int, Dict[int, int]], None]] = None,
    ) -> "AdaptivePlanner":
        """An :class:`AdaptivePlanner` bound to ``executor``."""
        return AdaptivePlanner(
            executor,
            ci_target=self.ci_target,
            round_trials=self.round_trials,
            max_trials=self.max_trials,
            confidence=self.confidence,
            resamples=self.resamples,
            seed=self.seed,
            on_round=on_round,
        )


@dataclass
class CellReport:
    """Per-cell planner record, persisted with adaptive artifacts."""

    step: int
    """Step index of this cell within its program."""
    plan: str
    """The cell's plan name (its corner label)."""
    tasks: int
    trials_planned: int
    """Per-task trial budget the planner would spend at worst."""
    trials_run: int
    """Per-task trials actually executed."""
    rounds: int
    stop_reason: str
    """``converged`` / ``budget`` / ``fixed`` / ``empty``."""
    ci: Optional["BootstrapCI"] = None

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "step": self.step,
            "plan": self.plan,
            "tasks": self.tasks,
            "trials_planned": self.trials_planned,
            "trials_run": self.trials_run,
            "rounds": self.rounds,
            "stop_reason": self.stop_reason,
        }
        if self.ci is not None:
            payload["ci"] = {
                "mean": self.ci.mean,
                "low": self.ci.low,
                "high": self.ci.high,
                "halfwidth": self.ci.halfwidth,
                "confidence": self.ci.confidence,
                "resamples": self.ci.resamples,
                "n": self.ci.n,
            }
        return payload


@dataclass
class AdaptiveOutcome:
    """One program's adaptive run: the figure value + the planner record."""

    name: str
    value: Any
    cells: List[CellReport]
    rounds: int
    wall_s: float = 0.0

    @property
    def trials_planned(self) -> int:
        """Total budgeted trials (task x trial units) across cells."""
        return sum(cell.tasks * cell.trials_planned for cell in self.cells)

    @property
    def trials_run(self) -> int:
        """Total executed trials (task x trial units) across cells."""
        return sum(cell.tasks * cell.trials_run for cell in self.cells)

    @property
    def trials_saved(self) -> int:
        return self.trials_planned - self.trials_run

    @property
    def cells_converged(self) -> int:
        return sum(
            1 for cell in self.cells if cell.stop_reason == "converged"
        )

    def planner_dict(self) -> Dict[str, Any]:
        """The JSON planner annotation stored beside the figure data."""
        return {
            "adaptive": True,
            "rounds": self.rounds,
            "cells": [cell.as_dict() for cell in self.cells],
            "cells_converged": self.cells_converged,
            "trials_planned": self.trials_planned,
            "trials_run": self.trials_run,
            "trials_saved": self.trials_saved,
        }


class _CellState:
    """Mutable per-cell bookkeeping across rounds."""

    def __init__(
        self,
        step_index: int,
        plan: TrialPlan,
        budget: int,
        sliceable: bool,
        confidence: float,
        resamples: int,
        seed: int,
    ):
        self.step_index = step_index
        self.plan = plan
        self.budget = budget
        self.sliceable = sliceable
        self.trials_run = 0
        self.rounds = 0
        self.stop_reason = ""
        self.outcomes: Dict[int, TaskOutcome] = {}
        # Runtime import: the stats module lives in characterization,
        # which imports the engine package at load time.
        from ..characterization.stats import StreamingBootstrap

        self.bootstrap = StreamingBootstrap(
            confidence=confidence, resamples=resamples, seed=seed
        )
        # Running moments of the per-trial observations; the planner's
        # variance-proportional allocation reads these.
        self._obs_n = 0
        self._obs_sum = 0.0
        self._obs_sumsq = 0.0
        # Seeded tie-break rank: a pure function of identity, so two
        # runs break allocation ties identically.
        self.tie_rank = rng.stable_seed(
            "adaptive-planner", seed, plan.name, step_index
        )

    @property
    def done(self) -> bool:
        return bool(self.stop_reason)

    @property
    def variance(self) -> float:
        if self._obs_n == 0:
            return 0.0
        mean = self._obs_sum / self._obs_n
        return max(0.0, self._obs_sumsq / self._obs_n - mean * mean)

    @property
    def remaining(self) -> int:
        return max(0, self.budget - self.trials_run)

    def absorb(self, result: PlanResult, allocated: int) -> None:
        """Fold one round's slice result into the cell state."""
        ordered = sorted(result.outcomes, key=lambda item: item.index)
        for outcome in ordered:
            held = self.outcomes.get(outcome.index)
            self.outcomes[outcome.index] = (
                outcome if held is None else merge_outcomes(held, outcome)
            )
        self.rounds += 1
        self.trials_run += allocated
        if not ordered:
            return
        # The cell's observation at trial t is the mean success rate
        # across its tasks at trial t -- an i.i.d. draw per trial.
        rates = np.array(
            [outcome.trial_rates for outcome in ordered], dtype=np.float64
        )
        if rates.size == 0:
            return
        observations = rates.mean(axis=0)
        self.bootstrap.extend(observations)
        self._obs_n += int(observations.size)
        self._obs_sum += float(observations.sum())
        self._obs_sumsq += float(np.square(observations).sum())

    def ci(self) -> Optional["BootstrapCI"]:
        if self.bootstrap.n == 0:
            return None
        return self.bootstrap.ci()

    def report(self) -> CellReport:
        return CellReport(
            step=self.step_index,
            plan=self.plan.name,
            tasks=len(self.plan.tasks),
            trials_planned=self.budget,
            trials_run=self.trials_run,
            rounds=self.rounds,
            stop_reason=self.stop_reason or "budget",
            ci=self.ci(),
        )


def allocate_round(
    cells: Sequence[_CellState], round_trials: int
) -> Dict[int, int]:
    """Trials per live cell for one round: ``{step_index: trials}``.

    The nominal round budget is ``round_trials`` per *matrix* cell --
    live or stopped -- so every trial a converged cell no longer needs
    is freed for reallocation.  Each live cell is floored at
    ``round_trials`` (no cell starves) and capped at its remaining
    budget; the freed surplus is split among live cells proportionally
    to their observed per-trial variance (largest-remainder
    apportionment), steering the extra sampling toward the success-
    rate cliffs.  Ties -- equal variance, and the remainder units --
    break on each cell's seeded ``tie_rank``, so allocation is a pure
    deterministic function of (observations, seed).
    """
    live = [cell for cell in cells if not cell.done and cell.remaining > 0]
    if not live:
        return {}
    budget = round_trials * len(cells)
    allocation = {
        cell.step_index: min(round_trials, cell.remaining) for cell in live
    }
    surplus = budget - sum(allocation.values())
    headroom = {
        cell.step_index: cell.remaining - allocation[cell.step_index]
        for cell in live
    }
    weights = {cell.step_index: cell.variance for cell in live}
    # Exactly rounded, so the shares cannot depend on the cells' order.
    total_weight = math.fsum(weights.values())
    if surplus > 0 and total_weight > 0.0:
        shares = {
            cell.step_index: surplus * weights[cell.step_index] / total_weight
            for cell in live
        }
        granted = {
            index: min(int(share), headroom[index])
            for index, share in shares.items()
        }
        # Largest-remainder pass for the integer leftovers (including
        # shares truncated by a cell's headroom cap), one unit per
        # sweep, capped by headroom; deterministic via the seeded rank.
        remainder_order = sorted(
            live,
            key=lambda cell: (
                -(shares[cell.step_index] - int(shares[cell.step_index])),
                -weights[cell.step_index],
                cell.tie_rank,
            ),
        )
        leftovers = surplus - sum(granted.values())
        progressed = True
        while leftovers > 0 and progressed:
            progressed = False
            for cell in remainder_order:
                if leftovers <= 0:
                    break
                index = cell.step_index
                if headroom[index] - granted[index] <= 0:
                    continue
                granted[index] += 1
                leftovers -= 1
                progressed = True
        for index, extra in granted.items():
            allocation[index] += extra
    return {index: count for index, count in allocation.items() if count > 0}


class AdaptivePlanner:
    """Round-based adaptive execution of experiment programs.

    Parameters
    ----------
    executor:
        Any engine executor; rounds go through its ``run_many`` so a
        pipelining pool stays saturated across cells.
    ci_target:
        Target CI half-width; a cell stops once its bootstrap CI is at
        least this tight.
    round_trials:
        Base trials per cell per round (and the per-cell floor).
    max_trials:
        Per-task budget ceiling per cell; also the fixed-mode baseline
        the savings are measured against.
    on_round:
        Optional observer called as ``on_round(program_name,
        round_index, allocation)`` after each executed round; the
        campaign layer journals these so a killed adaptive run leaves
        a round-by-round progress trace behind.
    """

    def __init__(
        self,
        executor: ExecutorBase,
        ci_target: float,
        round_trials: int,
        max_trials: int,
        confidence: float = 0.95,
        resamples: int = 2000,
        seed: int = 0,
        on_round: Optional[Callable[[str, int, Dict[int, int]], None]] = None,
    ):
        if ci_target <= 0.0:
            raise ExperimentError(
                f"ci_target must be positive, got {ci_target}"
            )
        if round_trials < 1:
            raise ExperimentError(
                f"round_trials must be >= 1, got {round_trials}"
            )
        if max_trials < round_trials:
            raise ExperimentError(
                f"max_trials ({max_trials}) must be >= round_trials "
                f"({round_trials})"
            )
        self.executor = executor
        self.ci_target = float(ci_target)
        self.round_trials = int(round_trials)
        self.max_trials = int(max_trials)
        self.confidence = float(confidence)
        self.resamples = int(resamples)
        self.seed = int(seed)
        self.on_round = on_round

    # -- execution ---------------------------------------------------------

    def run_program(self, program: ExperimentProgram) -> AdaptiveOutcome:
        """Run one program adaptively and assemble its figure value."""
        started = time.perf_counter()
        cells = [
            self._cell_for(index, step.plan)
            for index, step in enumerate(program.steps)
        ]
        rounds = 0
        while True:
            allocation = allocate_round(cells, self.round_trials)
            if not allocation:
                break
            rounds += 1
            self._run_round(cells, allocation)
            if self.on_round is not None:
                self.on_round(program.name, rounds, dict(allocation))
        for cell in cells:
            if not cell.stop_reason:
                cell.stop_reason = "budget"
        values = [
            step.reduce(self._result_for(cell))
            for step, cell in zip(program.steps, cells)
        ]
        value = program.assemble(values)
        outcome = AdaptiveOutcome(
            name=program.name,
            value=value,
            cells=[cell.report() for cell in cells],
            rounds=rounds,
            wall_s=time.perf_counter() - started,
        )
        metrics = self.executor.metrics
        metrics.rounds += rounds
        metrics.cells_converged += outcome.cells_converged
        metrics.trials_saved += outcome.trials_saved
        return outcome

    def run_programs(
        self, programs: Sequence[ExperimentProgram]
    ) -> Dict[str, Tuple[str, Any]]:
        """Campaign-shaped API: ``{name: ("ok", AdaptiveOutcome) | ("error", exc)}``."""
        outcomes: Dict[str, Tuple[str, Any]] = {}
        for program in programs:
            try:
                outcomes[program.name] = ("ok", self.run_program(program))
            except Exception as exc:  # noqa: BLE001 -- isolate programs
                outcomes[program.name] = ("error", exc)
        return outcomes

    # -- internals ---------------------------------------------------------

    def _cell_for(self, index: int, plan: TrialPlan) -> _CellState:
        sliceable = not plan.checkpoints and bool(plan.tasks)
        if sliceable:
            budget = self.max_trials
        else:
            budget = max(
                (task.trials for task in plan.tasks), default=0
            )
        cell = _CellState(
            step_index=index,
            plan=plan,
            budget=budget,
            sliceable=sliceable,
            confidence=self.confidence,
            resamples=self.resamples,
            seed=self.seed,
        )
        if not plan.tasks:
            cell.stop_reason = "empty"
        return cell

    def _run_round(
        self, cells: Sequence[_CellState], allocation: Dict[int, int]
    ) -> None:
        by_index = {cell.step_index: cell for cell in cells}
        batch: List[Tuple[_CellState, int, TrialPlan]] = []
        for index in sorted(allocation):
            cell = by_index[index]
            if cell.sliceable:
                count = allocation[index]
                batch.append(
                    (cell, count,
                     slice_plan(cell.plan, cell.trials_run, count))
                )
            else:
                # Checkpointed plans run whole, once, at built budget.
                batch.append((cell, cell.budget, cell.plan))
        results = self.executor.run_many([plan for _, _, plan in batch])
        for (cell, count, _), result in zip(batch, results):
            if isinstance(result, Exception):
                raise result
            cell.absorb(result, count)
            if not cell.sliceable:
                cell.stop_reason = "fixed"
                continue
            ci = cell.ci()
            if ci is not None and ci.halfwidth <= self.ci_target:
                cell.stop_reason = "converged"
            elif cell.remaining <= 0:
                cell.stop_reason = "budget"

    def _result_for(self, cell: _CellState) -> PlanResult:
        outcomes = [
            cell.outcomes[index] for index in sorted(cell.outcomes)
        ]
        return PlanResult(
            plan_name=cell.plan.name,
            outcomes=outcomes,
            metrics=EngineMetrics(executor=self.executor.name),
        )
