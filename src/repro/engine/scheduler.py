"""Pipelined cross-experiment scheduling.

A figure experiment is a loop over operating points: build a
:class:`~repro.engine.plan.TrialPlan` per point, run it, reduce its
outcomes (usually to a
:class:`~repro.characterization.stats.DistributionSummary`), and
assemble the reduced values into the figure's nested result dict.
:class:`ExperimentProgram` captures that shape declaratively -- an
ordered tuple of :class:`PlanStep` (plan + per-plan reduction) plus
one assembly function -- so the same program can run two ways:

- :meth:`ExperimentProgram.run` executes the steps strictly in order
  on any executor: the sequential reference, and how a campaign's
  retry pass and the audit run a figure;
- :class:`CampaignScheduler` flattens *many* programs into a single
  plan stream and hands it to the executor's ``run_many``, which runs
  it back to back in-process and keeps one shared persistent worker
  pool saturated across experiment boundaries on ``fused-parallel``.

Determinism is preserved by construction.  Plan building is pure
(group sampling and noise are serial-keyed, never history-keyed), the
engine's executors are bit-identical regardless of how plans are
batched or interleaved, and reduction/assembly run on buffered results
in original program/step order -- so a pipelined campaign commits
artifacts with exactly the bytes the sequential run would have.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .executors import ExecutorBase, run_plan
from .plan import PlanResult, TrialPlan


@dataclass(frozen=True)
class PlanStep:
    """One plan of an experiment, with its per-plan reduction."""

    plan: TrialPlan
    reduce: Callable[[PlanResult], Any]
    """Turns the plan's result into this step's value (e.g. a
    distribution summary of its rates)."""


@dataclass(frozen=True)
class ExperimentProgram:
    """A whole figure experiment as data: ordered steps + assembly."""

    name: str
    steps: Tuple[PlanStep, ...]
    assemble: Callable[[List[Any]], Any]
    """Builds the figure's result structure from the step values, in
    step order."""

    def run(self, executor: Optional[ExecutorBase] = None) -> Any:
        """Run the steps in order on ``executor`` and assemble the figure.

        The sequential reference: every executor gives the same bits
        here, and :class:`CampaignScheduler` gives them too.
        """
        values = [step.reduce(run_plan(step.plan, executor)) for step in self.steps]
        return self.assemble(values)


class CampaignScheduler:
    """Runs many programs as one plan stream.

    All programs' plans are flattened up front and submitted through
    the executor's :meth:`~repro.engine.executors.ExecutorBase.run_many`,
    so a shared worker pool never drains between experiments.  Results
    are reduced and assembled strictly in program and step order; a
    plan failure surfaces as that *program's* error without disturbing
    its neighbours.  Stream counters (``pipelined_plans``,
    ``pipeline_wall_s``, ``pipeline_busy_s``) accumulate on the
    executor's metrics.
    """

    def __init__(self, executor: ExecutorBase) -> None:
        self.executor = executor

    def run(
        self,
        programs: Sequence[ExperimentProgram],
        on_program: Optional[
            Callable[[str, Tuple[str, Any]], None]
        ] = None,
    ) -> Dict[str, Tuple[str, Any]]:
        """Execute every program; ``{name: ("ok", data) | ("error", exc)}``.

        With ``on_program`` set, each program's outcome is reduced,
        assembled, and streamed to the callback the moment its last
        plan settles -- strictly in program order, while later
        programs' plans are still executing.  This is the incremental-
        commit hook: the campaign persists each experiment as it
        finishes, so a crash loses at most the in-flight program.
        Exceptions the callback raises abort the stream and propagate
        (the executor abandons its in-flight shards on the way out).
        """
        started = time.perf_counter()
        metrics = self.executor.metrics
        plans = [step.plan for program in programs for step in program.steps]
        chunk: List[Any] = []  # settled results of the program at cursor
        cursor = [0]
        outcomes: Dict[str, Tuple[str, Any]] = {}

        def settle_ready() -> None:
            # run_many streams strictly in plan order, so the program
            # at the cursor settles once it holds one result per step;
            # its results are dropped as it does.
            while (
                cursor[0] < len(programs)
                and len(chunk) == len(programs[cursor[0]].steps)
            ):
                program = programs[cursor[0]]
                outcome = _settle(program, chunk)
                chunk.clear()
                cursor[0] += 1
                outcomes[program.name] = outcome
                if on_program is not None:
                    on_program(program.name, outcome)

        def plan_settled(_index: int, result: Any) -> None:
            if isinstance(result, PlanResult):
                metrics.pipeline_busy_s += result.metrics.busy_s
            chunk.append(result)
            settle_ready()

        settle_ready()  # leading zero-step programs
        if plans:
            self.executor.run_many(plans, on_result=plan_settled)
        metrics.pipelined_plans += len(plans)
        metrics.pipeline_wall_s += time.perf_counter() - started
        return outcomes


def _settle(
    program: ExperimentProgram, results: List[Any]
) -> Tuple[str, Any]:
    """One program's outcome from its plans' results, in step order."""
    error = next(
        (item for item in results if isinstance(item, Exception)), None
    )
    if error is not None:
        return ("error", error)
    try:
        values = [
            step.reduce(result)
            for step, result in zip(program.steps, results)
        ]
        return ("ok", program.assemble(values))
    except Exception as exc:  # noqa: BLE001 -- isolate programs
        return ("error", exc)
