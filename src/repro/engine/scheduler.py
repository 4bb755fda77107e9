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
  sequential source, the audit and a fleet worker run a figure;
- :class:`CampaignScheduler` flattens *many* programs into a single
  plan stream and hands it to a pipelining executor's ``run_many``,
  which keeps one shared persistent worker pool saturated across
  experiment boundaries instead of draining it at each figure's edge.

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

from ..errors import ExperimentError
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
    """Runs many programs as one pipelined plan stream.

    All programs' plans are flattened up front and submitted through
    the executor's :meth:`~repro.engine.executors.ExecutorBase.run_many`,
    so the shared worker pool never drains between experiments.
    Results are buffered and reduced/assembled strictly in program and
    step order; a plan failure surfaces as that *program's* error
    without disturbing its neighbours.  Pipeline throughput counters
    (``pipelined_plans``, ``pipeline_wall_s``, ``pipeline_busy_s``)
    accumulate on the executor's metrics.
    """

    def __init__(self, executor: ExecutorBase) -> None:
        if not getattr(executor, "supports_pipelining", False):
            raise ExperimentError(
                f"executor {executor.name!r} does not support pipelined "
                "scheduling; use a process-pool executor"
            )
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
        plans: List[TrialPlan] = []
        spans: List[Tuple[ExperimentProgram, int, int]] = []
        for program in programs:
            spans.append((program, len(plans), len(program.steps)))
            plans.extend(step.plan for step in program.steps)
        results: List[Any] = [None] * len(plans)
        outcomes: Dict[str, Tuple[str, Any]] = {}
        next_span = [0]

        def finish_span(span_index: int) -> None:
            program, start, count = spans[span_index]
            chunk = results[start:start + count]
            error = next(
                (item for item in chunk if isinstance(item, Exception)), None
            )
            if error is not None:
                outcome: Tuple[str, Any] = ("error", error)
            else:
                try:
                    values = [
                        step.reduce(result)
                        for step, result in zip(program.steps, chunk)
                    ]
                    outcome = ("ok", program.assemble(values))
                except Exception as exc:  # noqa: BLE001 -- isolate programs
                    outcome = ("error", exc)
            outcomes[program.name] = outcome
            if on_program is not None:
                on_program(program.name, outcome)

        def plan_settled(index: int, result: Any) -> None:
            results[index] = result
            # run_many streams strictly in plan order, so every span
            # ending at or before this plan is fully buffered.
            while next_span[0] < len(spans):
                _, start, count = spans[next_span[0]]
                if start + count > index + 1:
                    break
                finish_span(next_span[0])
                next_span[0] += 1

        raw = (
            self.executor.run_many(plans, on_result=plan_settled)
            if plans
            else []
        )
        metrics = self.executor.metrics
        metrics.pipelined_plans += len(plans)
        metrics.pipeline_wall_s += time.perf_counter() - started
        metrics.pipeline_busy_s += sum(
            result.metrics.busy_s
            for result in raw
            if isinstance(result, PlanResult)
        )
        # Sweep any span the stream did not cover: zero-step programs,
        # and every span when the executor ignored the callback.
        for index, result in enumerate(raw):
            results[index] = result
        while next_span[0] < len(spans):
            finish_span(next_span[0])
            next_span[0] += 1
        return outcomes
