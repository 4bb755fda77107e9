"""Section 4: characterization of simultaneous many-row activation.

Reproduces the data behind Fig 3 (timing grid), Fig 4a (temperature),
and Fig 4b (wordline voltage).  The sweep itself runs on the trial
engine: this module only builds the :class:`~repro.engine.TrialPlan`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..engine import (
    ActivationKernel,
    ExecutorBase,
    ExperimentProgram,
    PlanResult,
    PlanStep,
    TrialPlan,
    run_plan,
    tasks_for_scope,
)
from .experiment import CharacterizationScope, OperatingPoint
from .stats import DistributionSummary, summarize

ACTIVATION_SIZES = (2, 4, 8, 16, 32)
"""Row-group sizes the paper tests."""

FIG3_T1_VALUES = (1.5, 3.0)
FIG3_T2_VALUES = (1.5, 3.0)
"""The timing grid of Fig 3."""

FIG4_TEMPERATURES = (50.0, 60.0, 70.0, 80.0, 90.0)
FIG4_VPP_LEVELS = (2.5, 2.4, 2.3, 2.2, 2.1)


def build_activation_plan(
    scope: CharacterizationScope,
    n_rows: int,
    point: OperatingPoint,
) -> TrialPlan:
    """The N-row activation sweep as a declarative plan."""
    tasks = tasks_for_scope(
        scope,
        n_rows,
        lambda bench: n_rows * bench.module.config.columns_per_row,
    )
    return TrialPlan(
        name=f"activation-{n_rows}",
        kernel=ActivationKernel(),
        point=point,
        tasks=tasks,
        benches=list(scope.benches),
    )


def activation_success_distribution(
    scope: CharacterizationScope,
    n_rows: int,
    point: OperatingPoint,
    executor: Optional[ExecutorBase] = None,
) -> DistributionSummary:
    """Success-rate distribution of N-row activation across all groups.

    Per group: repeated trials of the section 3.2 recipe (init -> APA
    -> WR -> readback); the group's success rate is the fraction of
    its cells that hold the WR data in *every* trial.
    """
    result = run_plan(build_activation_plan(scope, n_rows, point), executor)
    return summarize(result.rates())


def _summarize_rates(result: PlanResult) -> DistributionSummary:
    return summarize(result.rates())


def _mean_rate(result: PlanResult) -> float:
    return summarize(result.rates()).mean


def _nested(slots, values) -> Dict:
    """Rebuild ``{outer: {inner: value}}`` preserving slot order."""
    out: Dict = {}
    for (outer, inner), value in zip(slots, values):
        out.setdefault(outer, {})[inner] = value
    return out


def program_fig3(
    scope: CharacterizationScope,
    sizes: Sequence[int] = ACTIVATION_SIZES,
    t1_values: Sequence[float] = FIG3_T1_VALUES,
    t2_values: Sequence[float] = FIG3_T2_VALUES,
) -> ExperimentProgram:
    """Fig 3: success distributions over the (t1, t2) grid and sizes.

    ``result[(t1, t2)][n_rows]``; see :mod:`repro.engine.scheduler`.
    """
    steps = []
    slots = []
    for t1 in t1_values:
        for t2 in t2_values:
            point = OperatingPoint(t1_ns=t1, t2_ns=t2)
            for n in sizes:
                steps.append(
                    PlanStep(build_activation_plan(scope, n, point), _summarize_rates)
                )
                slots.append(((t1, t2), n))
    return ExperimentProgram(
        "fig3", tuple(steps), lambda values: _nested(slots, values)
    )


def program_fig4a(
    scope: CharacterizationScope,
    sizes: Sequence[int] = ACTIVATION_SIZES,
    temperatures: Sequence[float] = FIG4_TEMPERATURES,
) -> ExperimentProgram:
    """Fig 4a: average success rate vs temperature (best timings).

    ``result[temperature][n_rows]``.
    """
    steps = []
    slots = []
    for temp in temperatures:
        point = OperatingPoint(temperature_c=temp)
        for n in sizes:
            steps.append(
                PlanStep(build_activation_plan(scope, n, point), _mean_rate)
            )
            slots.append((temp, n))
    return ExperimentProgram(
        "fig4a", tuple(steps), lambda values: _nested(slots, values)
    )


def program_fig4b(
    scope: CharacterizationScope,
    sizes: Sequence[int] = ACTIVATION_SIZES,
    vpp_levels: Sequence[float] = FIG4_VPP_LEVELS,
) -> ExperimentProgram:
    """Fig 4b: average success rate vs wordline voltage (best timings).

    ``result[vpp][n_rows]``.
    """
    steps = []
    slots = []
    for vpp in vpp_levels:
        point = OperatingPoint(vpp=vpp)
        for n in sizes:
            steps.append(
                PlanStep(build_activation_plan(scope, n, point), _mean_rate)
            )
            slots.append((vpp, n))
    return ExperimentProgram(
        "fig4b", tuple(steps), lambda values: _nested(slots, values)
    )
