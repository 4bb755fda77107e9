"""Section 6: characterization of Multi-RowCopy.

Reproduces the data behind Fig 10 (timing grid), Fig 11 (data
pattern), Fig 12a (temperature), and Fig 12b (voltage).  The sweep
itself runs on the trial engine: this module only builds the
:class:`~repro.engine.TrialPlan`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.patterns import COPY_TESTED_PATTERNS, DataPattern
from ..engine import (
    ExecutorBase,
    ExperimentProgram,
    MultiRowCopyKernel,
    PlanStep,
    TrialPlan,
    run_plan,
    tasks_for_scope,
)
from .activation import _mean_rate, _nested, _summarize_rates  # noqa: F401
from .experiment import CharacterizationScope, OperatingPoint
from .stats import DistributionSummary, summarize

COPY_DESTINATIONS = (1, 3, 7, 15, 31)
"""Destination-row counts the paper tests (group sizes 2..32)."""

FIG10_T1_VALUES = (1.5, 3.0, 36.0)
FIG10_T2_VALUES = (1.5, 3.0)

FIG12_TEMPERATURES = (50.0, 60.0, 70.0, 80.0, 90.0)
FIG12_VPP_LEVELS = (2.5, 2.4, 2.3, 2.2, 2.1)

COPY_POINT = OperatingPoint(t1_ns=36.0, t2_ns=3.0)
"""The best Multi-RowCopy timing configuration (Obs 14)."""


def build_copy_plan(
    scope: CharacterizationScope,
    n_destinations: int,
    point: OperatingPoint,
) -> TrialPlan:
    """The Multi-RowCopy sweep as a declarative plan."""
    group_size = n_destinations + 1
    tasks = tasks_for_scope(
        scope,
        group_size,
        lambda bench: n_destinations * bench.module.config.columns_per_row,
    )
    return TrialPlan(
        name=f"mrc-{n_destinations}",
        kernel=MultiRowCopyKernel(),
        point=point,
        tasks=tasks,
        benches=list(scope.benches),
    )


def multi_row_copy_distribution(
    scope: CharacterizationScope,
    n_destinations: int,
    point: OperatingPoint,
    executor: Optional[ExecutorBase] = None,
) -> DistributionSummary:
    """Success-rate distribution of copying to N destination rows.

    Per the section 3.4 methodology: initialize destinations with one
    pattern, the source with a distinct pattern, run the copy, read
    each destination back with nominal timing.
    """
    result = run_plan(build_copy_plan(scope, n_destinations, point), executor)
    return summarize(result.rates())


def program_fig10(
    scope: CharacterizationScope,
    destinations: Sequence[int] = COPY_DESTINATIONS,
    t1_values: Sequence[float] = FIG10_T1_VALUES,
    t2_values: Sequence[float] = FIG10_T2_VALUES,
) -> ExperimentProgram:
    """Fig 10: Multi-RowCopy success over the (t1, t2) grid.

    ``result[(t1, t2)][destinations]``; see :mod:`repro.engine.scheduler`.
    """
    steps = []
    slots = []
    for t1 in t1_values:
        for t2 in t2_values:
            point = COPY_POINT.with_timing(t1, t2)
            for m in destinations:
                steps.append(
                    PlanStep(build_copy_plan(scope, m, point), _summarize_rates)
                )
                slots.append(((t1, t2), m))
    return ExperimentProgram(
        "fig10", tuple(steps), lambda values: _nested(slots, values)
    )


def program_fig11(
    scope: CharacterizationScope,
    destinations: Sequence[int] = COPY_DESTINATIONS,
    patterns: Sequence[DataPattern] = COPY_TESTED_PATTERNS,
) -> ExperimentProgram:
    """Fig 11: average Multi-RowCopy success by data pattern.

    ``result[pattern_kind][destinations]``.
    """
    steps = []
    slots = []
    for pattern in patterns:
        point = COPY_POINT.with_pattern(pattern)
        for m in destinations:
            steps.append(PlanStep(build_copy_plan(scope, m, point), _mean_rate))
            slots.append((pattern.kind, m))
    return ExperimentProgram(
        "fig11", tuple(steps), lambda values: _nested(slots, values)
    )


def program_fig12a(
    scope: CharacterizationScope,
    destinations: Sequence[int] = COPY_DESTINATIONS,
    temperatures: Sequence[float] = FIG12_TEMPERATURES,
) -> ExperimentProgram:
    """Fig 12a: average Multi-RowCopy success vs temperature.

    ``result[temperature][destinations]``.
    """
    steps = []
    slots = []
    for temp in temperatures:
        point = COPY_POINT.with_temperature(temp)
        for m in destinations:
            steps.append(PlanStep(build_copy_plan(scope, m, point), _mean_rate))
            slots.append((temp, m))
    return ExperimentProgram(
        "fig12a", tuple(steps), lambda values: _nested(slots, values)
    )


def program_fig12b(
    scope: CharacterizationScope,
    destinations: Sequence[int] = COPY_DESTINATIONS,
    vpp_levels: Sequence[float] = FIG12_VPP_LEVELS,
) -> ExperimentProgram:
    """Fig 12b: average Multi-RowCopy success vs wordline voltage.

    ``result[vpp][destinations]``.
    """
    steps = []
    slots = []
    for vpp in vpp_levels:
        point = COPY_POINT.with_vpp(vpp)
        for m in destinations:
            steps.append(PlanStep(build_copy_plan(scope, m, point), _mean_rate))
            slots.append((vpp, m))
    return ExperimentProgram(
        "fig12b", tuple(steps), lambda values: _nested(slots, values)
    )
