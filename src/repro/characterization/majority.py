"""Section 5: characterization of MAJX operations.

Reproduces the data behind Fig 6 (MAJ3 timing/size grid), Fig 7
(MAJX vs data pattern), Fig 8 (temperature), and Fig 9 (voltage).
The sweep itself runs on the trial engine: this module only builds
the :class:`~repro.engine.TrialPlan`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.patterns import DataPattern, MAJX_TESTED_PATTERNS
from ..engine import (
    ExecutorBase,
    ExperimentProgram,
    MajXKernel,
    PlanStep,
    TrialPlan,
    run_plan,
    tasks_for_scope,
)
from ..errors import ExperimentError
from .activation import _mean_rate, _nested, _summarize_rates  # noqa: F401
from .experiment import CharacterizationScope, OperatingPoint
from .stats import DistributionSummary, summarize

MAJX_VALUES = (3, 5, 7, 9)
"""The X values the paper demonstrates (footnote 11 caps higher X)."""

MAJ_SIZES = (4, 8, 16, 32)
"""Activation sizes used for MAJ experiments."""

FIG6_T1_VALUES = (1.5, 3.0)
FIG6_T2_VALUES = (1.5, 3.0)

FIG8_TEMPERATURES = (50.0, 60.0, 70.0, 80.0, 90.0)
FIG9_VPP_LEVELS = (2.5, 2.4, 2.3, 2.2, 2.1)

MAJX_POINT = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
"""The best MAJX timing configuration (Obs 7)."""


def majx_sizes_for(x: int, sizes: Sequence[int] = MAJ_SIZES) -> Tuple[int, ...]:
    """Activation sizes large enough to host MAJX operands."""
    return tuple(n for n in sizes if n >= x)


def build_majx_plan(
    scope: CharacterizationScope,
    x: int,
    n_rows: int,
    point: OperatingPoint,
    trials: Optional[int] = None,
    checkpoints: Tuple[int, ...] = (),
    empty_message: Optional[str] = None,
) -> TrialPlan:
    """The MAJX sweep as a declarative plan.

    Validates the request -- the group must host X operands and at
    least one module's vendor must reach this X -- *before* any bench
    environment is touched, so an impossible sweep leaves the rig
    exactly as it found it.
    """
    if n_rows < x:
        raise ExperimentError(f"{n_rows}-row activation cannot host MAJ{x}")
    tasks = tasks_for_scope(
        scope,
        n_rows,
        lambda bench: bench.module.config.columns_per_row,
        bench_predicate=lambda bench: bench.module.profile.max_reliable_majx >= x,
        trials=trials,
    )
    if not tasks:
        raise ExperimentError(
            empty_message
            or f"no module in scope supports MAJ{x} (vendor capability caps)"
        )
    return TrialPlan(
        name=f"maj{x}-{n_rows}",
        kernel=MajXKernel(x),
        point=point,
        tasks=tasks,
        benches=list(scope.benches),
        checkpoints=checkpoints,
    )


def majx_success_distribution(
    scope: CharacterizationScope,
    x: int,
    n_rows: int,
    point: OperatingPoint,
    executor: Optional[ExecutorBase] = None,
) -> DistributionSummary:
    """Success-rate distribution of MAJX with N-row activation.

    Modules whose vendor cannot reach this X (footnote 11: Mfr. M
    stops at MAJ7) are skipped, mirroring the paper's omission of
    <1%-success operations; if no module qualifies an error is raised
    before the scope's environment is modified.
    """
    result = run_plan(build_majx_plan(scope, x, n_rows, point), executor)
    return summarize(result.rates())


def program_fig6(
    scope: CharacterizationScope,
    sizes: Sequence[int] = MAJ_SIZES,
    t1_values: Sequence[float] = FIG6_T1_VALUES,
    t2_values: Sequence[float] = FIG6_T2_VALUES,
) -> ExperimentProgram:
    """Fig 6: MAJ3 success over the (t1, t2) grid and activation sizes.

    ``result[(t1, t2)][n_rows]``; see :mod:`repro.engine.scheduler`.
    """
    steps = []
    slots = []
    for t1 in t1_values:
        for t2 in t2_values:
            point = MAJX_POINT.with_timing(t1, t2)
            for n in sizes:
                steps.append(
                    PlanStep(build_majx_plan(scope, 3, n, point), _summarize_rates)
                )
                slots.append(((t1, t2), n))
    return ExperimentProgram(
        "fig6", tuple(steps), lambda values: _nested(slots, values)
    )


def _nested3(slots, values) -> Dict:
    """Rebuild ``{a: {b: {c: value}}}`` preserving slot order."""
    out: Dict = {}
    for (a, b, c), value in zip(slots, values):
        out.setdefault(a, {}).setdefault(b, {})[c] = value
    return out


def program_fig7(
    scope: CharacterizationScope,
    x_values: Sequence[int] = MAJX_VALUES,
    patterns: Sequence[DataPattern] = MAJX_TESTED_PATTERNS,
    sizes: Sequence[int] = MAJ_SIZES,
) -> ExperimentProgram:
    """Fig 7: MAJX success by data pattern and activation size.

    ``result[x][pattern_kind][n_rows]``.
    """
    supported = {
        x
        for x in x_values
        if any(b.module.profile.max_reliable_majx >= x for b in scope.benches)
    }
    steps = []
    slots = []
    for x in x_values:
        if x not in supported:
            continue
        for pattern in patterns:
            point = MAJX_POINT.with_pattern(pattern)
            for n in majx_sizes_for(x, sizes):
                steps.append(
                    PlanStep(build_majx_plan(scope, x, n, point), _summarize_rates)
                )
                slots.append((x, pattern.kind, n))
    return ExperimentProgram(
        "fig7", tuple(steps), lambda values: _nested3(slots, values)
    )


def program_fig8(
    scope: CharacterizationScope,
    x_values: Sequence[int] = MAJX_VALUES,
    temperatures: Sequence[float] = FIG8_TEMPERATURES,
    n_rows: int = 32,
) -> ExperimentProgram:
    """Fig 8: MAJX success distribution vs chip temperature.

    ``result[x][temperature]``.
    """
    steps = []
    slots = []
    for x in x_values:
        if not any(b.module.profile.max_reliable_majx >= x for b in scope.benches):
            continue
        for temp in temperatures:
            point = MAJX_POINT.with_temperature(temp)
            steps.append(
                PlanStep(build_majx_plan(scope, x, n_rows, point), _summarize_rates)
            )
            slots.append((x, temp))
    return ExperimentProgram(
        "fig8", tuple(steps), lambda values: _nested(slots, values)
    )


def program_fig9(
    scope: CharacterizationScope,
    x_values: Sequence[int] = MAJX_VALUES,
    vpp_levels: Sequence[float] = FIG9_VPP_LEVELS,
    n_rows: int = 32,
) -> ExperimentProgram:
    """Fig 9: MAJX success distribution vs wordline voltage.

    ``result[x][vpp]``.
    """
    steps = []
    slots = []
    for x in x_values:
        if not any(b.module.profile.max_reliable_majx >= x for b in scope.benches):
            continue
        for vpp in vpp_levels:
            point = MAJX_POINT.with_vpp(vpp)
            steps.append(
                PlanStep(build_majx_plan(scope, x, n_rows, point), _summarize_rates)
            )
            slots.append((x, vpp))
    return ExperimentProgram(
        "fig9", tuple(steps), lambda values: _nested(slots, values)
    )
