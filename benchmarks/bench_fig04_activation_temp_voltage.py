"""Fig 4: average many-row-activation success rate vs (a) temperature
and (b) wordline voltage.

Paper anchors: 50 -> 90 C changes success by only ~0.07% on average
(Obs 3); underscaling VPP 2.5 -> 2.1 V costs at most ~0.41% (Obs 4).
"""

import numpy as np

from _common import make_scope, emit, run_once

from repro.characterization.activation import (
    ACTIVATION_SIZES,
    program_fig4a,
    program_fig4b,
)
from repro.characterization.report import format_series_table


def bench_fig04a_temperature(benchmark):
    scope = make_scope(seed=3004)

    series = run_once(benchmark, lambda: program_fig4a(scope).run())

    table = {
        f"{temp:.0f}C": {n: series[temp][n] for n in ACTIVATION_SIZES}
        for temp in series
    }
    emit(
        "Fig 4a: activation success vs temperature (%, avg)",
        format_series_table("rows ->", table, column_order=ACTIVATION_SIZES),
    )

    drops = [
        abs(series[50.0][n] - series[90.0][n]) for n in ACTIVATION_SIZES
    ]
    # Obs 3: tiny average effect.
    assert float(np.mean(drops)) < 0.01


def bench_fig04b_voltage(benchmark):
    scope = make_scope(seed=3014)

    series = run_once(benchmark, lambda: program_fig4b(scope).run())

    table = {
        f"{vpp:.1f}V": {n: series[vpp][n] for n in ACTIVATION_SIZES}
        for vpp in series
    }
    emit(
        "Fig 4b: activation success vs wordline voltage (%, avg)",
        format_series_table("rows ->", table, column_order=ACTIVATION_SIZES),
    )

    for n in ACTIVATION_SIZES:
        drop = series[2.5][n] - series[2.1][n]
        # Obs 4: at most a small decrease.
        assert -0.002 <= drop < 0.03
