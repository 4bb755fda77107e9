"""Fig 12: Multi-RowCopy success vs (a) temperature and (b) wordline
voltage.

Paper anchors (Obs 17-18): 50 -> 90 C moves the average success by
~0.04%; VPP 2.5 -> 2.1 V costs at most ~1.32%.
"""

import numpy as np

from _common import make_scope, emit, run_once

from repro.characterization.rowcopy import (
    COPY_DESTINATIONS,
    program_fig12a,
    program_fig12b,
)
from repro.characterization.report import format_series_table


def bench_fig12a_temperature(benchmark):
    scope = make_scope(seed=3012)

    series = run_once(benchmark, lambda: program_fig12a(scope).run())

    table = {
        f"{temp:.0f}C": values for temp, values in series.items()
    }
    emit(
        "Fig 12a: Multi-RowCopy success vs temperature (%, avg)",
        format_series_table(
            "destinations ->", table, column_order=COPY_DESTINATIONS
        ),
    )

    swings = [
        abs(series[50.0][m] - series[90.0][m]) for m in COPY_DESTINATIONS
    ]
    # Obs 17: negligible temperature effect.
    assert float(np.mean(swings)) < 0.005


def bench_fig12b_voltage(benchmark):
    scope = make_scope(seed=3022)

    series = run_once(benchmark, lambda: program_fig12b(scope).run())

    table = {f"{vpp:.1f}V": values for vpp, values in series.items()}
    emit(
        "Fig 12b: Multi-RowCopy success vs wordline voltage (%, avg)",
        format_series_table(
            "destinations ->", table, column_order=COPY_DESTINATIONS
        ),
    )

    for m in COPY_DESTINATIONS:
        drop = series[2.5][m] - series[2.1][m]
        # Obs 18: small decrease, growing with the activation count.
        assert -0.003 <= drop < 0.025
