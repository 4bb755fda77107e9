"""Fig 9: MAJX success rate at 2.5-2.1 V wordline voltage.

Paper anchor (Obs 13): ~1.1% average variation across the tested
operations -- VPP underscaling barely matters.
"""

import numpy as np

from _common import make_scope, emit, run_once

from repro.characterization.majority import program_fig9
from repro.characterization.report import format_series_table
from repro.dram.vendor import TESTED_MODULES


def bench_fig09_majx_voltage(benchmark):
    scope = make_scope(seed=3009, specs=TESTED_MODULES[:2])

    result = run_once(benchmark, lambda: program_fig9(scope).run())

    table = {
        f"MAJ{x}@32-row": {vpp: summary.mean for vpp, summary in by_vpp.items()}
        for x, by_vpp in result.items()
    }
    emit(
        "Fig 9: MAJX success vs wordline voltage (%, avg, 32-row)",
        format_series_table(
            "VPP ->", table, column_order=(2.5, 2.4, 2.3, 2.2, 2.1)
        ),
    )

    swings = []
    for x, by_vpp in result.items():
        swing = by_vpp[2.5].mean - by_vpp[2.1].mean
        swings.append(abs(swing))
        # Lower voltage never helps.
        assert swing >= -0.02
    # Obs 13: small average variation.
    assert float(np.mean(swings)) < 0.08
