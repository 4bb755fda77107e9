"""Fig 8: MAJX success rate at 50-90 C chip temperature.

Paper anchors (Obs 11-12): temperature moves MAJX success only
slightly (~4.25% average variation, trending *upward* with heat), and
replication damps the sensitivity.
"""

from _common import make_scope, emit, run_once

from repro.characterization.majority import program_fig8
from repro.characterization.report import format_series_table
from repro.dram.vendor import TESTED_MODULES


def bench_fig08_majx_temperature(benchmark):
    scope = make_scope(seed=3008, specs=TESTED_MODULES[:2])

    result = run_once(benchmark, lambda: program_fig8(scope).run())

    table = {
        f"MAJ{x}@32-row": {temp: summary.mean for temp, summary in by_temp.items()}
        for x, by_temp in result.items()
    }
    emit(
        "Fig 8: MAJX success vs temperature (%, avg, 32-row)",
        format_series_table(
            "temperature ->", table, column_order=(50.0, 60.0, 70.0, 80.0, 90.0)
        ),
    )

    for x, by_temp in result.items():
        # Obs 11: higher temperature never hurts much, usually helps.
        assert by_temp[90.0].mean >= by_temp[50.0].mean - 0.02
    # The mid-success operations move the most (Gaussian-link effect);
    # MAJ3 at 32 rows barely moves (Obs 12).
    maj3_swing = abs(result[3][90.0].mean - result[3][50.0].mean)
    maj7_swing = abs(result[7][90.0].mean - result[7][50.0].mean)
    assert maj3_swing < 0.05
    assert maj7_swing >= maj3_swing
