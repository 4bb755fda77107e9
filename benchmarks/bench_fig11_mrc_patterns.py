"""Fig 11: Multi-RowCopy data-pattern dependence.

Paper anchor (Obs 16): copying all-1s to 31 rows loses ~0.79% versus
all-0s/random; up to 15 destinations the patterns differ by <=0.11%.
"""

from _common import make_scope, emit, run_once

from repro.characterization.rowcopy import COPY_DESTINATIONS, program_fig11
from repro.characterization.report import format_series_table


def bench_fig11_mrc_patterns(benchmark):
    scope = make_scope(seed=3011)

    series = run_once(benchmark, lambda: program_fig11(scope).run())

    emit(
        "Fig 11: Multi-RowCopy success by data pattern (%, avg)",
        format_series_table(
            "destinations ->", series, column_order=COPY_DESTINATIONS
        ),
    )

    # Obs 16: all-1s worst at 31 destinations...
    assert series["all1"][31] <= series["all0"][31]
    assert series["all1"][31] <= series["random"][31]
    # ...but pattern differences stay small below that.
    for m in (1, 3, 7, 15):
        spread = max(s[m] for s in series.values()) - min(
            s[m] for s in series.values()
        )
        assert spread < 0.01, f"{m} destinations spread {spread}"
