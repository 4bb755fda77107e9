"""Fig 10: Multi-RowCopy success rate vs APA timings.

Paper anchors (Obs 14-15): with t1 = 36 ns (full tRAS) and t2 = 3 ns,
copying to 1/3/7/15/31 rows succeeds at >=99.98%; t1 = 1.5 ns
collapses (~49.8% below the second-worst configuration).
"""

from _common import make_scope, emit, run_once

from repro.characterization.rowcopy import program_fig10
from repro.characterization.report import format_distribution_table


def bench_fig10_mrc_timing_grid(benchmark):
    scope = make_scope(seed=3010)

    grid = run_once(benchmark, lambda: program_fig10(scope).run())

    for (t1, t2), by_dest in grid.items():
        rows = {f"->{m} rows": summary for m, summary in by_dest.items()}
        emit(
            f"Fig 10 [t1={t1}ns, t2={t2}ns]: Multi-RowCopy success (%)",
            format_distribution_table("success-rate distribution", rows),
        )

    best = grid[(36.0, 3.0)]
    # Obs 14: very high success for every destination count.
    for m, summary in best.items():
        assert summary.mean > 0.993, f"{m} destinations too low"
    # Obs 15: t1 = 1.5 ns collapses far below the best config (at high
    # trial counts both short-t1 configs can bottom out at exactly 0).
    collapsed = grid[(1.5, 3.0)]
    assert best[31].mean - collapsed[31].mean > 0.3
    mid = grid[(3.0, 3.0)]
    assert collapsed[31].mean <= mid[31].mean + 0.05
