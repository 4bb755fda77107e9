"""Fig 6: MAJ3 success rate vs APA timings and activation count.

Paper anchors (Obs 6-7): input replication raises MAJ3's success by
~30.8% from 4-row to 32-row activation; t1 = 1.5 / t2 = 3 ns is the
best timing, with t1 = 3 ns costing ~45.5% at 32 rows.
"""

from _common import make_scope, emit, run_once

from repro.characterization.majority import program_fig6
from repro.characterization.report import format_distribution_table
from repro.dram.vendor import TESTED_MODULES


def bench_fig06_maj3_timing_grid(benchmark):
    # MAJ experiments run on the MAJX-capable H-die modules plus one
    # Micron module, as in the paper's per-mfr breakdown.
    scope = make_scope(seed=3006, specs=TESTED_MODULES[:3])

    grid = run_once(benchmark, lambda: program_fig6(scope).run())

    for (t1, t2), by_size in grid.items():
        rows = {f"MAJ3@{n}-row": summary for n, summary in by_size.items()}
        emit(
            f"Fig 6 [t1={t1}ns, t2={t2}ns]: MAJ3 success (%)",
            format_distribution_table("success-rate distribution", rows),
        )

    best = grid[(1.5, 3.0)]
    # Obs 6: replication helps dramatically.
    replication_gain = best[32].mean - best[4].mean
    assert 0.15 < replication_gain < 0.6
    # Obs 7: (1.5, 3.0) beats (3.0, 3.0) by a wide margin at 32 rows.
    assert best[32].mean - grid[(3.0, 3.0)][32].mean > 0.2
    # Short t2 prevents reliable decoder assertion.
    assert grid[(1.5, 1.5)][32].mean < best[32].mean
    # Monotone in replication at the best timing.
    means = [best[n].mean for n in (4, 8, 16, 32)]
    assert means == sorted(means)
