"""Fig 3: success rate of simultaneous many-row activation vs the
APA timing delays t1 (ACT->PRE) and t2 (PRE->ACT).

Paper anchors (Obs 1-2): with t1 = t2 = 3 ns, 2/4/8/16/32-row
activation succeeds at 99.99..99.85%; dropping t2 to 1.5 ns loses
~21.7% at 8 rows.
"""

from _common import make_scope, emit, run_once

from repro.characterization.activation import program_fig3
from repro.characterization.report import format_distribution_table


def bench_fig03_activation_timing_grid(benchmark):
    scope = make_scope(seed=3003)

    grid = run_once(benchmark, lambda: program_fig3(scope).run())

    for (t1, t2), by_size in grid.items():
        rows = {f"{n}-row": summary for n, summary in by_size.items()}
        emit(
            f"Fig 3 [t1={t1}ns, t2={t2}ns]: many-row activation success (%)",
            format_distribution_table("success-rate distribution", rows),
        )

    best = grid[(3.0, 3.0)]
    worst = grid[(1.5, 1.5)]
    # Obs 1: >99.5% average at the best timings for every size.
    for n, summary in best.items():
        assert summary.mean > 0.985, f"{n}-row activation too low"
    # 32-row is the hardest case but still >99%.
    assert best[32].mean > 0.985
    # Obs 2: t2 = 1.5 ns drops success drastically (tens of percent).
    assert best[8].mean - worst[8].mean > 0.10
    # Monotone: more rows never easier than fewer at violated timing.
    assert worst[32].mean <= worst[2].mean
