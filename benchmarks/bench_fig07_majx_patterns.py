"""Fig 7: MAJ3/5/7/9 success rates under five data patterns.

Paper anchors (Obs 8-10): MAJ5/7/9 achieve ~79.6 / 33.9 / 5.9%
average success at 32-row activation with random data; fixed byte
patterns add up to ~32.6%; replication helps every X.
"""

from _common import make_scope, emit, run_once

from repro.characterization.majority import program_fig7
from repro.characterization.report import format_distribution_table
from repro.dram.vendor import TESTED_MODULES


def bench_fig07_majx_patterns(benchmark):
    scope = make_scope(seed=3007, specs=TESTED_MODULES[:2])

    result = run_once(benchmark, lambda: program_fig7(scope).run())

    for x, per_pattern in result.items():
        rows = {}
        for kind, by_size in per_pattern.items():
            for n, summary in by_size.items():
                rows[f"MAJ{x} {kind} @{n}-row"] = summary
        emit(
            f"Fig 7 (MAJ{x}): success by data pattern (%)",
            format_distribution_table("success-rate distribution", rows),
        )

    # Obs 8: all four X values are demonstrated, ordered by hardness.
    at32 = {x: result[x]["random"][32].mean for x in (3, 5, 7, 9)}
    assert at32[3] > at32[5] > at32[7] > at32[9]
    assert at32[3] > 0.9
    assert at32[9] < 0.35
    # Obs 9: the fixed 0x00/0xFF pattern beats random for every X.
    for x in (3, 5, 7, 9):
        assert result[x]["00ff"][32].mean >= result[x]["random"][32].mean
    # Obs 10: replication raises success for the harder X too.
    assert result[5]["random"][32].mean > result[5]["random"][8].mean
    assert result[9]["random"][32].mean >= result[9]["random"][16].mean
