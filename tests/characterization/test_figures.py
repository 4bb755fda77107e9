"""Smoke coverage of every figure program.

The benchmarks exercise these at realistic scale; these tests pin the
*interfaces* (grid keys, nesting, value ranges) at a tiny scale so a
refactor cannot silently change a figure's data layout.
"""

import pytest

from repro.characterization.activation import (
    program_fig3,
    program_fig4a,
    program_fig4b,
)
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.majority import (
    program_fig6,
    program_fig7,
    program_fig8,
    program_fig9,
)
from repro.characterization.rowcopy import (
    program_fig10,
    program_fig11,
    program_fig12a,
    program_fig12b,
)
from repro.characterization.stats import DistributionSummary
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES


@pytest.fixture(scope="module")
def tiny_scope():
    config = SimulationConfig(seed=41, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def assert_summaries(mapping):
    for value in mapping.values():
        assert isinstance(value, DistributionSummary)
        assert 0.0 <= value.mean <= 1.0


class TestActivationFigures:
    def test_fig3_grid_layout(self, tiny_scope):
        grid = program_fig3(
            tiny_scope, sizes=(2, 8), t1_values=(3.0,), t2_values=(1.5, 3.0)
        ).run()
        assert set(grid) == {(3.0, 1.5), (3.0, 3.0)}
        for cell in grid.values():
            assert set(cell) == {2, 8}
            assert_summaries(cell)

    def test_fig4a_layout(self, tiny_scope):
        series = program_fig4a(
            tiny_scope, sizes=(4,), temperatures=(50.0, 90.0)
        ).run()
        assert set(series) == {50.0, 90.0}
        assert 0.0 <= series[50.0][4] <= 1.0

    def test_fig4b_layout(self, tiny_scope):
        series = program_fig4b(tiny_scope, sizes=(4,), vpp_levels=(2.5,)).run()
        assert set(series) == {2.5}


class TestMajorityFigures:
    def test_fig6_layout(self, tiny_scope):
        grid = program_fig6(
            tiny_scope, sizes=(4, 32), t1_values=(1.5,), t2_values=(3.0,)
        ).run()
        assert set(grid) == {(1.5, 3.0)}
        assert set(grid[(1.5, 3.0)]) == {4, 32}
        assert_summaries(grid[(1.5, 3.0)])

    def test_fig7_layout_and_capability_filter(self, tiny_scope):
        from repro.core.patterns import PATTERN_00FF, PATTERN_RANDOM

        result = program_fig7(
            tiny_scope,
            x_values=(3, 9),
            patterns=(PATTERN_RANDOM, PATTERN_00FF),
            sizes=(16, 32),
        ).run()
        assert set(result) == {3, 9}  # Mfr. H supports both
        assert set(result[3]) == {"random", "00ff"}
        assert set(result[3]["random"]) == {16, 32}
        assert set(result[9]["random"]) == {16, 32}

    def test_fig8_layout(self, tiny_scope):
        result = program_fig8(
            tiny_scope, x_values=(3,), temperatures=(50.0,), n_rows=8
        ).run()
        assert set(result) == {3}
        assert set(result[3]) == {50.0}

    def test_fig9_layout(self, tiny_scope):
        result = program_fig9(
            tiny_scope, x_values=(5,), vpp_levels=(2.5, 2.1), n_rows=8
        ).run()
        assert set(result[5]) == {2.5, 2.1}


class TestRowCopyFigures:
    def test_fig10_layout(self, tiny_scope):
        grid = program_fig10(
            tiny_scope, destinations=(1, 3), t1_values=(36.0,), t2_values=(3.0,)
        ).run()
        assert set(grid) == {(36.0, 3.0)}
        assert set(grid[(36.0, 3.0)]) == {1, 3}
        assert_summaries(grid[(36.0, 3.0)])

    def test_fig11_layout(self, tiny_scope):
        series = program_fig11(tiny_scope, destinations=(3,)).run()
        assert set(series) == {"all0", "all1", "random"}
        for values in series.values():
            assert set(values) == {3}

    def test_fig12a_layout(self, tiny_scope):
        series = program_fig12a(
            tiny_scope, destinations=(1,), temperatures=(50.0,)
        ).run()
        assert series[50.0][1] > 0.9

    def test_fig12b_layout(self, tiny_scope):
        series = program_fig12b(
            tiny_scope, destinations=(1,), vpp_levels=(2.5,)
        ).run()
        assert series[2.5][1] > 0.9
