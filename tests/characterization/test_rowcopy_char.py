"""Shape tests for the section 6 Multi-RowCopy characterization."""

import pytest

from repro.characterization.experiment import CharacterizationScope
from repro.characterization.rowcopy import (
    COPY_POINT,
    program_fig11,
    multi_row_copy_distribution,
)
from repro.config import SimulationConfig
from repro.core.patterns import PATTERN_ALL1
from repro.dram.vendor import TESTED_MODULES


@pytest.fixture(scope="module")
def scope():
    config = SimulationConfig(seed=17, columns_per_row=256)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=3,
        trials=5,
    )


class TestObservation14:
    @pytest.mark.parametrize("m", [1, 3, 7, 15, 31])
    def test_very_high_success_at_best_timing(self, scope, m):
        summary = multi_row_copy_distribution(scope, m, COPY_POINT)
        assert summary.mean > 0.995


class TestObservation15:
    def test_short_t1_collapses(self, scope):
        good = multi_row_copy_distribution(scope, 7, COPY_POINT)
        bad = multi_row_copy_distribution(
            scope, 7, COPY_POINT.with_timing(1.5, 3.0)
        )
        assert good.mean - bad.mean > 0.3


class TestObservation16:
    def test_all_ones_to_31_rows_slightly_worse(self, scope):
        series = program_fig11(scope, destinations=(31,)).run()
        assert series["all1"][31] < series["all0"][31]
        assert series["all1"][31] < series["random"][31]

    def test_small_pattern_effect_below_15(self, scope):
        nominal = multi_row_copy_distribution(scope, 7, COPY_POINT)
        ones = multi_row_copy_distribution(
            scope, 7, COPY_POINT.with_pattern(PATTERN_ALL1)
        )
        assert abs(nominal.mean - ones.mean) < 0.01


class TestObservations17And18:
    def test_temperature_negligible(self, scope):
        cool = multi_row_copy_distribution(scope, 15, COPY_POINT)
        hot = multi_row_copy_distribution(
            scope, 15, COPY_POINT.with_temperature(90.0)
        )
        assert abs(cool.mean - hot.mean) < 0.005

    def test_voltage_small(self, scope):
        nominal = multi_row_copy_distribution(scope, 15, COPY_POINT)
        low = multi_row_copy_distribution(
            scope, 15, COPY_POINT.with_vpp(2.1)
        )
        assert 0.0 <= nominal.mean - low.mean < 0.02
