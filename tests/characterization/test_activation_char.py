"""Shape tests for the section 4 activation characterization.

These assert the paper's *observations* hold in the reproduction --
not exact numbers, but directions and magnitudes.
"""

import pytest

from repro.characterization.activation import (
    activation_success_distribution,
    program_fig4a,
    program_fig4b,
)
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES


@pytest.fixture(scope="module")
def scope():
    config = SimulationConfig(seed=9, columns_per_row=256)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=3,
        trials=5,
    )


BEST = OperatingPoint(t1_ns=3.0, t2_ns=3.0)


class TestObservation1:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_high_success_at_best_timing(self, scope, n):
        summary = activation_success_distribution(scope, n, BEST)
        assert summary.mean > 0.985

    def test_32_rows_slightly_below_2_rows(self, scope):
        two = activation_success_distribution(scope, 2, BEST)
        many = activation_success_distribution(scope, 32, BEST)
        assert two.mean >= many.mean


class TestObservation2:
    def test_short_t2_drastically_lower(self, scope):
        good = activation_success_distribution(scope, 8, BEST)
        bad = activation_success_distribution(
            scope, 8, BEST.with_timing(1.5, 1.5)
        )
        assert good.mean - bad.mean > 0.10


class TestObservation3:
    def test_temperature_effect_small(self, scope):
        series = program_fig4a(
            scope, sizes=(8,), temperatures=(50.0, 90.0)
        ).run()
        drop = series[50.0][8] - series[90.0][8]
        assert abs(drop) < 0.02


class TestObservation4:
    def test_voltage_effect_small_and_negative(self, scope):
        series = program_fig4b(scope, sizes=(16,), vpp_levels=(2.5, 2.1)).run()
        drop = series[2.5][16] - series[2.1][16]
        assert 0.0 <= drop < 0.03
