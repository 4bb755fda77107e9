"""End-to-end integration tests crossing every layer.

These replay the paper's full experimental flow on one simulated
module: reverse-engineer the subarray layout, characterize an
operation through the testbench, and verify the pieces agree with
each other.
"""

import pytest

from repro import SimulationConfig, TestBench, TESTED_MODULES
from repro.characterization import (
    CharacterizationScope,
    OperatingPoint,
    activation_success_distribution,
)
from repro.characterization.majority import MAJX_POINT, majx_success_distribution
from repro.core import (
    discover_subarray_size,
    execute_multi_row_copy,
    plan_majx,
    execute_majx,
    sample_groups,
)
from repro.core.patterns import PATTERN_RANDOM


class TestFullPipeline:
    def test_discovery_matches_profile_then_operations_work(self):
        config = SimulationConfig(seed=77, columns_per_row=128)
        bench = TestBench.for_spec(TESTED_MODULES[0], config=config)

        # 1. Reverse-engineer the subarray size (section 3.1).
        size = discover_subarray_size(bench, 0, max_rows=520)
        assert size == bench.module.profile.subarray_rows

        # 2. Use the discovered size to sample a 32-row group and run
        #    a MAJ3 with full replication at the best timings.
        group = sample_groups(0, size, 32, 1, "pipeline")[0]
        plan = plan_majx(3, group)
        operands = [
            PATTERN_RANDOM.operand_bits(config.columns_per_row, i, "pl")
            for i in range(3)
        ]
        result = execute_majx(bench, 0, plan, operands)
        assert result.semantic == "majority"
        assert result.success_fraction > 0.9

        # 3. Multi-RowCopy on the same module, different subarray.
        group2 = sample_groups(1, size, 8, 1, "pipeline-copy")[0]
        bank = bench.module.bank(0)
        source = PATTERN_RANDOM.row_bits(config.columns_per_row, "src")
        rows = group2.global_rows(size)
        for row in rows:
            bank.write_row(row, source ^ 1)
        bank.write_row(group2.global_pair(size)[0], source)
        copy = execute_multi_row_copy(bench, 0, group2)
        assert copy.success_fraction > 0.99

    def test_characterization_replication_effect_end_to_end(self):
        config = SimulationConfig(seed=78, columns_per_row=128)
        scope = CharacterizationScope.build(
            config=config,
            specs=TESTED_MODULES[:1],
            modules_per_spec=1,
            groups_per_size=2,
            trials=4,
        )
        maj3_4 = majx_success_distribution(scope, 3, 4, MAJX_POINT)
        maj3_32 = majx_success_distribution(scope, 3, 32, MAJX_POINT)
        assert maj3_32.mean > maj3_4.mean
        activation = activation_success_distribution(
            scope, 32, OperatingPoint()
        )
        assert activation.mean > maj3_4.mean

    def test_environment_sweep_through_testbench(self):
        config = SimulationConfig(seed=79, columns_per_row=128)
        bench = TestBench.for_spec(TESTED_MODULES[0], config=config)
        group = sample_groups(0, 512, 16, 1, "env")[0]
        plan = plan_majx(3, group)
        columns = config.columns_per_row
        operands = [
            PATTERN_RANDOM.operand_bits(columns, i, "env") for i in range(3)
        ]
        fractions = {}
        for temp in (50.0, 90.0):
            bench.set_temperature(temp)
            result = execute_majx(bench, 0, plan, operands)
            fractions[temp] = result.success_fraction
        # Higher temperature helps MAJX (Obs 11).
        assert fractions[90.0] >= fractions[50.0] - 0.02

    def test_fleet_reproducibility(self):
        config = SimulationConfig(seed=81, columns_per_row=128)
        def measure():
            scope = CharacterizationScope.build(
                config=config,
                specs=TESTED_MODULES[:1],
                modules_per_spec=1,
                groups_per_size=2,
                trials=3,
            )
            return activation_success_distribution(
                scope, 8, OperatingPoint()
            ).mean
        assert measure() == measure()
