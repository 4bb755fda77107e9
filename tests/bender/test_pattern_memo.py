"""The host's pattern memo: each distinct test-data row drawn once per
bench, and every fused result still equal to the serial reference.

A sweep writes the same pattern rows at every operating point, so the
fused kernels read them through ``TestHost.pattern_rows``.  The serial
reference keeps calling ``DataPattern.row_bits`` itself, so these tests
compare the memoized fused path against a reference that shares no
state with it.
"""

import numpy as np
import pytest

from repro import rng, rngblock
from repro.bender import host as host_module
from repro.bender.testbench import TestBench
from repro.characterization.activation import build_activation_plan
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.characterization.majority import MAJX_POINT, build_majx_plan
from repro.characterization.rowcopy import build_copy_plan
from repro.chaos import ChaosConfig, ChaosHarness
from repro.config import SimulationConfig
from repro.core.patterns import (
    PATTERN_00FF,
    PATTERN_ALL0,
    PATTERN_ALL1,
    PATTERN_RANDOM,
    DataPattern,
)
from repro.dram.vendor import TESTED_MODULES
from repro.engine import FusedExecutor, SerialExecutor

COLUMNS = 64
PATTERNS = [PATTERN_RANDOM, PATTERN_00FF, PATTERN_ALL0, PATTERN_ALL1]


def make_scope():
    return CharacterizationScope.build(
        config=SimulationConfig(seed=29, columns_per_row=COLUMNS),
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def make_host():
    config = SimulationConfig(seed=3, columns_per_row=COLUMNS)
    return TestBench.for_spec(TESTED_MODULES[0], config=config).host


def assert_outcomes_identical(reference, candidate):
    assert len(reference.outcomes) == len(candidate.outcomes)
    for ours, theirs in zip(reference.outcomes, candidate.outcomes):
        assert ours.rate == theirs.rate
        assert np.array_equal(ours.mask, theirs.mask)


# Two fused operating points per kernel.  The pattern identities do not
# mention the point, so the second point's rows all come from the memo.
SWEEPS = {
    "activation": lambda scope, pattern: [
        build_activation_plan(
            scope, 8, OperatingPoint(t1_ns=t1, t2_ns=3.0, pattern=pattern)
        )
        for t1 in (1.5, 3.0)
    ],
    "majx": lambda scope, pattern: [
        build_majx_plan(
            scope, 3, 8, OperatingPoint(
                t1_ns=MAJX_POINT.t1_ns, t2_ns=MAJX_POINT.t2_ns,
                temperature_c=temperature, pattern=pattern,
            )
        )
        for temperature in (50.0, 80.0)
    ],
    # The copy regime, then the short-t1 charge-sharing regime.
    "copy": lambda scope, pattern: [
        build_copy_plan(
            scope, 3, OperatingPoint(t1_ns=t1, t2_ns=3.0, pattern=pattern)
        )
        for t1 in (9.0, 3.0)
    ],
}


@pytest.fixture()
def drawn(monkeypatch):
    """Identities ``DataPattern.row_bits_block`` hashed and drew."""
    counts = []
    original = DataPattern.row_bits_block

    def counting(self, columns, identities):
        counts.append(len(identities))
        return original(self, columns, identities)

    monkeypatch.setattr(DataPattern, "row_bits_block", counting)
    return counts


class TestFusedMatchesSerial:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.kind)
    @pytest.mark.parametrize("kernel", sorted(SWEEPS))
    def test_second_point_is_served_from_the_memo(
        self, kernel, pattern, drawn
    ):
        fused_scope = make_scope()
        for index, plan in enumerate(SWEEPS[kernel](fused_scope, pattern)):
            drawn.clear()
            fused = FusedExecutor().run(plan)
            if index == 0:
                assert sum(drawn) > 0
            else:
                assert sum(drawn) == 0, drawn
            reference_plan = SWEEPS[kernel](make_scope(), pattern)[index]
            assert_outcomes_identical(
                SerialExecutor().run(reference_plan), fused
            )

    def test_fresh_scope_after_a_bit_flip_matches_serial(self):
        # A memo that outlived its bench would serve the flipped rows
        # to every later scope of the same shape.
        plan = SWEEPS["majx"]
        mutated_scope = make_scope()
        with pytest.MonkeyPatch.context() as patch:
            original = rngblock.uniform_bit_block

            def flipped(seeds, n_bits):
                bits = original(seeds, n_bits)
                bits[:, 0] ^= 1
                return bits

            patch.setattr(rngblock, "uniform_bit_block", flipped)
            FusedExecutor().run(plan(mutated_scope, PATTERN_RANDOM)[0])
        host = mutated_scope.benches[0].host
        # The kernels' identities are plain tuples, their own keys.
        identities = list(host._pattern_memo[(PATTERN_RANDOM, COLUMNS)])
        assert identities
        stale = host.pattern_rows(PATTERN_RANDOM, COLUMNS, identities)
        fresh = PATTERN_RANDOM.row_bits_block(COLUMNS, identities)
        assert np.array_equal(stale[:, 0], 1 - fresh[:, 0])
        assert_outcomes_identical(
            SerialExecutor().run(plan(make_scope(), PATTERN_RANDOM)[0]),
            FusedExecutor().run(plan(make_scope(), PATTERN_RANDOM)[0]),
        )


IDENTITIES = [
    ("operand", op, "M0", 0, trial) for trial in range(3) for op in range(3)
]


class TestPatternRows:
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.kind)
    def test_rows_equal_the_unmemoized_block(self, pattern, drawn):
        host = make_host()
        expected = pattern.row_bits_block(COLUMNS, IDENTITIES)
        # Repeats inside one call are drawn once, too.
        first = host.pattern_rows(pattern, COLUMNS, IDENTITIES + IDENTITIES[:2])
        second = host.pattern_rows(pattern, COLUMNS, IDENTITIES[::-1])
        assert np.array_equal(first, np.concatenate([expected, expected[:2]]))
        assert np.array_equal(second, expected[::-1])
        assert drawn == [len(IDENTITIES)] * 2  # the reference, then the memo

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.kind)
    def test_mutating_a_returned_block_leaves_the_next_call_unchanged(
        self, pattern
    ):
        host = make_host()
        first = host.pattern_rows(pattern, COLUMNS, IDENTITIES)
        kept = first.copy()
        first ^= 1
        assert np.array_equal(host.pattern_rows(pattern, COLUMNS, IDENTITIES), kept)

    def test_equal_tuples_with_distinct_encodings_stay_distinct(self, drawn):
        host = make_host()
        for identities in (
            [("x", 1), ("x", True)],
            [("x", 1.0), ("x", 0.0), ("x", -0.0)],
        ):
            for _ in range(2):
                rows = host.pattern_rows(PATTERN_RANDOM, COLUMNS, identities)
                for row, identity in zip(rows, identities):
                    assert np.array_equal(
                        row, PATTERN_RANDOM.row_bits(COLUMNS, *identity)
                    )
                assert len({row.tobytes() for row in rows}) == len(identities)
        # The int/bool pair is drawn once; float identities skip the memo.
        assert drawn == [2, 3, 3]

    def test_the_byte_cap_holds(self, monkeypatch, drawn):
        cap = 10 * (host_module._MEMO_ENTRY_BYTES + COLUMNS // 8)
        monkeypatch.setattr(host_module, "PATTERN_MEMO_BYTES", cap)
        host = make_host()
        for batch in range(6):
            identities = [("cap", batch, i) for i in range(4)]
            rows = host.pattern_rows(PATTERN_RANDOM, COLUMNS, identities)
            assert np.array_equal(
                rows, PATTERN_RANDOM.row_bits_block(COLUMNS, identities)
            )
            assert 0 < host._pattern_memo_bytes <= cap
        # Twelve rows cannot fit: each call is drawn whole, nothing kept.
        drawn.clear()
        wide = [("wide", i) for i in range(12)]
        for _ in range(2):
            assert np.array_equal(
                host.pattern_rows(PATTERN_RANDOM, COLUMNS, wide),
                PATTERN_RANDOM.row_bits_block(COLUMNS, wide),
            )
        assert drawn == [12, 12] * 2
        assert host._pattern_memo_bytes == 0

    def test_a_chaotic_host_reads_the_same_rows_from_the_same_memo(
        self, drawn
    ):
        config = SimulationConfig(seed=3, columns_per_row=COLUMNS)
        bench = TestBench.for_spec(TESTED_MODULES[0], config=config)
        plain = bench.host.pattern_rows(PATTERN_RANDOM, COLUMNS, IDENTITIES)
        with ChaosHarness(ChaosConfig.light(seed=11)).installed([bench]):
            assert bench.host is not bench.host.wrapped
            chaotic = bench.host.pattern_rows(PATTERN_RANDOM, COLUMNS, IDENTITIES)
        assert np.array_equal(plain, chaotic)
        assert drawn == [len(IDENTITIES)]


class TestSignedZero:
    def test_one_encoder_keeps_zero_and_negative_zero_apart(self):
        encoder = rng.TokenEncoder()
        assert encoder(0.0) == rng.encode_token(0.0)
        assert encoder(-0.0) == rng.encode_token(-0.0) != rng.encode_token(0.0)

    @pytest.mark.parametrize("pattern", [PATTERN_RANDOM, PATTERN_00FF],
                             ids=lambda p: p.kind)
    def test_one_block_keeps_zero_and_negative_zero_apart(self, pattern):
        identities = [("z", 0.0), ("z", -0.0)]
        block = pattern.row_bits_block(COLUMNS, identities)
        for row, identity in zip(block, identities):
            assert np.array_equal(row, pattern.row_bits(COLUMNS, *identity))
