"""Tests for the characterization data patterns."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.patterns import (
    COPY_TESTED_PATTERNS,
    DataPattern,
    MAJX_TESTED_PATTERNS,
    PATTERN_00FF,
    PATTERN_6699,
    PATTERN_AA55,
    PATTERN_ALL0,
    PATTERN_ALL1,
    PATTERN_RANDOM,
    byte_to_bits,
)
from repro.errors import ConfigurationError


class TestByteToBits:
    def test_0xaa_alternates(self):
        assert np.array_equal(byte_to_bits(0xAA, 8), [1, 0, 1, 0, 1, 0, 1, 0])

    def test_tiles_across_row(self):
        bits = byte_to_bits(0xFF, 20)
        assert bits.shape == (20,)
        assert bits.all()

    @given(st.integers(min_value=0, max_value=255))
    def test_period_eight(self, byte):
        bits = byte_to_bits(byte, 64)
        assert np.array_equal(bits[:8], bits[8:16])

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            byte_to_bits(256, 8)


class TestPatterns:
    def test_catalog_sizes(self):
        # Five MAJX patterns (Fig 7), three copy patterns (Fig 11).
        assert len(MAJX_TESTED_PATTERNS) == 5
        assert len(COPY_TESTED_PATTERNS) == 3

    def test_random_rows_differ_per_identity(self):
        a = PATTERN_RANDOM.row_bits(256, "row", 1)
        b = PATTERN_RANDOM.row_bits(256, "row", 2)
        assert not np.array_equal(a, b)

    def test_random_rows_reproducible(self):
        a = PATTERN_RANDOM.row_bits(256, "row", 1)
        b = PATTERN_RANDOM.row_bits(256, "row", 1)
        assert np.array_equal(a, b)

    def test_fixed_pattern_uses_pair_bytes(self):
        bits = PATTERN_AA55.row_bits(64, "x")
        grouped = np.packbits(bits.reshape(-1, 8), axis=1).ravel()
        assert set(int(b) for b in grouped) <= {0xAA, 0x55}
        assert len(set(int(b) for b in grouped)) == 1  # whole row one byte

    def test_all0_all1(self):
        assert not PATTERN_ALL0.row_bits(64, "y").any()
        assert PATTERN_ALL1.row_bits(64, "y").all()

    def test_inverse_bits(self):
        bits = PATTERN_00FF.row_bits(64, "z")
        inverse = PATTERN_00FF.inverse_bits(bits)
        assert np.array_equal(bits ^ 1, inverse)

    def test_operand_bits_differ_across_operands(self):
        a = PATTERN_RANDOM.operand_bits(256, 0, "t")
        b = PATTERN_RANDOM.operand_bits(256, 1, "t")
        assert not np.array_equal(a, b)

    def test_kind_tokens_match_reliability_model(self):
        # behaviour keys on these tokens for the pattern bonus.
        kinds = {p.kind for p in MAJX_TESTED_PATTERNS}
        assert kinds == {"random", "00ff", "aa55", "cc33", "6699"}

    def test_random_pattern_rejects_byte_pair(self):
        with pytest.raises(ConfigurationError):
            DataPattern("random", (0, 1))

    def test_fixed_pattern_requires_byte_pair(self):
        with pytest.raises(ConfigurationError):
            DataPattern("00ff")

    def test_pattern_6699_bytes(self):
        bits = PATTERN_6699.row_bits(16, "q")
        byte = int(np.packbits(bits[:8])[0])
        assert byte in (0x66, 0x99)


FIXED_PAIRS = tuple(
    pattern
    for pattern in dict.fromkeys(MAJX_TESTED_PATTERNS + COPY_TESTED_PATTERNS)
    if not pattern.is_random
)

BLOCK_IDENTITIES = [
    ("operand", op, "module#0", bank, trial)
    for op in range(3)
    for bank in (0, 1)
    for trial in range(6)
] + [("mrc-src", "module#1", 0, 2**40), ("act-wr", 7, -1), (), ("x",)]
"""Operand-, source- and reference-shaped keys plus odd lengths."""


class TestRowBitsBlock:
    """The block draw equals the per-row draw it gathers, dtype included."""

    @pytest.mark.parametrize(
        "pattern", FIXED_PAIRS + (PATTERN_RANDOM,), ids=lambda p: p.kind
    )
    @pytest.mark.parametrize("columns", [8, 64, 100])
    def test_matches_stacked_row_bits(self, pattern, columns):
        block = pattern.row_bits_block(columns, BLOCK_IDENTITIES)
        stacked = np.stack(
            [pattern.row_bits(columns, *identity) for identity in BLOCK_IDENTITIES]
        )
        assert block.dtype == stacked.dtype == np.uint8
        assert np.array_equal(block, stacked)

    def test_fixed_pairs_cover_fig7_and_fig11(self):
        kinds = {pattern.kind for pattern in FIXED_PAIRS}
        assert kinds == {"00ff", "aa55", "cc33", "6699", "all0", "all1"}

    def test_both_bytes_of_a_pair_appear(self):
        block = PATTERN_AA55.row_bits_block(8, BLOCK_IDENTITIES)
        assert {int(np.packbits(row)[0]) for row in block} == {0xAA, 0x55}

    @pytest.mark.parametrize(
        "pattern", FIXED_PAIRS + (PATTERN_RANDOM,), ids=lambda p: p.kind
    )
    def test_empty_identities(self, pattern):
        block = pattern.row_bits_block(64, [])
        assert block.shape == (0, 64)
        assert block.dtype == np.uint8
