"""``pattern_regularity_block`` against the per-matrix loop it replaced.

The fused charge-share path scores a whole ``(trials, rows, columns)``
stack at once.  Its per-trial value feeds ``majority_column_z``, so it
must equal the original per-matrix score exactly, float for float.
"""

import numpy as np
import pytest

from repro.core.patterns import byte_to_bits
from repro.dram.bank import (
    _FIXED_BYTE_WEIGHTS,
    _OTHER_BYTE_WEIGHT,
    pattern_regularity,
    pattern_regularity_block,
)
from repro.dram.cell import LEVEL_HALF, bits_to_levels


def frozen_pattern_regularity(levels: np.ndarray) -> float:
    """The per-matrix loop as it stood before the block form."""
    levels = np.asarray(levels)
    columns = levels.shape[1] if levels.ndim == 2 else 0
    if columns % 8 != 0 or columns == 0:
        return 0.0
    weights = []
    for row_levels in levels:
        if np.any(row_levels == LEVEL_HALF):
            continue
        bits = (row_levels >= 2).astype(np.uint8)
        grouped = bits.reshape(-1, 8)
        if not np.all(grouped == grouped[0]):
            return 0.0
        byte = int(np.packbits(grouped[0])[0])
        weights.append(_FIXED_BYTE_WEIGHTS.get(byte, _OTHER_BYTE_WEIGHT))
    if not weights:
        return 0.0
    return float(np.mean(weights))


def byte_rows(byte_matrix, columns: int) -> np.ndarray:
    """A ``(trials, rows, columns)`` level stack, one byte per row."""
    byte_matrix = np.asarray(byte_matrix)
    trials, rows = byte_matrix.shape
    levels = np.empty((trials, rows, columns), dtype=np.uint8)
    for t in range(trials):
        for r in range(rows):
            levels[t, r] = bits_to_levels(
                byte_to_bits(int(byte_matrix[t, r]), columns)
            )
    return levels


def assert_matches_frozen(levels: np.ndarray) -> None:
    block = pattern_regularity_block(levels)
    assert block.shape == (levels.shape[0],)
    assert block.dtype == np.float64
    expected = [frozen_pattern_regularity(matrix) for matrix in levels]
    assert block.tolist() == expected
    assert [pattern_regularity(matrix) for matrix in levels] == expected


PAIRS = [(0x00, 0xFF), (0xAA, 0x55), (0xCC, 0x33), (0x66, 0x99)]
COLUMNS = [0, 7, 64]


@pytest.mark.parametrize("columns", COLUMNS)
class TestBlockEqualsFrozenLoop:
    def test_random_levels(self, columns):
        rng = np.random.default_rng(columns)
        levels = rng.integers(0, 3, size=(12, 9, columns), dtype=np.uint8)
        assert_matches_frozen(levels)

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p[0]:02x}{p[1]:02x}")
    def test_fixed_pair(self, columns, pair):
        rng = np.random.default_rng(sum(pair))
        choice = rng.integers(0, 2, size=(10, 8))
        assert_matches_frozen(byte_rows(np.array(pair)[choice], columns))

    def test_pair_with_a_neutral_row(self, columns):
        rng = np.random.default_rng(5)
        choice = rng.integers(0, 2, size=(6, 5))
        levels = byte_rows(np.array([0xCC, 0x33])[choice], columns)
        levels[:, 2] = LEVEL_HALF
        if columns:
            # One neutral cell is enough to exclude a row.
            levels[1, 4, columns // 2] = LEVEL_HALF
        assert_matches_frozen(levels)

    def test_one_non_periodic_row_among_periodic(self, columns):
        levels = byte_rows(np.full((4, 6), 0xAA), columns)
        if columns:
            levels[2, 3, -1] = 2 - levels[2, 3, -1]
        assert_matches_frozen(levels)

    def test_all_neutral_rows(self, columns):
        assert_matches_frozen(np.full((3, 4, columns), LEVEL_HALF, np.uint8))

    def test_mixed_weights_and_other_bytes(self, columns):
        rng = np.random.default_rng(11)
        bytes_ = rng.choice(
            [0x00, 0xFF, 0xAA, 0x55, 0xCC, 0x33, 0x66, 0x99, 0x12, 0x7E],
            size=(40, 32),
        )
        levels = byte_rows(bytes_, columns)
        levels[rng.random((40, 32)) < 0.2] = LEVEL_HALF
        assert_matches_frozen(levels)


def test_empty_stacks():
    assert pattern_regularity_block(np.empty((0, 4, 64), np.uint8)).shape == (0,)
    assert pattern_regularity_block(np.empty((3, 0, 64), np.uint8)).tolist() == [
        0.0, 0.0, 0.0,
    ]


def test_non_matrix_scores_zero():
    assert pattern_regularity(np.zeros(64, dtype=np.uint8)) == 0.0
