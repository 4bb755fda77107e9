"""DRAM cell array storage.

Cells store one of three charge levels so the model can represent the
fractional values that FracDRAM-style neutral rows rely on (paper
sections 2.2 and 3.3):

- ``LEVEL_ZERO`` (0): fully discharged, logic 0.
- ``LEVEL_HALF`` (1): VDD/2, the *neutral* fractional state that
  contributes no net perturbation to the bitline.
- ``LEVEL_ONE`` (2): fully charged, logic 1.

Binary data maps to {0, 2}; conversion helpers keep call sites honest
about which representation they hold.
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressError, ConfigurationError

LEVEL_ZERO = 0
LEVEL_HALF = 1
LEVEL_ONE = 2


def bits_to_levels(bits: np.ndarray) -> np.ndarray:
    """Map logic bits {0,1} to charge levels {0,2}."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size and bits.max(initial=0) > 1:
        raise ConfigurationError("bit arrays must contain only 0/1")
    return bits * np.uint8(2)


def levels_to_bits(levels: np.ndarray, half_reads_as: int = 1) -> np.ndarray:
    """Map charge levels {0,1,2} to logic bits.

    A neutral (VDD/2) cell has no defined logic value; real sense
    amplifiers resolve it by their per-column bias.  ``half_reads_as``
    picks the value deterministic callers want (tests use both).
    """
    levels = np.asarray(levels, dtype=np.uint8)
    bits = (levels >= 2).astype(np.uint8)
    if half_reads_as:
        bits = bits | (levels == LEVEL_HALF).astype(np.uint8)
    return bits


class CellArray:
    """One subarray's worth of DRAM cells (rows x columns of levels).

    The array is the *functional* storage; reliability effects are
    applied by the bank when operations execute, not here.
    """

    def __init__(self, rows: int, columns: int):
        if rows <= 0 or columns <= 0:
            raise ConfigurationError(
                f"cell array dimensions must be positive: {rows}x{columns}"
            )
        self._levels = np.full((rows, columns), LEVEL_ZERO, dtype=np.uint8)

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self._levels.shape[0]

    @property
    def columns(self) -> int:
        """Number of columns (bitlines)."""
        return self._levels.shape[1]

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise AddressError(f"row {row} outside cell array of {self.rows} rows")

    def read_levels(self, row: int) -> np.ndarray:
        """Copy of a row's charge levels."""
        self._check_row(row)
        return self._levels[row].copy()

    def write_levels(self, row: int, levels: np.ndarray) -> None:
        """Overwrite a row's charge levels."""
        self._check_row(row)
        levels = np.asarray(levels, dtype=np.uint8)
        if levels.shape != (self.columns,):
            raise AddressError(
                f"level array shape {levels.shape} != ({self.columns},)"
            )
        if levels.size and levels.max(initial=0) > LEVEL_ONE:
            raise ConfigurationError("levels must be in {0, 1, 2}")
        self._levels[row] = levels

    def read_bits(self, row: int, half_reads_as: int = 1) -> np.ndarray:
        """A row's logic values (see :func:`levels_to_bits` for neutrals)."""
        return levels_to_bits(self.read_levels(row), half_reads_as=half_reads_as)

    def write_bits(self, row: int, bits: np.ndarray) -> None:
        """Write logic bits {0,1} into a row (full charge levels)."""
        self.write_levels(row, bits_to_levels(bits))

    def write_neutral(self, row: int) -> None:
        """Put a row into the Frac neutral state (all cells at VDD/2)."""
        self._check_row(row)
        self._levels[row] = LEVEL_HALF

    def rows_view(self, rows: np.ndarray) -> np.ndarray:
        """Read-only stacked view of several rows' levels (copies)."""
        rows = np.asarray(rows, dtype=np.int64)
        for row in rows:
            self._check_row(int(row))
        return self._levels[rows].copy()

    def set_rows(self, rows: np.ndarray, levels: np.ndarray) -> None:
        """Broadcast one row of levels into several rows at once."""
        rows = np.asarray(rows, dtype=np.int64)
        for row in rows:
            self._check_row(int(row))
        self._levels[rows] = np.asarray(levels, dtype=np.uint8)
