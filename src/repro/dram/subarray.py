"""Subarray: cell array + sense amplifiers sharing one set of bitlines.

The subarray is the electrical unit of all PUD operations in the
paper -- rows can only charge-share with other rows on the *same*
bitlines, which is why subarray boundaries matter (section 3.1,
"Finding Subarray Boundaries").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import SimulationConfig
from .cell import CellArray, LEVEL_HALF, bits_to_levels
from .sense_amp import SenseAmplifierArray


class Subarray:
    """One subarray's storage plus its sense-amplifier personalities."""

    def __init__(
        self,
        config: SimulationConfig,
        module_serial: str,
        bank: int,
        index: int,
        rows: int,
        uniformly_biased: bool,
    ):
        self._index = index
        self._cells = CellArray(rows, config.columns_per_row)
        self._sense_amps = SenseAmplifierArray(
            config,
            module_serial,
            bank,
            index,
            config.columns_per_row,
            uniformly_biased,
        )

    @property
    def index(self) -> int:
        """Subarray index within its bank."""
        return self._index

    @property
    def rows(self) -> int:
        """Number of rows."""
        return self._cells.rows

    @property
    def columns(self) -> int:
        """Number of columns (bitlines)."""
        return self._cells.columns

    @property
    def cells(self) -> CellArray:
        """The raw cell storage."""
        return self._cells

    @property
    def sense_amps(self) -> SenseAmplifierArray:
        """The sense-amplifier array."""
        return self._sense_amps

    def sense_row(self, local_row: int) -> np.ndarray:
        """Single-row activation: sense a row to logic bits.

        Neutral (VDD/2) cells resolve to the per-column amplifier bias,
        as in a real array where a fractional cell presents no
        differential.
        """
        levels = self._cells.read_levels(local_row)
        sign = levels.astype(np.int64) - 1  # {0,1,2} -> {-1,0,+1}
        return self._sense_amps.resolve(sign)

    def restore_row(self, local_row: int, bits: np.ndarray) -> None:
        """Write back full-rail logic values into a row (charge restore)."""
        self._cells.write_bits(local_row, bits)

    def restore_rows(self, local_rows: Sequence[int], bits: np.ndarray) -> None:
        """:meth:`restore_row` into several rows.

        ``bits`` is one ``(columns,)`` row restored into every row, or a
        ``(len(local_rows), columns)`` stack.  The levels are converted
        once; each row is still written through
        ``CellArray.write_levels``, which checks its row and levels.
        """
        levels = bits_to_levels(bits)
        per_row = np.broadcast_to(levels, (len(local_rows), levels.shape[-1]))
        for local_row, row_levels in zip(local_rows, per_row):
            self._cells.write_levels(int(local_row), row_levels)

    def charge_share(self, local_rows: np.ndarray) -> np.ndarray:
        """Per-column signed charge imbalance of simultaneously opened rows.

        Returns ``n1 - n0`` per column, where neutral cells contribute
        zero -- the quantity that decides the majority outcome and
        (through its magnitude) the sensing margin.
        """
        stacked = self._cells.rows_view(np.asarray(local_rows, dtype=np.int64))
        return (stacked.astype(np.int64) - 1).sum(axis=0)

    def neutral_fraction(self, local_row: int) -> float:
        """Fraction of a row's cells in the Frac neutral state."""
        levels = self._cells.read_levels(local_row)
        return float(np.mean(levels == LEVEL_HALF))

    def write_row_bits(self, local_row: int, bits: np.ndarray) -> None:
        """Host-style write of logic data into a row."""
        self._cells.write_levels(local_row, bits_to_levels(bits))
