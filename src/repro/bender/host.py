"""Host-side test orchestration.

:class:`TestHost` wraps a :class:`~repro.bender.fpga.DramBender` with
the row-level initialization and readback helpers every
characterization experiment needs (paper sections 3.2-3.4 all follow
the same skeleton: initialize rows -> run a command program -> read
rows back -> compare).

The host also memoizes the test data it generates
(:meth:`TestHost.pattern_rows`): a sweep writes the same pattern rows
at every operating point, so each distinct row is drawn once per bench.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .. import rng
from ..dram.module import Module
from .fpga import DramBender, ExecutionResult
from .program import CommandProgram

if TYPE_CHECKING:  # repro.core imports the bender; avoid the cycle
    from ..core.patterns import DataPattern

PATTERN_MEMO_BYTES = 1 << 20
"""Byte cap of one host's pattern memo, counted as below.

All eleven figures at the end-to-end benchmark's scale (256 columns,
1 group, 4 trials) leave about 50 KiB in each of the four benches'
memos (224 random rows and 544 fixed-pair choices in all); at the CLI
defaults (512 columns, 3 groups, 6 trials), about 96 KiB (576 rows and
816 choices).  The cap leaves ten times that headroom and bounds a
pool worker, which keeps up to 32 benches, to 32 MiB of memos.
"""

_MEMO_ENTRY_BYTES = 256
"""What one entry costs beside its packed row's bits: the identity,
the bytes object's header and the dict slot (tracemalloc measured
130-235 bytes on the fused kernels' identities)."""


class TestHost:
    """Generates test data, drives the Bender, and reads back results."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, bender: DramBender):
        self._bender = bender
        # (pattern, columns) -> {exact identity key: the packed row
        # (immutable bytes), or the row of the fixed pair's table}.
        self._pattern_memo: Dict[Tuple["DataPattern", int], dict] = {}
        self._pattern_memo_bytes = 0

    @property
    def bender(self) -> DramBender:
        """The attached command replayer."""
        return self._bender

    @property
    def module(self) -> Module:
        """The device under test."""
        return self._bender.module

    def initialize_rows(
        self, bank: int, rows_to_bits: Dict[int, np.ndarray]
    ) -> None:
        """Write known data into specific rows with nominal timing."""
        device_bank = self.module.bank(bank)
        for row, bits in rows_to_bits.items():
            device_bank.write_row(row, bits)

    def initialize_range(
        self, bank: int, rows: Iterable[int], bits: np.ndarray
    ) -> None:
        """Write the same data into a range of rows."""
        device_bank = self.module.bank(bank)
        for row in rows:
            device_bank.write_row(row, bits)

    def read_rows(self, bank: int, rows: Sequence[int]) -> Dict[int, np.ndarray]:
        """Read rows back with nominal timing after the bank quiesced."""
        device_bank = self.module.bank(bank)
        return {row: device_bank.read_row(row) for row in rows}

    def run(self, program: CommandProgram) -> ExecutionResult:
        """Replay one program."""
        return self._bender.execute(program)

    def pattern_rows(
        self,
        pattern: "DataPattern",
        columns: int,
        identities: Sequence[Tuple[rng.Token, ...]],
    ) -> np.ndarray:
        """``pattern.row_bits_block(columns, identities)``, each distinct
        row drawn once per host.

        A row is a pure function of the pattern, ``columns`` and the
        identity (the simulation seed is not an input), so a stored
        row is exact at every operating point.  Only identities missing
        from the memo are hashed and drawn, in one ``row_bits_block``
        call.  A random pattern stores its row, packed into immutable
        bytes; a fixed pair stores which row of its two-row table it
        drew.  Identities :func:`repro.rng.exact_key` cannot key (those
        with a float token) skip the memo.  The result is always a
        fresh array.
        """
        keys = [rng.exact_key(identity) for identity in identities]
        if None in keys:
            return pattern.row_bits_block(columns, identities)
        memo_key = (pattern, columns)
        memo = self._pattern_memo.setdefault(memo_key, {})
        missing = {}
        for key, identity in zip(keys, identities):
            if key not in memo:
                missing.setdefault(key, identity)
        table = None if pattern.is_random else pattern.pair_table(columns)
        row_bytes = -(-columns // 8)
        entry_bytes = _MEMO_ENTRY_BYTES + (row_bytes if table is None else 0)
        if missing:
            cost = len(missing) * entry_bytes
            if self._pattern_memo_bytes + cost > PATTERN_MEMO_BYTES:
                # Full: start over.  Refilling redraws the same rows.
                self._pattern_memo.clear()
                self._pattern_memo_bytes = 0
                memo = self._pattern_memo[memo_key] = {}
                missing = dict(zip(keys, identities))
                cost = len(missing) * entry_bytes
                if cost > PATTERN_MEMO_BYTES:
                    return pattern.row_bits_block(columns, identities)
            drawn = pattern.row_bits_block(columns, list(missing.values()))
            if table is None:
                packed = np.packbits(drawn, axis=1)
                memo.update(zip(missing, map(bytes, packed)))
            else:
                # Where both rows of the table are equal, index 0 is
                # the drawn row whichever coin picked it.
                table_rows = (drawn != table[0]).any(axis=1)
                memo.update(zip(missing, table_rows.tolist()))
            self._pattern_memo_bytes += cost
        stored = [memo[key] for key in keys]
        if table is not None:
            return table[np.array(stored, dtype=np.intp)]
        packed = np.frombuffer(b"".join(stored), dtype=np.uint8)
        return np.unpackbits(
            packed.reshape(len(keys), row_bytes), axis=1, count=columns
        )

    def mismatch_fraction(
        self, bank: int, rows: Sequence[int], expected: np.ndarray
    ) -> float:
        """Average fraction of bits differing from ``expected`` across rows."""
        readback = self.read_rows(bank, rows)
        expected = np.asarray(expected, dtype=np.uint8)
        fractions: List[float] = [
            float(np.mean(bits != expected)) for bits in readback.values()
        ]
        return float(np.mean(fractions)) if fractions else 0.0
