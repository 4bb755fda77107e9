"""Functional majority-based bit-serial computation engine.

Runs *in* the simulated DRAM: operands are rows, data moves with
RowClone / Multi-RowCopy, and every logic operation is a MAJX executed
through the same APA command sequences the characterization uses --
the execution recipe of paper section 8.1 ("we perform RowClone to
copy the MAJX inputs into X rows and replicate the input operands
into N rows using Multi-RowCopy operations").

Data layout is bit-serial/vertical as in Ambit and SIMDRAM: one row
holds bit *i* of every element, with elements across columns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bender.program import apa_program
from ..bender.testbench import TestBench
from ..core.frac import initialize_neutral_rows
from ..core.rowclone import ROWCLONE_T1_NS, ROWCLONE_T2_NS
from ..core.rowgroups import RowGroup, sample_groups
from ..errors import ExperimentError

MAJ_T1_NS = 1.5
MAJ_T2_NS = 3.0


class RowAllocator:
    """Allocates named rows within one subarray."""

    def __init__(self, subarray_rows: int, reserved: Sequence[int] = ()):
        self._free = [r for r in range(subarray_rows) if r not in set(reserved)]
        self._free.reverse()  # allocate low rows first
        self._named: Dict[str, int] = {}

    def alloc(self, name: Optional[str] = None) -> int:
        """Allocate one row, optionally under a name."""
        if not self._free:
            raise ExperimentError("subarray out of allocatable rows")
        row = self._free.pop()
        if name is not None:
            if name in self._named:
                raise ExperimentError(f"row name already allocated: {name}")
            self._named[name] = row
        return row

    def free(self, row: int) -> None:
        """Return a row to the pool (double frees are ownership bugs)."""
        if row in self._free:
            raise ExperimentError(f"row {row} freed twice")
        self._free.append(row)
        for name, named_row in list(self._named.items()):
            if named_row == row:
                del self._named[name]

    def named(self, name: str) -> int:
        """Look up a named row."""
        return self._named[name]

    @property
    def available(self) -> int:
        """Rows still allocatable."""
        return len(self._free)


def _group_size_for(x: int) -> int:
    """Smallest valid activation size hosting X operands (one replica)."""
    for size in (2, 4, 8, 16, 32):
        if size >= x:
            return size
    raise ExperimentError(f"no activation size hosts MAJ{x}")


class BitSerialEngine:
    """MAJX / copy primitives over rows of one subarray.

    For functional verification build it on an ``ideal`` simulation
    config (every cell computes perfectly); on a default config the
    engine computes with the device's real reliability, which is
    exactly what makes MAJ9 impractical (Obs in section 8.1).
    """

    def __init__(
        self,
        bench: TestBench,
        bank: int = 0,
        subarray: int = 0,
    ):
        self._bench = bench
        self._bank_index = bank
        self._subarray = subarray
        self._profile = bench.module.profile
        self._columns = bench.module.config.columns_per_row
        self._base = subarray * self._profile.subarray_rows

        # Reserve one compute group per MAJ width we may execute.
        self._groups: Dict[int, RowGroup] = {}
        reserved: List[int] = []
        for index, size in enumerate((4, 8, 16, 32)):
            group = sample_groups(
                subarray,
                self._profile.subarray_rows,
                size,
                1,
                "bitserial-group",
                index,
            )[0]
            self._groups[size] = group
            reserved.extend(sorted(group.rows))
        self._allocator = RowAllocator(self._profile.subarray_rows, reserved)

        # Constant rows (all-0 / all-1), written once by the host (and
        # recorded so an exported kernel stages them too).
        self._zero_row = self._allocator.alloc("const-zero")
        self._one_row = self._allocator.alloc("const-one")
        self.load(self._zero_row, np.zeros(self._columns, dtype=np.uint8))
        self.load(self._one_row, np.ones(self._columns, dtype=np.uint8))

    @property
    def columns(self) -> int:
        """Elements processed in parallel (one per column)."""
        return self._columns

    @property
    def allocator(self) -> RowAllocator:
        """The subarray's row allocator."""
        return self._allocator

    @property
    def zero_row(self) -> int:
        """Local row holding the all-0 constant."""
        return self._zero_row

    @property
    def one_row(self) -> int:
        """Local row holding the all-1 constant."""
        return self._one_row

    # -- host data access -------------------------------------------------------

    def load(self, local_row: int, bits: np.ndarray) -> None:
        """Host write of operand bits into a row."""
        bits = np.asarray(bits, dtype=np.uint8)
        self._bench.module.bank(self._bank_index).write_row(
            self._base + local_row, bits
        )

    def read(self, local_row: int) -> np.ndarray:
        """Host read of a row's bits."""
        return self._bench.module.bank(self._bank_index).read_row(
            self._base + local_row
        )

    # -- in-DRAM primitives ------------------------------------------------------

    def rowclone(self, src_local: int, dst_local: int) -> None:
        """Copy one row onto another via consecutive activation."""
        program = apa_program(
            self._bank_index,
            self._base + src_local,
            self._base + dst_local,
            ROWCLONE_T1_NS,
            ROWCLONE_T2_NS,
        )
        self._bench.run(program)

    def maj(self, inputs: Sequence[int], dest_local: int) -> None:
        """dest <- MAJ(inputs), all arguments local rows.

        Copies the inputs into the reserved compute group, pads with
        neutral rows, runs the APA majority, and copies the result
        back out -- all with in-DRAM operations.
        """
        x = len(inputs)
        if x % 2 == 0 or x < 3:
            raise ExperimentError(f"majority needs an odd number >= 3 of inputs: {x}")
        group = self._groups[_group_size_for(x)]
        group_rows = sorted(group.rows)
        for operand_row, src in zip(group_rows, inputs):
            self.rowclone(src, operand_row)
        spare = group_rows[x:]
        if spare:
            initialize_neutral_rows(
                self._bench,
                self._bank_index,
                [self._base + row for row in spare],
            )
        rf, rs = group.global_pair(self._profile.subarray_rows)
        self._bench.run(
            apa_program(self._bank_index, rf, rs, MAJ_T1_NS, MAJ_T2_NS)
        )
        self.rowclone(group_rows[0], dest_local)
