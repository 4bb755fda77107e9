"""Multi-RowCopy: one source row to up to 31 destinations at once
(paper section 6 -- one of the two operations the paper introduces).

The command recipe (section 3.4): ACT the source, wait a full tRAS so
the sense amplifiers are completely driven, PRE, then a second ACT
within the interrupt window.  The second ACT opens the whole row
group while the amplifiers still hold the source data, overwriting
every opened row with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..bender.program import apa_program
from ..bender.testbench import TestBench
from ..errors import ExperimentError
from .rowgroups import RowGroup

MULTI_ROW_COPY_T1_NS = 36.0
"""Best ACT->PRE gap (Obs 14: waiting tRAS maximizes success)."""
MULTI_ROW_COPY_T2_NS = 3.0
"""Best PRE->ACT gap (inside the interrupt window)."""


@dataclass(frozen=True)
class MultiRowCopyResult:
    """Outcome of one Multi-RowCopy operation."""

    group: RowGroup
    semantic: str
    per_destination_match: Dict[int, float]
    """Bank-level destination row -> fraction of bits matching source."""
    correctness: Tuple[Tuple[int, ...], ...]
    """Per-destination, per-cell correctness (0/1), for accumulation."""

    @property
    def n_destinations(self) -> int:
        """Number of destination rows written."""
        return len(self.per_destination_match)

    @property
    def success_fraction(self) -> float:
        """Mean per-cell correctness across destinations."""
        if not self.correctness:
            return 0.0
        return float(np.mean([np.mean(row) for row in self.correctness]))


def execute_multi_row_copy(
    bench: TestBench,
    bank: int,
    group: RowGroup,
    t1_ns: float = MULTI_ROW_COPY_T1_NS,
    t2_ns: float = MULTI_ROW_COPY_T2_NS,
) -> MultiRowCopyResult:
    """Copy the group's first-activated row onto the rest of the group.

    The caller initializes the source (``group.row_first``) and the
    destinations beforehand (the characterization uses a destination
    pattern distinct from the source, per section 3.4).
    """
    if group.size < 2:
        raise ExperimentError("Multi-RowCopy needs at least one destination")
    subarray_rows = bench.module.profile.subarray_rows
    source_global, second_global = group.global_pair(subarray_rows)
    device_bank = bench.module.bank(bank)
    source_bits = device_bank.read_row(source_global)
    program = apa_program(bank, source_global, second_global, t1_ns, t2_ns)
    bench.run(program)
    event = device_bank.last_event
    matches: Dict[int, float] = {}
    correctness = []
    for global_row in group.global_rows(subarray_rows):
        if global_row == source_global:
            continue
        bits = device_bank.read_row(global_row)
        correct = (bits == source_bits).astype(np.uint8)
        matches[global_row] = float(np.mean(correct))
        correctness.append(tuple(correct.tolist()))
    return MultiRowCopyResult(
        group=group,
        semantic=event.semantic if event is not None else "unknown",
        per_destination_match=matches,
        correctness=tuple(correctness),
    )
