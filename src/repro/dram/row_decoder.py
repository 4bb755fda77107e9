"""Hierarchical row decoder model (paper section 7.1, Figs 13-14).

A bank's row decoder has two tiers:

- The **Global Wordline Decoder (GWLD)** decodes the high-order row
  address bits and drives one Global Wordline (GWL), enabling the
  Local Wordline Decoder of one subarray.
- The **Local Wordline Decoder (LWLD)** of a subarray predecodes the
  low-order bits in several *predecoder fields* (A..E in the paper),
  **latches** the predecoded outputs, and a second stage ANDs the
  latched signals to assert one Local Wordline (LWL).

A PRE issued with nominal timing clears the latches.  A second ACT
issued within the interrupt window (~3 ns after PRE) prevents the
clear, so the new address's predecoder outputs are latched *alongside*
the old ones.  Stage 2 then asserts every LWL whose address is in the
Cartesian product of latched outputs, which is how 2, 4, 8, 16, or 32
rows open at once.

The paper's Fig 14 example — ``ACT 0 -> PRE -> ACT 7`` activating rows
{0, 1, 6, 7} — pins down the field layout of the examined 512-row
part: predecoder A covers address bit 0 and predecoders B..E cover two
bits each (1 + 2 + 2 + 2 + 2 = 9 bits).  Row 0 latches (A=0, B=0) and
row 7 = 0b111 latches (A=1, B=3), so the product set is
{A in {0,1}} x {B in {0,3}} = rows {0, 1, 6, 7}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import or_
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..errors import AddressError, ConfigurationError


@dataclass(frozen=True)
class PredecoderField:
    """One predecoder tier of the LWLD stage 1.

    Attributes
    ----------
    name:
        Label, e.g. ``"A"``.
    bit_offset:
        Lowest row-address bit this field decodes.
    bit_width:
        Number of row-address bits this field decodes (its latch bank
        has ``2**bit_width`` outputs).
    """

    name: str
    bit_offset: int
    bit_width: int

    def __post_init__(self) -> None:
        if self.bit_width < 1:
            raise ConfigurationError(f"field {self.name}: bit_width must be >= 1")
        if self.bit_offset < 0:
            raise ConfigurationError(f"field {self.name}: bit_offset must be >= 0")

    @property
    def n_outputs(self) -> int:
        """Number of predecoded output lines (latches) in this field."""
        return 1 << self.bit_width

    def extract(self, local_row: int) -> int:
        """The predecoded output index this row asserts in this field."""
        return (local_row >> self.bit_offset) & (self.n_outputs - 1)

    def insert(self, value: int) -> int:
        """Place a field value back at its bit position."""
        if not 0 <= value < self.n_outputs:
            raise AddressError(
                f"field {self.name}: value {value} outside {self.n_outputs} outputs"
            )
        return value << self.bit_offset


def field_layout_for_subarray_rows(subarray_rows: int) -> Tuple[PredecoderField, ...]:
    """Derive the five-predecoder layout for a subarray size.

    512-row subarrays (9 address bits) use the paper's layout: field A
    covers bit 0, fields B..E cover 2 bits each.  1024-row subarrays
    (10 bits, Micron parts) use five 2-bit fields.  640-row subarrays
    (some SK Hynix M-die banks) decode like 1024-row arrays but only
    rows below 640 exist; the decoder masks nonexistent rows.
    """
    if subarray_rows <= 0:
        raise ConfigurationError(f"subarray_rows must be positive: {subarray_rows}")
    n_bits = max(1, (subarray_rows - 1).bit_length())
    names = ["A", "B", "C", "D", "E", "F", "G", "H"]
    fields: List[PredecoderField] = []
    # Give the first field the remainder bit when n_bits is odd (the
    # paper's 9-bit layout: A=1 bit, B..E=2 bits each).
    first_width = 1 if n_bits % 2 == 1 else 2
    offset = 0
    width = first_width
    index = 0
    while offset < n_bits:
        width = min(width, n_bits - offset)
        if index >= len(names):
            raise ConfigurationError(f"subarray too large to lay out: {subarray_rows}")
        fields.append(PredecoderField(names[index], offset, width))
        offset += width
        width = 2
        index += 1
    return tuple(fields)


def activation_set(
    row_first: int,
    row_second: int,
    fields: Sequence[PredecoderField],
    subarray_rows: int,
) -> FrozenSet[int]:
    """Rows simultaneously activated by ``ACT row_first -> PRE -> ACT
    row_second`` with the precharge interrupted.

    The result is the Cartesian product of the per-field latched
    outputs, intersected with the rows that physically exist (relevant
    for 640-row subarrays).
    """
    for row in (row_first, row_second):
        if not 0 <= row < subarray_rows:
            raise AddressError(f"row {row} outside subarray of {subarray_rows} rows")
    per_field_options: List[List[int]] = []
    for field in fields:
        options = {field.extract(row_first), field.extract(row_second)}
        per_field_options.append(sorted(options))
    rows: Set[int] = set()
    for combination in product(*per_field_options):
        row = 0
        for field, value in zip(fields, combination):
            row |= field.insert(value)
        if row < subarray_rows:
            rows.add(row)
    return frozenset(rows)


def activation_count(
    row_first: int, row_second: int, fields: Sequence[PredecoderField]
) -> int:
    """Number of rows an APA pair would activate (2**k, k = differing fields).

    Unlike :func:`activation_set` this ignores the physical row limit,
    matching the idealized count of section 7.1.
    """
    differing = sum(
        1
        for field in fields
        if field.extract(row_first) != field.extract(row_second)
    )
    return 1 << differing


class LocalWordlineDecoder:
    """Stateful LWLD for one subarray: predecoder latch banks + stage 2.

    The latch state survives an interrupted precharge, which is the
    physical mechanism behind simultaneous many-row activation.
    """

    def __init__(self, fields: Sequence[PredecoderField], subarray_rows: int):
        if not fields:
            raise ConfigurationError("LWLD requires at least one predecoder field")
        self._fields = tuple(fields)
        self._subarray_rows = subarray_rows
        self._latched: List[Set[int]] = [set() for _ in self._fields]

    @property
    def fields(self) -> Tuple[PredecoderField, ...]:
        """The predecoder field layout."""
        return self._fields

    @property
    def subarray_rows(self) -> int:
        """Number of physical rows in the subarray."""
        return self._subarray_rows

    def latch(self, local_row: int) -> None:
        """Predecode ``local_row`` and latch its per-field outputs."""
        if not 0 <= local_row < self._subarray_rows:
            raise AddressError(
                f"row {local_row} outside subarray of {self._subarray_rows} rows"
            )
        for field, latched in zip(self._fields, self._latched):
            latched.add(field.extract(local_row))

    def clear(self) -> None:
        """A completed precharge de-asserts and clears every latch."""
        for latched in self._latched:
            latched.clear()

    def is_idle(self) -> bool:
        """True when no latch is set (fully precharged)."""
        return all(not latched for latched in self._latched)

    def asserted_wordlines(self) -> FrozenSet[int]:
        """Local wordlines currently asserted by stage 2.

        The Cartesian product of the latched outputs, limited to
        physically existing rows.
        """
        if self.is_idle():
            return frozenset()
        # Place each latched value at its field's bits once, not once
        # per combination.
        placed = [
            [field.insert(value) for value in latched]
            for field, latched in zip(self._fields, self._latched)
        ]
        rows = (reduce(or_, combination) for combination in product(*placed))
        return frozenset(row for row in rows if row < self._subarray_rows)


class GlobalWordlineDecoder:
    """GWLD: tracks which subarrays' LWLDs are enabled."""

    def __init__(self, n_subarrays: int):
        if n_subarrays <= 0:
            raise ConfigurationError(f"n_subarrays must be positive: {n_subarrays}")
        self._n_subarrays = n_subarrays
        self._enabled: Set[int] = set()

    @property
    def n_subarrays(self) -> int:
        """Number of subarrays in the bank."""
        return self._n_subarrays

    def enable(self, subarray: int) -> None:
        """Drive the GWL of ``subarray``, enabling its LWLD."""
        if not 0 <= subarray < self._n_subarrays:
            raise AddressError(
                f"subarray {subarray} outside bank of {self._n_subarrays} subarrays"
            )
        self._enabled.add(subarray)

    def disable_all(self) -> None:
        """A completed precharge de-asserts every GWL."""
        self._enabled.clear()

    def enabled_subarrays(self) -> FrozenSet[int]:
        """Subarrays whose LWLD is currently enabled."""
        return frozenset(self._enabled)


class HierarchicalRowDecoder:
    """Complete bank row decoder: GWLD + one LWLD per subarray.

    This is the executable form of the paper's Fig 13.  The bank state
    machine drives it with :meth:`activate` / :meth:`precharge`
    events; ``interrupted=True`` on precharge models the second ACT
    arriving inside the interrupt window.
    """

    def __init__(
        self,
        n_subarrays: int,
        subarray_rows: int,
        fields: Sequence[PredecoderField] = (),
    ):
        layout = tuple(fields) or field_layout_for_subarray_rows(subarray_rows)
        self._gwld = GlobalWordlineDecoder(n_subarrays)
        self._lwlds: Dict[int, LocalWordlineDecoder] = {}
        self._layout = layout
        self._subarray_rows = subarray_rows

    @property
    def layout(self) -> Tuple[PredecoderField, ...]:
        """Predecoder field layout shared by every LWLD."""
        return self._layout

    @property
    def subarray_rows(self) -> int:
        """Rows per subarray."""
        return self._subarray_rows

    def _lwld(self, subarray: int) -> LocalWordlineDecoder:
        if subarray not in self._lwlds:
            self._lwlds[subarray] = LocalWordlineDecoder(
                self._layout, self._subarray_rows
            )
        return self._lwlds[subarray]

    def activate(self, subarray: int, local_row: int) -> None:
        """Process an ACT: enable the subarray's GWL and latch the row."""
        self._gwld.enable(subarray)
        self._lwld(subarray).latch(local_row)

    def precharge(self, completed: bool) -> None:
        """Process a PRE.

        ``completed=True`` models a precharge that ran for at least the
        interrupt window: every latch clears and all GWLs de-assert.
        ``completed=False`` models a precharge interrupted by the next
        ACT: the latches and GWLs are left untouched.
        """
        if completed:
            for lwld in self._lwlds.values():
                lwld.clear()
            self._gwld.disable_all()

    def asserted_rows(self) -> Dict[int, FrozenSet[int]]:
        """Map of subarray -> asserted local wordlines, for enabled subarrays."""
        result: Dict[int, FrozenSet[int]] = {}
        for subarray in self._gwld.enabled_subarrays():
            wordlines = self._lwld(subarray).asserted_wordlines()
            if wordlines:
                result[subarray] = wordlines
        return result

    def is_idle(self) -> bool:
        """True when the bank is fully precharged."""
        return not self._gwld.enabled_subarrays()
