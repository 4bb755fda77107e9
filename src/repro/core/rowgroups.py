"""Row-group algebra: which APA pairs open which rows.

Section 7.1 of the paper derives that issuing ``ACT R_F -> PRE ->
ACT R_S`` with violated timings opens the Cartesian product of the
two addresses' predecoder-field values: ``2**k`` rows, where ``k`` is
the number of predecoder fields in which the addresses differ.  This
module turns that rule into sampling utilities: given a target group
size (2, 4, 8, 16, or 32), construct address pairs that open exactly
that many rows, and enumerate the opened set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from .. import rng
from ..dram.row_decoder import (
    PredecoderField,
    activation_set,
    field_layout_for_subarray_rows,
)
from ..errors import ConfigurationError

VALID_GROUP_SIZES = (2, 4, 8, 16, 32)
"""The only simultaneous-activation counts COTS chips produce
(section 9, Limitation 2)."""


@dataclass(frozen=True)
class RowGroup:
    """One tested group of simultaneously activated rows."""

    subarray: int
    row_first: int
    row_second: int
    rows: FrozenSet[int]

    @property
    def size(self) -> int:
        """Number of simultaneously activated rows."""
        return len(self.rows)

    def global_rows(self, subarray_rows: int) -> Tuple[int, ...]:
        """Bank-level row numbers of the group, sorted."""
        base = self.subarray * subarray_rows
        return tuple(base + row for row in sorted(self.rows))

    def global_pair(self, subarray_rows: int) -> Tuple[int, int]:
        """Bank-level (R_F, R_S) addresses for the APA sequence."""
        base = self.subarray * subarray_rows
        return base + self.row_first, base + self.row_second


def pair_for_field_mask(
    base_row: int,
    field_mask: Sequence[bool],
    fields: Sequence[PredecoderField],
    offsets: Sequence[int],
) -> int:
    """Construct R_S from R_F by changing exactly the masked fields.

    ``offsets[i]`` picks which *other* value the i-th masked field
    takes (1 .. 2**width - 1, added modulo the field size).
    """
    if len(field_mask) != len(fields) or len(offsets) != len(fields):
        raise ConfigurationError("mask/offsets must match the field count")
    row = 0
    for field, flip, offset in zip(fields, field_mask, offsets):
        value = field.extract(base_row)
        if flip:
            step = 1 + offset % (field.n_outputs - 1) if field.n_outputs > 1 else 0
            value = (value + step) % field.n_outputs
        row |= field.insert(value)
    return row


def group_from_pair(
    subarray: int,
    row_first: int,
    row_second: int,
    subarray_rows: int,
    fields: Sequence[PredecoderField] = (),
) -> RowGroup:
    """The row group an APA pair opens (per the decoder model)."""
    layout = tuple(fields) or field_layout_for_subarray_rows(subarray_rows)
    rows = activation_set(row_first, row_second, layout, subarray_rows)
    return RowGroup(
        subarray=subarray, row_first=row_first, row_second=row_second, rows=rows
    )


def sample_groups(
    subarray: int,
    subarray_rows: int,
    group_size: int,
    count: int,
    *identity: rng.Token,
) -> List[RowGroup]:
    """Sample ``count`` distinct row groups of a given size.

    Mirrors the paper's methodology of randomly testing 100 groups per
    size per subarray (section 3.1).  Groups whose Cartesian product
    would extend past the physical row count (possible in 640-row
    subarrays) are rejected and resampled, because the chip cannot
    open nonexistent rows.

    A pure function of its arguments, so draws are memoized; each call
    returns a fresh list.
    """
    return list(
        _sample_groups(subarray, subarray_rows, group_size, count, *identity)
    )


# typed: ``stable_seed`` keys 1, 1.0 and True apart, so the memo must too.
@functools.lru_cache(maxsize=256, typed=True)
def _sample_groups(
    subarray: int,
    subarray_rows: int,
    group_size: int,
    count: int,
    *identity: rng.Token,
) -> Tuple[RowGroup, ...]:
    if group_size not in VALID_GROUP_SIZES:
        raise ConfigurationError(
            f"group size {group_size} not achievable; valid: {VALID_GROUP_SIZES}"
        )
    layout = field_layout_for_subarray_rows(subarray_rows)
    n_fields = len(layout)
    k = group_size.bit_length() - 1
    if k > n_fields:
        raise ConfigurationError(
            f"group size {group_size} needs {k} predecoder fields; "
            f"layout has {n_fields}"
        )
    generator = rng.generator("row-groups", subarray, group_size, *identity)
    groups: List[RowGroup] = []
    seen = set()
    attempts = 0
    max_attempts = max(1000, count * 200)
    while len(groups) < count:
        attempts += 1
        if attempts > max_attempts:
            raise ConfigurationError(
                f"could not sample {count} groups of size {group_size} in a "
                f"{subarray_rows}-row subarray after {max_attempts} attempts"
            )
        base = int(generator.integers(0, subarray_rows))
        flips = generator.permutation(n_fields)[:k]
        mask = [i in set(int(f) for f in flips) for i in range(n_fields)]
        offsets = [int(generator.integers(0, 4)) for _ in range(n_fields)]
        second = pair_for_field_mask(base, mask, layout, offsets)
        if second >= subarray_rows or second == base:
            continue
        group = group_from_pair(subarray, base, second, subarray_rows, layout)
        if group.size != group_size:
            continue  # clipped by the physical row limit (640-row arrays)
        key = group.rows
        if key in seen:
            continue
        seen.add(key)
        groups.append(group)
    return tuple(groups)
