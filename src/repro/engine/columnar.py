"""Columnar (structure-of-arrays) transport for trial work, both ways.

Worker processes used to hand their shard results back as pickled
lists of :class:`~repro.engine.plan.TaskOutcome` objects -- one Python
object, one bool ndarray, and one tuple-of-tuples per task.  At
campaign scale (thousands of tasks) the pickle channel becomes the
bottleneck: most of the bytes are per-object overhead, not data.

Since the slice-dispatch rework the *downlink* is columnar too:
:class:`TaskColumns` packs a contiguous slice of a plan's
:class:`~repro.engine.plan.TrialTask` specs (row groups in CSR form)
into flat arrays, so a dispatch ships one columnar message per worker
instead of a pickled object graph per task.  Both directions share
the same array-list serialization (:func:`columns_to_arrays` /
:func:`columns_from_arrays`), which is what the fused-parallel
executor's length-prefixed socket protocol (:mod:`repro.engine.fleet`)
puts on the wire.

For the *uplink*, this module packs a whole shard's outcomes into a
handful of NumPy arrays:

- ``indices`` / ``rates`` / ``trials`` / ``cells``: one element per
  task (rates travel as float64 verbatim, so the round trip is exact
  to the bit);
- checkpoint snapshots in CSR form (``ckpt_offsets`` into parallel
  ``ckpt_counts`` / ``ckpt_rates`` arrays), since tasks may hit a
  ragged subset of the plan's checkpoint schedule;
- masks as packed uint64 bit-planes (:mod:`repro.engine.bitplane`),
  either inline (``mask_offsets`` / ``mask_words``) or written into a
  parent-owned shared-memory window, in which case the columns travel
  mask-less and the parent re-attaches each mask from the buffer.

Packing and unpacking are pure reshapes: every float is copied
bit-for-bit and every mask round-trips through the same
``pack_matrix``/``unpack_mask`` pair the fused executor already uses,
so columnar transport preserves the engine's bit-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bitplane
from ..core.rowgroups import RowGroup
from .plan import TaskOutcome, TrialTask


@dataclass
class OutcomeColumns:
    """One shard's outcomes as parallel arrays (structure-of-arrays)."""

    indices: np.ndarray
    """Plan-order task indices, int64 ``(n,)``."""
    rates: np.ndarray
    """Final success rates, float64 ``(n,)`` -- exact copies."""
    trials: np.ndarray
    """Trials per task, int64 ``(n,)``."""
    cells: np.ndarray
    """Cells per task, int64 ``(n,)``."""
    ckpt_offsets: np.ndarray
    """CSR row pointers into the checkpoint arrays, int64 ``(n + 1,)``."""
    ckpt_counts: np.ndarray
    """Checkpoint trial counts, int64 ``(total,)``."""
    ckpt_rates: np.ndarray
    """Checkpoint running rates, float64 ``(total,)``."""
    mask_offsets: Optional[np.ndarray] = None
    """CSR word pointers into ``mask_words`` (inline-mask mode only)."""
    mask_words: Optional[np.ndarray] = None
    """Packed uint64 masks, concatenated (inline-mask mode only)."""
    rate_offsets: Optional[np.ndarray] = None
    """CSR row pointers into ``rate_values``, int64 ``(n + 1,)``.

    Optional for wire compatibility with frames packed before
    per-trial rates existed; absent means no per-trial data.
    """
    rate_values: Optional[np.ndarray] = None
    """Per-trial success rates, float64, concatenated -- exact copies."""

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def nbytes(self) -> int:
        """Bytes this record ships through the pickle channel."""
        total = (
            self.indices.nbytes
            + self.rates.nbytes
            + self.trials.nbytes
            + self.cells.nbytes
            + self.ckpt_offsets.nbytes
            + self.ckpt_counts.nbytes
            + self.ckpt_rates.nbytes
        )
        for name in ("mask_offsets", "mask_words", "rate_offsets",
                     "rate_values"):
            column = getattr(self, name)
            if column is not None:
                total += column.nbytes
        return int(total)


def pack_outcomes(
    outcomes: Sequence[TaskOutcome], include_masks: bool = True
) -> OutcomeColumns:
    """Pack outcomes into columns.

    With ``include_masks=False`` the caller has already written each
    packed mask somewhere out-of-band (the shared-memory window) and
    the columns travel mask-less.
    """
    n = len(outcomes)
    indices = np.fromiter(
        (outcome.index for outcome in outcomes), dtype=np.int64, count=n
    )
    rates = np.fromiter(
        (outcome.rate for outcome in outcomes), dtype=np.float64, count=n
    )
    trials = np.fromiter(
        (outcome.trials for outcome in outcomes), dtype=np.int64, count=n
    )
    cells = np.fromiter(
        (outcome.cells for outcome in outcomes), dtype=np.int64, count=n
    )
    ckpt_offsets = np.zeros(n + 1, dtype=np.int64)
    for i, outcome in enumerate(outcomes):
        ckpt_offsets[i + 1] = ckpt_offsets[i] + len(outcome.checkpoint_rates)
    total = int(ckpt_offsets[-1])
    ckpt_counts = np.zeros(total, dtype=np.int64)
    ckpt_rates = np.zeros(total, dtype=np.float64)
    cursor = 0
    for outcome in outcomes:
        for count, rate in outcome.checkpoint_rates:
            ckpt_counts[cursor] = count
            ckpt_rates[cursor] = rate
            cursor += 1
    rate_offsets = np.zeros(n + 1, dtype=np.int64)
    for i, outcome in enumerate(outcomes):
        rate_offsets[i + 1] = rate_offsets[i] + len(outcome.trial_rates)
    rate_values = np.zeros(int(rate_offsets[-1]), dtype=np.float64)
    cursor = 0
    for outcome in outcomes:
        for rate in outcome.trial_rates:
            rate_values[cursor] = rate
            cursor += 1
    mask_offsets: Optional[np.ndarray] = None
    mask_words: Optional[np.ndarray] = None
    if include_masks:
        mask_offsets = np.zeros(n + 1, dtype=np.int64)
        packed_rows: List[np.ndarray] = []
        for i, outcome in enumerate(outcomes):
            packed = bitplane.pack_matrix(np.asarray(outcome.mask, dtype=bool))
            packed_rows.append(packed)
            mask_offsets[i + 1] = mask_offsets[i] + packed.shape[0]
        mask_words = (
            np.concatenate(packed_rows)
            if packed_rows
            else np.zeros(0, dtype=np.uint64)
        )
    return OutcomeColumns(
        indices=indices,
        rates=rates,
        trials=trials,
        cells=cells,
        ckpt_offsets=ckpt_offsets,
        ckpt_counts=ckpt_counts,
        ckpt_rates=ckpt_rates,
        mask_offsets=mask_offsets,
        mask_words=mask_words,
        rate_offsets=rate_offsets,
        rate_values=rate_values,
    )


def unpack_outcomes(
    columns: OutcomeColumns,
    words_view: Optional[np.ndarray] = None,
    layout: Optional[Dict[int, Tuple[int, int]]] = None,
) -> List[TaskOutcome]:
    """Rebuild :class:`TaskOutcome` objects from columns.

    Masks come either from the columns' inline words or -- when
    ``words_view``/``layout`` name a shared-memory window and each
    task's ``(offset, words)`` slot in it -- from the shared buffer.
    """
    outcomes: List[TaskOutcome] = []
    for i in range(len(columns)):
        index = int(columns.indices[i])
        cells = int(columns.cells[i])
        if words_view is not None and layout is not None:
            offset, words = layout[index]
            mask = bitplane.unpack_mask(words_view[offset:offset + words], cells)
        elif columns.mask_words is not None and columns.mask_offsets is not None:
            lo = int(columns.mask_offsets[i])
            hi = int(columns.mask_offsets[i + 1])
            mask = bitplane.unpack_mask(columns.mask_words[lo:hi], cells)
        else:
            raise ValueError("columns carry no masks and no window was given")
        lo = int(columns.ckpt_offsets[i])
        hi = int(columns.ckpt_offsets[i + 1])
        snapshots = tuple(
            (int(columns.ckpt_counts[j]), float(columns.ckpt_rates[j]))
            for j in range(lo, hi)
        )
        trial_rates: Tuple[float, ...] = ()
        if columns.rate_offsets is not None and columns.rate_values is not None:
            lo = int(columns.rate_offsets[i])
            hi = int(columns.rate_offsets[i + 1])
            trial_rates = tuple(
                float(rate) for rate in columns.rate_values[lo:hi]
            )
        outcomes.append(
            TaskOutcome(
                index=index,
                rate=float(columns.rates[i]),
                trials=int(columns.trials[i]),
                cells=cells,
                mask=mask,
                checkpoint_rates=snapshots,
                trial_rates=trial_rates,
            )
        )
    return outcomes


@dataclass
class TaskColumns:
    """A contiguous slice of a plan's task specs as parallel arrays.

    The downlink twin of :class:`OutcomeColumns`: one dispatch ships a
    whole slice of tasks as eleven flat arrays instead of a pickled
    list of :class:`~repro.engine.plan.TrialTask` objects (each
    dragging a :class:`~repro.core.rowgroups.RowGroup` and its
    frozenset along).  Row groups travel in CSR form
    (``row_offsets`` into ``row_values``), and each task names its
    bench by a slice-local ``slot`` into the dispatch's bench-section
    table -- the worker maps slots back to (spec, instance, serial).
    """

    indices: np.ndarray
    """Plan-order task indices, int64 ``(n,)``."""
    slots: np.ndarray
    """Slice-local bench-section slot per task, int64 ``(n,)``."""
    banks: np.ndarray
    """Bank index per task, int64 ``(n,)``."""
    subarrays: np.ndarray
    """Subarray index per task, int64 ``(n,)``."""
    trials: np.ndarray
    """Trials per task, int64 ``(n,)``."""
    cells: np.ndarray
    """Cells per task, int64 ``(n,)``."""
    group_subarrays: np.ndarray
    """RowGroup.subarray per task, int64 ``(n,)``."""
    row_first: np.ndarray
    """RowGroup.row_first per task, int64 ``(n,)``."""
    row_second: np.ndarray
    """RowGroup.row_second per task, int64 ``(n,)``."""
    row_offsets: np.ndarray
    """CSR row pointers into ``row_values``, int64 ``(n + 1,)``."""
    row_values: np.ndarray
    """Concatenated sorted group rows, int64 ``(total,)``."""
    trial_offsets: Optional[np.ndarray] = None
    """First absolute trial index per task, int64 ``(n,)``.

    Optional for wire compatibility with peers packed before round
    slicing existed; absent means every task starts at trial 0.
    """

    def __len__(self) -> int:
        return int(self.indices.shape[0])

    def nbytes(self) -> int:
        """Bytes this record ships through the dispatch channel."""
        return int(
            sum(
                getattr(self, name).nbytes
                for name in _TASK_COLUMN_FIELDS
                if getattr(self, name) is not None
            )
        )


_TASK_COLUMN_FIELDS = (
    "indices",
    "slots",
    "banks",
    "subarrays",
    "trials",
    "cells",
    "group_subarrays",
    "row_first",
    "row_second",
    "row_offsets",
    "row_values",
    "trial_offsets",
)

_OUTCOME_COLUMN_FIELDS = (
    "indices",
    "rates",
    "trials",
    "cells",
    "ckpt_offsets",
    "ckpt_counts",
    "ckpt_rates",
    "mask_offsets",
    "mask_words",
    "rate_offsets",
    "rate_values",
)


def pack_tasks(tasks: Sequence[TrialTask], slots: Sequence[int]) -> TaskColumns:
    """Pack a slice of tasks into columns.

    ``slots`` is parallel to ``tasks`` and names each task's
    slice-local bench section (the dispatch payload carries the
    section table separately).
    """
    n = len(tasks)
    if len(slots) != n:
        raise ValueError("slots must be parallel to tasks")
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    for i, task in enumerate(tasks):
        row_offsets[i + 1] = row_offsets[i] + len(task.group.rows)
    row_values = np.zeros(int(row_offsets[-1]), dtype=np.int64)
    cursor = 0
    for task in tasks:
        for row in sorted(task.group.rows):
            row_values[cursor] = row
            cursor += 1

    def column(values) -> np.ndarray:
        return np.fromiter(values, dtype=np.int64, count=n)

    return TaskColumns(
        indices=column(task.index for task in tasks),
        slots=np.asarray(list(slots), dtype=np.int64),
        banks=column(task.bank for task in tasks),
        subarrays=column(task.subarray for task in tasks),
        trials=column(task.trials for task in tasks),
        cells=column(task.cells for task in tasks),
        group_subarrays=column(task.group.subarray for task in tasks),
        row_first=column(task.group.row_first for task in tasks),
        row_second=column(task.group.row_second for task in tasks),
        row_offsets=row_offsets,
        row_values=row_values,
        trial_offsets=column(task.trial_offset for task in tasks),
    )


def unpack_tasks(
    columns: TaskColumns, serials: Sequence[str]
) -> List[TrialTask]:
    """Rebuild :class:`TrialTask` objects from columns.

    ``serials`` maps each slice-local slot to its module serial; the
    reconstructed tasks carry the slot as their ``bench_index``, which
    is exactly how the worker's section loop addresses them.  Group
    rows round-trip through sorted order, which
    :attr:`TrialTask.group_token` (the noise key) sorts anyway, so
    reconstruction is bit-transparent.
    """
    tasks: List[TrialTask] = []
    for i in range(len(columns)):
        lo = int(columns.row_offsets[i])
        hi = int(columns.row_offsets[i + 1])
        slot = int(columns.slots[i])
        group = RowGroup(
            subarray=int(columns.group_subarrays[i]),
            row_first=int(columns.row_first[i]),
            row_second=int(columns.row_second[i]),
            rows=frozenset(int(row) for row in columns.row_values[lo:hi]),
        )
        tasks.append(
            TrialTask(
                index=int(columns.indices[i]),
                bench_index=slot,
                serial=serials[slot],
                bank=int(columns.banks[i]),
                subarray=int(columns.subarrays[i]),
                group=group,
                trials=int(columns.trials[i]),
                cells=int(columns.cells[i]),
                trial_offset=(
                    int(columns.trial_offsets[i])
                    if columns.trial_offsets is not None
                    else 0
                ),
            )
        )
    return tasks


def columns_to_arrays(
    columns,
) -> Tuple[Dict[str, object], List[np.ndarray]]:
    """Flatten a columns record into (header, array list) for the wire.

    Works for both :class:`TaskColumns` and :class:`OutcomeColumns`
    (mask-less outcome columns mark the absent fields in the header
    instead of shipping empty placeholders).  The inverse is
    :func:`columns_from_arrays`.
    """
    if isinstance(columns, TaskColumns):
        fields = [
            name
            for name in _TASK_COLUMN_FIELDS
            if getattr(columns, name) is not None
        ]
        kind = "tasks"
    elif isinstance(columns, OutcomeColumns):
        fields = [
            name
            for name in _OUTCOME_COLUMN_FIELDS
            if getattr(columns, name) is not None
        ]
        kind = "outcomes"
    else:
        raise TypeError(f"not a columns record: {type(columns).__name__}")
    return {"kind": kind, "fields": fields}, [
        np.ascontiguousarray(getattr(columns, name)) for name in fields
    ]


def columns_from_arrays(header: Dict[str, object], arrays: Sequence[np.ndarray]):
    """Rebuild a :func:`columns_to_arrays` record from the wire form."""
    fields = list(header["fields"])
    if len(fields) != len(arrays):
        raise ValueError(
            f"header names {len(fields)} fields but {len(arrays)} arrays "
            "arrived"
        )
    values = dict(zip(fields, arrays))
    if header.get("kind") == "tasks":
        return TaskColumns(**values)
    if header.get("kind") == "outcomes":
        return OutcomeColumns(**values)
    raise ValueError(f"unknown columns kind {header.get('kind')!r}")
