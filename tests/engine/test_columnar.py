"""Tests for the columnar (structure-of-arrays) outcome transport."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.columnar import pack_outcomes, unpack_outcomes
from repro.engine.plan import TaskOutcome


def _outcomes(n=6, cells=37, seed=3):
    rng = np.random.default_rng(seed)
    outcomes = []
    for i in range(n):
        mask = rng.random(cells) < 0.8
        checkpoints = (
            ((1, float(rng.random())), (2, float(rng.random())))
            if i % 2
            else ()
        )
        # Ragged per-trial rates, sometimes absent -- the adaptive
        # planner's observation stream must survive the columns.
        trial_rates = tuple(
            float(rate) for rate in rng.random(int(rng.integers(0, 5)))
        )
        outcomes.append(
            TaskOutcome(
                index=i,
                rate=float(mask.mean()),
                trials=4,
                cells=cells,
                mask=mask,
                checkpoint_rates=checkpoints,
                trial_rates=trial_rates,
            )
        )
    return outcomes


def _assert_equal(rebuilt, originals):
    assert len(rebuilt) == len(originals)
    for got, want in zip(rebuilt, originals):
        assert got.index == want.index
        assert got.rate == want.rate  # exact, not approximate
        assert got.trials == want.trials
        assert got.cells == want.cells
        assert got.checkpoint_rates == want.checkpoint_rates
        assert got.trial_rates == want.trial_rates
        assert np.array_equal(got.mask, np.asarray(want.mask, dtype=bool))


class TestInlineRoundTrip:
    def test_round_trip_is_exact(self):
        originals = _outcomes()
        columns = pack_outcomes(originals)
        _assert_equal(unpack_outcomes(columns), originals)

    def test_empty_shard(self):
        columns = pack_outcomes([])
        assert len(columns) == 0
        assert unpack_outcomes(columns) == []

    def test_ragged_checkpoints_survive(self):
        originals = _outcomes()
        rebuilt = unpack_outcomes(pack_outcomes(originals))
        lengths = [len(o.checkpoint_rates) for o in rebuilt]
        assert lengths == [len(o.checkpoint_rates) for o in originals]
        assert 0 in lengths and 2 in lengths


def _tasks(n=8, seed=11, max_rows=40):
    from repro.core.rowgroups import RowGroup
    from repro.engine.plan import TrialTask

    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(n):
        rows = frozenset(
            int(r) for r in rng.choice(4096, size=rng.integers(2, max_rows))
        )
        first, second, *_ = sorted(rows) + [0, 0]
        tasks.append(
            TrialTask(
                index=i,
                bench_index=int(rng.integers(0, 3)),
                serial=f"MODULE#{int(rng.integers(0, 3))}",
                bank=int(rng.integers(0, 4)),
                subarray=int(rng.integers(0, 8)),
                group=RowGroup(
                    subarray=int(rng.integers(0, 8)),
                    row_first=int(first),
                    row_second=int(second),
                    rows=rows,
                ),
                trials=int(rng.integers(1, 16)),
                cells=int(rng.integers(1, 512)),
                trial_offset=int(rng.integers(0, 64)),
            )
        )
    return tasks


def _assert_tasks_equal(rebuilt, originals):
    assert len(rebuilt) == len(originals)
    for got, want in zip(rebuilt, originals):
        assert got.index == want.index
        assert got.bank == want.bank
        assert got.subarray == want.subarray
        assert got.trials == want.trials
        assert got.cells == want.cells
        # The slice window must ship exactly: a worker reproduces a
        # round slice's noise stream from the absolute trial offset.
        assert got.trial_offset == want.trial_offset
        assert got.group.rows == want.group.rows
        assert got.group.subarray == want.group.subarray
        assert got.group.row_first == want.group.row_first
        assert got.group.row_second == want.group.row_second
        # The noise key must survive the wire exactly: it is what
        # makes slice dispatch bit-transparent.
        assert got.group_token == want.group_token


class TestTaskColumns:
    """Downlink (task-spec) round trips, the dispatch wire format."""

    def test_round_trip_is_exact(self):
        from repro.engine.columnar import pack_tasks, unpack_tasks

        originals = _tasks()
        slots = [t.bench_index for t in originals]
        columns = pack_tasks(originals, slots)
        serials = [f"S#{i}" for i in range(3)]
        rebuilt = unpack_tasks(columns, serials)
        _assert_tasks_equal(rebuilt, originals)
        for task in rebuilt:
            assert task.serial == serials[task.bench_index]

    def test_zero_task_slice(self):
        from repro.engine.columnar import pack_tasks, unpack_tasks

        columns = pack_tasks([], [])
        assert len(columns) == 0
        assert columns.row_offsets.tolist() == [0]
        assert unpack_tasks(columns, []) == []

    def test_single_task_slice(self):
        from repro.engine.columnar import pack_tasks, unpack_tasks

        originals = _tasks(n=1)
        columns = pack_tasks(originals, [0])
        _assert_tasks_equal(unpack_tasks(columns, ["ONLY#0"]), originals)

    def test_large_ragged_slice(self):
        from repro.engine.columnar import pack_tasks, unpack_tasks

        originals = _tasks(n=500, seed=7, max_rows=120)
        slots = [t.bench_index for t in originals]
        columns = pack_tasks(originals, slots)
        serials = [f"S#{i}" for i in range(3)]
        _assert_tasks_equal(unpack_tasks(columns, serials), originals)

    def test_slots_must_be_parallel(self):
        from repro.engine.columnar import pack_tasks

        with pytest.raises(ValueError):
            pack_tasks(_tasks(n=3), [0])

    def test_nbytes_positive_and_consistent(self):
        from repro.engine.columnar import pack_tasks

        columns = pack_tasks(_tasks(), [0] * 8)
        assert columns.nbytes() > 0


class TestWireArrays:
    """columns_to_arrays / columns_from_arrays, the socket framing."""

    def test_task_columns_survive_the_wire(self):
        from repro.engine.columnar import (
            columns_from_arrays,
            columns_to_arrays,
            pack_tasks,
            unpack_tasks,
        )

        originals = _tasks(n=40, seed=5)
        slots = [t.bench_index for t in originals]
        header, arrays = columns_to_arrays(pack_tasks(originals, slots))
        assert header["kind"] == "tasks"
        rebuilt = columns_from_arrays(header, arrays)
        serials = [f"S#{i}" for i in range(3)]
        _assert_tasks_equal(unpack_tasks(rebuilt, serials), originals)

    def test_outcome_columns_survive_the_wire(self):
        from repro.engine.columnar import columns_from_arrays, columns_to_arrays

        originals = _outcomes()
        header, arrays = columns_to_arrays(pack_outcomes(originals))
        assert header["kind"] == "outcomes"
        rebuilt = columns_from_arrays(header, arrays)
        _assert_equal(unpack_outcomes(rebuilt), originals)

    def test_unknown_kind_rejected(self):
        from repro.engine.columnar import columns_from_arrays

        with pytest.raises(ValueError):
            columns_from_arrays({"kind": "nope", "fields": []}, [])

    def test_field_count_mismatch_rejected(self):
        from repro.engine.columnar import columns_from_arrays

        with pytest.raises(ValueError):
            columns_from_arrays(
                {"kind": "tasks", "fields": ["indices"]}, []
            )


class TestPackedEdgeCases:
    """Mask/checkpoint layouts that stress the packed representation."""

    def test_many_checkpoints_per_outcome(self):
        # >64 checkpoints: more entries than bits in one packed word,
        # so any word-width assumption in the ragged encoding breaks.
        from repro.engine.plan import TaskOutcome

        checkpoints = tuple((k, k / 100.0) for k in range(1, 101))
        outcome = TaskOutcome(
            index=0,
            rate=0.5,
            trials=100,
            cells=8,
            mask=np.ones(8, dtype=bool),
            checkpoint_rates=checkpoints,
        )
        rebuilt = unpack_outcomes(pack_outcomes([outcome]))
        assert rebuilt[0].checkpoint_rates == checkpoints

    @pytest.mark.parametrize("cells", [1, 63, 64, 65, 128, 4096])
    def test_mask_widths_around_word_boundaries(self, cells):
        # Exactly-full packed words (64, 128, 4096) and the off-by-one
        # widths around them.
        from repro.engine.plan import TaskOutcome

        rng = np.random.default_rng(cells)
        mask = rng.random(cells) < 0.5
        outcome = TaskOutcome(
            index=0,
            rate=float(mask.mean()),
            trials=2,
            cells=cells,
            mask=mask,
            checkpoint_rates=(),
        )
        rebuilt = unpack_outcomes(pack_outcomes([outcome]))
        assert np.array_equal(rebuilt[0].mask, mask)
        assert rebuilt[0].cells == cells


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def outcome_lists(draw):
    """Random shards: zero tasks up, masks around word boundaries,
    ragged checkpoints and per-trial rates."""
    outcomes = []
    for index in range(draw(st.integers(0, 6))):
        cells = draw(st.sampled_from((1, 2, 63, 64, 65, 127, 128, 129)))
        bits = draw(st.lists(st.booleans(), min_size=cells, max_size=cells))
        outcomes.append(
            TaskOutcome(
                index=index + draw(st.integers(0, 3)),
                rate=draw(finite),
                trials=draw(st.integers(0, 1 << 20)),
                cells=cells,
                mask=np.array(bits, dtype=bool),
                checkpoint_rates=tuple(
                    draw(st.lists(
                        st.tuples(st.integers(0, 1 << 20), finite),
                        max_size=5,
                    ))
                ),
                trial_rates=tuple(draw(st.lists(finite, max_size=5))),
            )
        )
    return outcomes


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(originals=outcome_lists())
    def test_pack_unpack_is_exact(self, originals):
        _assert_equal(unpack_outcomes(pack_outcomes(originals)), originals)
