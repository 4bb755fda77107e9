"""Tests for row-group sampling and the activation-set algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rowgroups import (
    RowGroup,
    VALID_GROUP_SIZES,
    _sample_groups,
    group_from_pair,
    pair_for_field_mask,
    sample_groups,
)
from repro.dram.row_decoder import field_layout_for_subarray_rows
from repro.errors import ConfigurationError


class TestGroupFromPair:
    def test_paper_example(self):
        group = group_from_pair(0, 0, 7, 512)
        assert group.rows == frozenset({0, 1, 6, 7})
        assert group.size == 4

    def test_global_rows_offset_by_subarray(self):
        group = group_from_pair(2, 0, 7, 512)
        assert group.global_rows(512) == (1024, 1025, 1030, 1031)

    def test_global_pair(self):
        group = group_from_pair(1, 3, 9, 512)
        assert group.global_pair(512) == (512 + 3, 512 + 9)


class TestPairForFieldMask:
    def test_no_flip_returns_base(self):
        layout = field_layout_for_subarray_rows(512)
        assert pair_for_field_mask(42, [False] * 5, layout, [0] * 5) == 42

    def test_flipping_changes_masked_fields_only(self):
        layout = field_layout_for_subarray_rows(512)
        mask = [True, False, False, False, False]
        partner = pair_for_field_mask(0, mask, layout, [0] * 5)
        assert partner == 1  # field A is bit 0

    def test_mask_length_validated(self):
        layout = field_layout_for_subarray_rows(512)
        with pytest.raises(ConfigurationError):
            pair_for_field_mask(0, [True], layout, [0] * 5)


class TestSampleGroups:
    @pytest.mark.parametrize("size", VALID_GROUP_SIZES)
    def test_sampled_groups_have_requested_size(self, size):
        groups = sample_groups(0, 512, size, 5, "test")
        assert len(groups) == 5
        for group in groups:
            assert group.size == size
            assert group.row_first in group.rows
            assert group.row_second in group.rows

    def test_groups_distinct(self):
        groups = sample_groups(0, 512, 8, 10, "distinct")
        assert len({group.rows for group in groups}) == 10

    def test_deterministic_per_identity(self):
        a = sample_groups(0, 512, 4, 3, "seed-a")
        b = sample_groups(0, 512, 4, 3, "seed-a")
        c = sample_groups(0, 512, 4, 3, "seed-b")
        assert a == b
        assert a != c

    def test_1024_row_subarrays(self):
        groups = sample_groups(0, 1024, 32, 3, "micron")
        for group in groups:
            assert group.size == 32
            assert all(r < 1024 for r in group.rows)

    def test_640_row_subarrays_respect_physical_limit(self):
        groups = sample_groups(0, 640, 16, 3, "hynix-640")
        for group in groups:
            assert group.size == 16
            assert all(r < 640 for r in group.rows)

    def test_memo_matches_an_uncached_draw(self):
        cached = sample_groups(1, 1024, 16, 4, "memo", 3)
        again = sample_groups(1, 1024, 16, 4, "memo", 3)
        uncached = _sample_groups.__wrapped__(1, 1024, 16, 4, "memo", 3)
        assert cached == again == list(uncached)
        assert _sample_groups.cache_info().hits >= 1

    def test_memo_keys_typed_tokens_apart(self):
        # stable_seed encodes 1, 1.0 and True differently, so each
        # token type draws its own groups -- the memo must not alias
        # them just because they compare equal.
        draws = [sample_groups(0, 512, 8, 6, "typed", token)
                 for token in (1, 1.0, True)]
        for token, draw in zip((1, 1.0, True), draws):
            assert draw == list(
                _sample_groups.__wrapped__(0, 512, 8, 6, "typed", token)
            )
        assert draws[0] != draws[1]
        assert draws[0] != draws[2]
        assert draws[1] != draws[2]

    def test_mutating_a_returned_list_leaves_the_memo_intact(self):
        first = sample_groups(0, 512, 4, 3, "mutate")
        expected = list(first)
        first.clear()
        assert sample_groups(0, 512, 4, 3, "mutate") == expected

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_groups(0, 512, 3, 1, "bad")
        with pytest.raises(ConfigurationError):
            sample_groups(0, 512, 64, 1, "bad")

    @settings(max_examples=20)
    @given(st.sampled_from(VALID_GROUP_SIZES), st.integers(0, 10_000))
    def test_property_rf_rs_generate_group(self, size, salt):
        group = sample_groups(0, 512, size, 1, "prop", salt)[0]
        regenerated = group_from_pair(
            group.subarray, group.row_first, group.row_second, 512
        )
        assert regenerated.rows == group.rows
