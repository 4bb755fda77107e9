"""Tests for the deterministic RNG utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import rng


class TestStableSeed:
    def test_deterministic(self):
        assert rng.stable_seed(1, "a", 2.5) == rng.stable_seed(1, "a", 2.5)

    def test_order_sensitive(self):
        assert rng.stable_seed("a", "b") != rng.stable_seed("b", "a")

    def test_type_sensitive(self):
        # int 1 and float 1.0 are distinct identities.
        assert rng.stable_seed(1) != rng.stable_seed(1.0)

    def test_bytes_and_str_distinct(self):
        assert rng.stable_seed(b"x") != rng.stable_seed("x")

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            rng.stable_seed(object())

    @given(st.lists(st.integers(), min_size=1, max_size=5))
    def test_no_concatenation_collisions(self, tokens):
        # Appending a token always changes the seed.
        assert rng.stable_seed(*tokens) != rng.stable_seed(*tokens, 0)


EXACT_TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.text(max_size=2),
    st.binary(max_size=2),
)


class TestExactKey:
    def test_equal_tuples_of_distinct_encodings_get_distinct_keys(self):
        assert rng.exact_key((1,)) != rng.exact_key((True,))
        assert rng.exact_key((1.0,)) is None
        assert rng.exact_key((-0.0,)) is None

    @settings(derandomize=True, max_examples=200)
    @given(
        st.lists(EXACT_TOKENS, max_size=3).map(tuple),
        st.lists(EXACT_TOKENS, max_size=3).map(tuple),
    )
    def test_equal_keys_mean_equal_encodings(self, first, second):
        if rng.exact_key(first) == rng.exact_key(second):
            assert rng.encode_tokens(first) == rng.encode_tokens(second)


class TestGenerators:
    def test_generator_reproducible(self):
        a = rng.generator("test", 1).random(10)
        b = rng.generator("test", 1).random(10)
        assert np.array_equal(a, b)

    def test_standard_normal_shape(self):
        draws = rng.standard_normal((3, 4), "x")
        assert draws.shape == (3, 4)

    def test_uniform_bits_binary(self):
        bits = rng.uniform_bits(1000, "bits")
        assert set(np.unique(bits)) <= {0, 1}

    def test_uniform_bits_balanced(self):
        bits = rng.uniform_bits(10000, "balance")
        assert 0.45 < bits.mean() < 0.55

    def test_different_tokens_differ(self):
        assert not np.array_equal(
            rng.uniform_bits(64, "a"), rng.uniform_bits(64, "b")
        )
