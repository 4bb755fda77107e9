"""Block-RNG equivalence tests.

``uniform_bit_block`` must be bit-identical, row for row, to NumPy's
``default_rng(seed).random(n) < 0.5`` -- that equivalence is what lets
the fused executor draw every trial's noise in one vectorized pass
while staying on the serial engine's exact bit stream.  A seeded
property sweeps seed blocks and row widths against the per-seed
reference; the seeding hash is pinned on its own, so a stream change
cannot hide a seeding bug.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.rngblock as rngblock
from repro.rngblock import (
    _seed_words,
    _uniform_bit_block_reference,
    fast_path_enabled,
    uniform_bit_block,
)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
"""Both sides of the one-word/two-word SeedSequence entropy split and
the ends of the 64-bit seed space."""

SHAPES = [
    (1, 1),
    (3, 63),
    (8, 64),
    (8, 65),
    (300, 67),     # many rows through one re-seeded generator
    (257, 128),
    (513, 200),
    (10, 300),
]
"""Fixed anchor shapes beside the property below; the many-row ones
would show state leaking from one row's seeding into the next."""


def probe_seeds(count: int, salt: int = 0) -> np.ndarray:
    # Deterministic spread across the 64-bit seed space, including its
    # extremes and both sides of the 2**32 entropy-word split.
    rng = np.random.default_rng(1234 + salt)
    seeds = rng.integers(0, 2**63, size=count, dtype=np.uint64)
    seeds[: min(count, 4)] = [0, 1, 2**32, 2**64 - 1][: min(count, 4)]
    return seeds


seed_blocks = st.lists(
    st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
    min_size=1,
    max_size=40,
)


class TestBitIdentity:
    def test_fast_path_survived_startup_self_check(self):
        assert fast_path_enabled()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(seeds=seed_blocks, n_bits=st.integers(1, 700))
    @example(seeds=EDGE_SEEDS, n_bits=4096)
    def test_property_matches_numpy_reference(self, seeds, n_bits):
        seeds = np.array(seeds, dtype=np.uint64)
        fast = uniform_bit_block(seeds, n_bits)
        assert fast.shape == (len(seeds), n_bits)
        assert fast.dtype == np.uint8
        assert np.array_equal(fast, _uniform_bit_block_reference(seeds, n_bits))

    @pytest.mark.parametrize("count,n_bits", SHAPES)
    def test_matches_numpy_reference(self, count, n_bits):
        seeds = probe_seeds(count, salt=n_bits)
        fast = uniform_bit_block(seeds, n_bits)
        assert fast.shape == (count, n_bits)
        assert fast.dtype == np.uint8
        assert np.array_equal(fast, _uniform_bit_block_reference(seeds, n_bits))

    def test_rows_independent_of_batch_composition(self):
        # A seed's bit row must not depend on its neighbours in the
        # batch -- noise keys are per measurement context.
        seeds = probe_seeds(20)
        whole = uniform_bit_block(seeds, 97)
        for i in (0, 7, 19):
            alone = uniform_bit_block(seeds[i : i + 1], 97)
            assert np.array_equal(whole[i], alone[0])


class TestSeeding:
    def test_seed_words_match_seed_sequence(self):
        words = _seed_words(np.array(EDGE_SEEDS, dtype=np.uint64))
        assert words.shape == (8, len(EDGE_SEEDS))
        assert words.dtype == np.uint32
        for i, seed in enumerate(EDGE_SEEDS):
            expected = np.random.SeedSequence(seed).generate_state(8, np.uint32)
            assert np.array_equal(words[:, i], expected), seed


class TestReentrancy:
    def test_concurrent_calls_match_reference(self):
        # One generator per call: threads drawing distinct seed sets at
        # once must each get exactly their own rows.
        seed_sets = [probe_seeds(24, salt=100 + t) for t in range(4)]
        expected = [_uniform_bit_block_reference(s, 150) for s in seed_sets]
        results = [[] for _ in seed_sets]
        start = threading.Barrier(len(seed_sets))

        def draw(t):
            start.wait(timeout=10)
            for _ in range(25):
                results[t].append(uniform_bit_block(seed_sets[t], 150))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=draw, args=(t,))
                for t in range(len(seed_sets))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        for t, rows in enumerate(results):
            assert len(rows) == 25
            for got in rows:
                assert np.array_equal(got, expected[t])


class TestFallback:
    def test_forced_fallback_is_bit_identical(self, monkeypatch):
        seeds = probe_seeds(33)
        fast = uniform_bit_block(seeds, 130)
        monkeypatch.setattr(rngblock, "_FAST_PATH_OK", False)
        assert np.array_equal(uniform_bit_block(seeds, 130), fast)

    def test_self_check_matches_default_rng(self):
        assert rngblock._self_check()


class TestValidation:
    def test_rejects_non_vector_seeds(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            uniform_bit_block(np.zeros((2, 2), dtype=np.uint64), 8)

    def test_empty_seed_vector(self):
        out = uniform_bit_block(np.empty(0, dtype=np.uint64), 8)
        assert out.shape == (0, 8)
