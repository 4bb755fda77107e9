"""Keyed uniform bits for many seeds in one call.

:func:`repro.rng.uniform_bits` derives every draw from
``numpy.random.default_rng(stable_seed(...)).random(n) < 0.5``.  A
fused plan needs thousands of such keyed rows at once, and most of a
``default_rng`` call is fixed cost -- hashing the seed and building the
generator -- not the bits.  This module keeps numpy's own PCG64 stream
and vectorizes only the seeding:

- the SeedSequence entropy-pool mix and ``generate_state`` hash run as
  uint32 numpy over a ``(4, n)`` pool for every seed at once (native
  uint32 wraparound is the hash's own arithmetic);
- PCG64's seeding recipe (``inc = 2 * initseq + 1``, ``state = (inc +
  initstate) * MULT + inc`` mod 2**128) runs per seed in Python ints;
- one ``np.random.PCG64`` per call is set to each seed's state in turn,
  and ``random_raw(n) < 2**63`` is that seed's row: ``random()`` is
  ``(raw >> 11) * 2**-53``, which is below 0.5 exactly when the raw
  word's top bit is clear.

:func:`coin_block` reuses the same per-seed states for the fixed-pair
byte choice, ``default_rng(seed).integers(0, 2)``, which reads one bit
of the first raw word.

Bit-identity with ``default_rng`` is the contract, not an aspiration:
the hash constants below are frozen by numpy's stream-compatibility
guarantee, and a startup self-check compares this path against
``default_rng`` on a spread of seeds.  If the self-check ever fails (an
exotic numpy build), the block API silently falls back to the per-seed
reference path -- slower, never wrong.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple, Union

import numpy as np

# SeedSequence hash constants (numpy/random/bit_generator.pyx; frozen
# by numpy's reproducibility guarantee since 1.17).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_STATE_WORDS = 8  # generate_state(4, uint64) as uint32 words

# PCG64 128-bit LCG multiplier (pcg64.h PCG_DEFAULT_MULTIPLIER).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
_TOP_BIT = np.uint64(1 << 63)


def _hash_schedule(init: int, mult: int, count: int) -> tuple:
    """The (xor-const, mult-const) columns of ``count`` hashmix calls.

    The SeedSequence hash constant evolves independently of the data
    (``value ^= hc; hc *= MULT; value *= hc``), so the whole schedule
    is precomputable: row k holds the hc value XORed into call k and
    the advanced hc it multiplies by.  Shaped ``(count, 1)`` so a
    slice broadcasts across a block of seeds.
    """
    xor = np.empty((count, 1), dtype=np.uint32)
    mul = np.empty((count, 1), dtype=np.uint32)
    hc = init
    for k in range(count):
        xor[k] = hc
        hc = (hc * mult) & 0xFFFFFFFF
        mul[k] = hc
    return xor, mul


_MIX_XOR, _MIX_MUL = _hash_schedule(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_GEN_XOR, _GEN_MUL = _hash_schedule(_INIT_B, _MULT_B, _STATE_WORDS)


def _by_source(consts: np.ndarray) -> np.ndarray:
    """Spread the source-to-destination mix constants over a grid.

    After the first pass, source word s mixes into every other word in
    ascending order with the next three constants.  Row s of the
    ``(4, 4, 1)`` grid holds them at their destinations, so a source
    mixes into the whole pool in one op; the diagonal is a placeholder
    whose result is thrown away.
    """
    grid = np.zeros((_POOL_SIZE, _POOL_SIZE, 1), dtype=np.uint32)
    grid[~np.eye(_POOL_SIZE, dtype=bool)] = consts
    return grid


_SRC_XOR = _by_source(_MIX_XOR[_POOL_SIZE:])
_SRC_MUL = _by_source(_MIX_MUL[_POOL_SIZE:])


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mul
    value ^= value >> _XSHIFT
    return value


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(8, np.uint32)`` per seed.

    Returns a ``(8, len(seeds))`` uint32 array.  A 64-bit integer seed
    assembles to its uint32 words ``[lo, hi]``; a seed below 2**32
    assembles to ``[lo]`` only, but missing words enter the mix as
    zeros either way, so the zero-padded pool is right for all of them.
    """
    pool = np.zeros((_POOL_SIZE, seeds.shape[0]), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MUL[:_POOL_SIZE])
    for src in range(_POOL_SIZE):
        hashed = _hashmix(pool[src], _SRC_XOR[src], _SRC_MUL[src])
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed
    # generate_state cycles through the pool: word i hashes pool[i % 4].
    return _hashmix(np.concatenate((pool, pool)), _GEN_XOR, _GEN_MUL)


def _seeded(seeds: np.ndarray) -> Iterator[Tuple[int, np.random.PCG64]]:
    """Yield ``(i, bitgen)`` with ``bitgen`` at ``default_rng(seeds[i])``'s start.

    One ``np.random.PCG64`` per call is set to each seed's state in
    turn, so a consumer must finish drawing row ``i`` before asking for
    the next one.
    """
    # Word pairs read little-endian give generate_state(4, uint64):
    # (initstate hi, initstate lo, initseq hi, initseq lo) per seed.
    words = np.ascontiguousarray(_seed_words(seeds).T, dtype="<u4")
    bitgen = np.random.PCG64(0)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for i, (st_hi, st_lo, seq_hi, seq_lo) in enumerate(words.view("<u8").tolist()):
        # pcg64_srandom_r: two LCG steps from state 0.
        inc = ((((seq_hi << 64) | seq_lo) << 1) | 1) & _M128
        pcg["state"] = ((inc + ((st_hi << 64) | st_lo)) * _PCG_MULT + inc) & _M128
        pcg["inc"] = inc
        bitgen.state = state
        yield i, bitgen


def _uniform_bit_block_fast(seeds: np.ndarray, n_bits: int) -> np.ndarray:
    out = np.empty((seeds.shape[0], n_bits), dtype=np.uint8)
    for i, bitgen in _seeded(seeds):
        np.less(bitgen.random_raw(n_bits), _TOP_BIT, out=out[i])
    return out


def _uniform_bit_block_reference(seeds: np.ndarray, n_bits: int) -> np.ndarray:
    out = np.empty((seeds.shape[0], n_bits), dtype=np.uint8)
    for i, seed in enumerate(seeds):
        out[i] = np.random.default_rng(int(seed)).random(n_bits) < 0.5
    return out


def _coin_block_fast(seeds: np.ndarray) -> np.ndarray:
    # integers(0, 2) is Lemire's method on the first 32-bit draw, the
    # low half of the first raw word: (low32 * 2) >> 32 is its bit 31.
    out = np.empty(seeds.shape[0], dtype=np.int64)
    for i, bitgen in _seeded(seeds):
        out[i] = (bitgen.random_raw() >> 31) & 1
    return out


def _coin_block_reference(seeds: np.ndarray) -> np.ndarray:
    return np.array(
        [np.random.default_rng(int(seed)).integers(0, 2) for seed in seeds],
        dtype=np.int64,
    )


def _self_check() -> bool:
    probes = np.array(
        [0, 1, 12345, 2**32 - 1, 2**32, 2**31, 2**63 + 12345, 2**64 - 1],
        dtype=np.uint64,
    )
    try:
        fast = _uniform_bit_block_fast(probes, 67)
        coins = _coin_block_fast(probes)
    except Exception:  # pragma: no cover - exotic numpy only
        return False
    return bool(
        np.array_equal(fast, _uniform_bit_block_reference(probes, 67))
        and np.array_equal(coins, _coin_block_reference(probes))
    )


_FAST_PATH_OK = _self_check()


def fast_path_enabled() -> bool:
    """Whether the vectorized path survived the startup self-check."""
    return _FAST_PATH_OK


def uniform_bit_block(
    seeds: Union[Sequence[int], np.ndarray], n_bits: int
) -> np.ndarray:
    """Uniform bits for many keyed seeds at once.

    Row ``i`` is bit-identical to
    ``(np.random.default_rng(seeds[i]).random(n_bits) < 0.5)`` --
    i.e. to :func:`repro.rng.uniform_bits` when ``seeds[i]`` is that
    call's ``stable_seed``.  Returns a ``(len(seeds), n_bits)`` uint8
    array of 0/1.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise ValueError(f"seeds must be one-dimensional, got {seeds.shape}")
    if seeds.shape[0] == 0:
        return np.empty((0, n_bits), dtype=np.uint8)
    if not _FAST_PATH_OK:
        return _uniform_bit_block_reference(seeds, n_bits)
    return _uniform_bit_block_fast(seeds, n_bits)


def coin_block(seeds: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """One fair coin per keyed seed, all at once.

    Entry ``i`` equals ``np.random.default_rng(seeds[i]).integers(0, 2)``
    -- i.e. the draw :meth:`repro.core.patterns.DataPattern.row_bits`
    makes to pick a fixed pair's byte.  Returns a ``(len(seeds),)``
    int64 array of 0/1.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise ValueError(f"seeds must be one-dimensional, got {seeds.shape}")
    if not _FAST_PATH_OK:
        return _coin_block_reference(seeds)
    return _coin_block_fast(seeds)
