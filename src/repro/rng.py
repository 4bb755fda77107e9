"""Deterministic random-number utilities.

Every stochastic quantity in the simulator (per-column sense thresholds,
per-row-group offsets, per-trial noise) is derived from a *stable hash*
of the entity's identity plus the simulation seed.  This makes whole
experiments reproducible bit-for-bit across processes and Python
versions, and means two experiments that touch the same cell observe
the same process variation -- exactly like real silicon.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, Optional, Tuple, Union

import numpy as np

Token = Union[int, float, str, bytes]


def encode_token(token: Token) -> bytes:
    """The canonical byte encoding of one seed token (incl. separator).

    This is the single definition of the token wire format; both
    :func:`stable_seed` and :class:`SeedPrefix` hash exactly these
    bytes, which is what keeps prefix-cached seeding bit-identical to
    the one-shot path.
    """
    if isinstance(token, bytes):
        return b"b" + token + b"\x00"
    if isinstance(token, str):
        return b"s" + token.encode("utf-8") + b"\x00"
    if isinstance(token, bool):
        return b"i" + struct.pack("<q", int(token)) + b"\x00"
    if isinstance(token, int):
        payload = token.to_bytes(
            (token.bit_length() + 16) // 8, "little", signed=True
        )
        return b"i" + struct.pack("<I", len(payload)) + payload + b"\x00"
    if isinstance(token, float):
        return b"f" + struct.pack("<d", token) + b"\x00"
    raise TypeError(f"unsupported seed token type: {type(token)!r}")


def encode_tokens(tokens: Iterable[Token]) -> bytes:
    """Concatenated canonical encoding of a token sequence."""
    return b"".join(encode_token(token) for token in tokens)


def stable_seed(*tokens: Token) -> int:
    """Derive a 64-bit seed from an ordered sequence of identity tokens.

    Uses BLAKE2b, which is stable across platforms and Python versions,
    unlike the builtin ``hash``.
    """
    digest = hashlib.blake2b(digest_size=8)
    for token in tokens:
        digest.update(encode_token(token))
    return int.from_bytes(digest.digest(), "little")


_PLAIN_TYPES = frozenset({int, str, bytes})
_KEYED_TYPES = _PLAIN_TYPES | {bool}


def exact_key(tokens: Tuple[Token, ...]) -> Optional[tuple]:
    """A dict key for a token tuple, equal only where encodings are.

    Tuples compare by value, so ``(1,)``, ``(True,)`` and ``(1.0,)`` are
    one dict key although each encodes (and seeds) differently; so are
    ``(0.0,)`` and ``(-0.0,)``.  A tuple of int, str and bytes tokens
    is its own key: equal such tuples encode equally.  A tuple holding
    a bool is paired with its token types, and no tuple of plain
    tokens equals that pair.  A float token (or any other type)
    returns None, and the caller must not memoize that tuple.
    """
    if _PLAIN_TYPES.issuperset(map(type, tokens)):
        return tokens
    if _KEYED_TYPES.issuperset(map(type, tokens)):
        return (tuple(map(type, tokens)), tokens)
    return None


class TokenEncoder:
    """Memoizing :func:`encode_token` for bulk seed derivation.

    Block entry points derive thousands of seeds whose token tuples
    differ only in a fast-moving suffix; caching each distinct token's
    encoding (keyed by type *and* value, so ``1``/``1.0``/``True``
    stay distinct) keeps per-seed cost well under a microsecond.
    Floats are encoded afresh every time: ``0.0 == -0.0``, so a
    value-keyed entry would hand one the other's bytes.
    """

    def __init__(self) -> None:
        self._cache: dict = {}

    def __call__(self, token: Token) -> bytes:
        if isinstance(token, float):
            return encode_token(token)
        key = (token.__class__, token)
        cached = self._cache.get(key)
        if cached is None:
            cached = encode_token(token)
            self._cache[key] = cached
        return cached


class SeedPrefix:
    """Prefix-cached seed derivation for bulk keyed draws.

    Hashing the full token tuple costs ~5 us per seed; block entry
    points that need thousands of seeds per plan (fused executors)
    amortize the shared leading tokens by hashing them once and
    cloning the partial BLAKE2b state per suffix (~0.6 us).  The
    result is bit-identical to ``stable_seed(*prefix, *suffix)``
    because both hash exactly the same :func:`encode_token` bytes.
    """

    def __init__(self, *prefix: Token):
        self._digest = hashlib.blake2b(digest_size=8)
        self._digest.update(encode_tokens(prefix))

    def seed(self, *suffix: Token) -> int:
        """stable_seed(*prefix, *suffix) via the cached prefix state."""
        return self.seed_bytes(encode_tokens(suffix))

    def seed_bytes(self, suffix: bytes) -> int:
        """Like :meth:`seed` with the suffix already token-encoded."""
        digest = self._digest.copy()
        digest.update(suffix)
        return int.from_bytes(digest.digest(), "little")


def generator(*tokens: Token) -> np.random.Generator:
    """Create a numpy Generator keyed by identity tokens."""
    return np.random.default_rng(stable_seed(*tokens))


def standard_normal(shape: Union[int, Iterable[int]], *tokens: Token) -> np.ndarray:
    """Deterministic standard-normal draws keyed by identity tokens."""
    return generator(*tokens).standard_normal(shape)


def uniform_bits(n_bits: int, *tokens: Token) -> np.ndarray:
    """Deterministic uniform random bits (uint8 array of 0/1)."""
    return seeded_bits(n_bits, stable_seed(*tokens))


def seeded_bits(n_bits: int, seed: int) -> np.ndarray:
    """Uniform bits drawn from an already derived seed.

    The one definition of a keyed coin-flip row:
    ``default_rng(seed).random(n_bits) < 0.5`` as uint8 0/1.
    """
    return (np.random.default_rng(seed).random(n_bits) < 0.5).astype(np.uint8)
