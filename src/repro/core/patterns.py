"""Data patterns used in the characterization (paper section 3.1).

The paper tests a uniformly distributed random pattern (the worst
case, used by default) and four fixed byte pairs: 0x00/0xFF,
0xAA/0x55, 0xCC/0x33, 0x66/0x99.  For fixed pairs, each tested row is
filled entirely with one byte of the pair; which one is a per-row,
per-trial choice (deterministic from the identity tokens so runs are
reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import rng, rngblock
from ..errors import ConfigurationError


def byte_to_bits(byte: int, columns: int) -> np.ndarray:
    """Tile one byte across a row of ``columns`` bits (MSB first)."""
    if not 0 <= byte <= 0xFF:
        raise ConfigurationError(f"byte out of range: {byte}")
    bits = np.unpackbits(np.array([byte], dtype=np.uint8))
    repeats = -(-columns // 8)  # ceil division
    return np.tile(bits, repeats)[:columns].astype(np.uint8)


@dataclass(frozen=True)
class DataPattern:
    """One tested data pattern.

    Attributes
    ----------
    kind:
        Token the reliability model recognizes: ``"random"``,
        ``"00ff"``, ``"aa55"``, ``"cc33"``, ``"6699"``, ``"all0"``,
        ``"all1"``.
    byte_pair:
        The two bytes of a fixed pair, or None for random.
    """

    kind: str
    byte_pair: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.kind == "random":
            if self.byte_pair is not None:
                raise ConfigurationError("random pattern has no byte pair")
        elif self.byte_pair is None:
            raise ConfigurationError(f"pattern {self.kind!r} needs a byte pair")

    @property
    def is_random(self) -> bool:
        """True for the uniformly distributed random pattern."""
        return self.kind == "random"

    def row_bits(self, columns: int, *identity: rng.Token) -> np.ndarray:
        """Data for one row, keyed by identity tokens (row, trial, ...)."""
        if self.is_random:
            return rng.uniform_bits(columns, "pattern-random", *identity)
        assert self.byte_pair is not None
        choice = rng.generator("pattern-pair", self.kind, *identity).integers(0, 2)
        byte = self.byte_pair[int(choice)]
        return byte_to_bits(byte, columns)

    def row_bits_block(
        self,
        columns: int,
        identities: Sequence[Tuple[rng.Token, ...]],
    ) -> np.ndarray:
        """:meth:`row_bits` for many identity tuples -> (n, columns).

        Both kinds hash their seeds through a cached prefix: random
        patterns draw a bit block per row, fixed byte pairs one coin
        per row (:func:`repro.rngblock.coin_block`) that picks a row of
        the pair's two-row bit table.
        """
        salt = ("pattern-random",) if self.is_random else ("pattern-pair", self.kind)
        prefix = rng.SeedPrefix(*salt)
        encoded = rng.TokenEncoder()
        seeds = np.empty(len(identities), dtype=np.uint64)
        for i, identity in enumerate(identities):
            seeds[i] = prefix.seed_bytes(
                b"".join(encoded(token) for token in identity)
            )
        if self.is_random:
            return rngblock.uniform_bit_block(seeds, columns)
        return self.pair_table(columns)[rngblock.coin_block(seeds)]

    def pair_table(self, columns: int) -> np.ndarray:
        """A fixed pair's two candidate rows, ``(2, columns)``: row ``k``
        is byte ``k`` of the pair, the row a coin of ``k`` picks."""
        assert self.byte_pair is not None
        return np.stack([byte_to_bits(byte, columns) for byte in self.byte_pair])

    def operand_bits(
        self, columns: int, operand: int, *identity: rng.Token
    ) -> np.ndarray:
        """Data for one MAJX input operand.

        For fixed pairs every operand is a whole row of one byte of
        the pair; for random, operands are independent random rows.
        """
        return self.row_bits(columns, "operand", operand, *identity)

    def inverse_bits(self, bits: np.ndarray) -> np.ndarray:
        """The complementary data (used as the WR overdrive pattern in
        the activation experiment, which must differ from the
        initialization pattern)."""
        return (1 - np.asarray(bits, dtype=np.uint8)).astype(np.uint8)


PATTERN_RANDOM = DataPattern("random")
PATTERN_00FF = DataPattern("00ff", (0x00, 0xFF))
PATTERN_AA55 = DataPattern("aa55", (0xAA, 0x55))
PATTERN_CC33 = DataPattern("cc33", (0xCC, 0x33))
PATTERN_6699 = DataPattern("6699", (0x66, 0x99))
PATTERN_ALL0 = DataPattern("all0", (0x00, 0x00))
PATTERN_ALL1 = DataPattern("all1", (0xFF, 0xFF))

MAJX_TESTED_PATTERNS = (
    PATTERN_RANDOM,
    PATTERN_00FF,
    PATTERN_AA55,
    PATTERN_CC33,
    PATTERN_6699,
)
"""The five patterns of Fig 7."""

COPY_TESTED_PATTERNS = (PATTERN_ALL0, PATTERN_ALL1, PATTERN_RANDOM)
"""The three patterns of Fig 11."""
