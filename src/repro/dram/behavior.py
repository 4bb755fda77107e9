"""Calibrated reliability model.

Real PUD success rates emerge from analog margins: how far the
bitline's charge-sharing perturbation lands beyond each sense
amplifier's offset.  This module models that as a *z-score contest*:

- every column (bitline + sense amp) owns a threshold ``eta ~ N(0,1)``
  fixed by process variation (deterministic per chip seed);
- every operation configuration produces a signal ``z`` composed from
  a base term plus timing / data-pattern / temperature / voltage
  adjustments plus a per-row-group offset;
- a column computes the operation *reliably* iff ``z > eta``; columns
  below threshold flip randomly per trial, so the paper's
  "correct in all trials" success-rate metric converges to ``Phi(z)``.

The base terms and adjustments are **calibrated to the paper's
measured numbers** (the anchors are quoted inline below and the fit is
documented in DESIGN.md section 6).  The *mechanism* -- bigger
perturbation from replicated inputs -> higher success -- is reproduced
from first principles by :mod:`repro.spice`; this module reproduces
the measured magnitudes so downstream figures match the paper's shape.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, FrozenSet, Sequence, Tuple

import numpy as np

from .. import rng, rngblock
from ..config import SimulationConfig
from ..errors import ConfigurationError
from .vendor import VendorProfile


def phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def phi_inverse(p: float) -> float:
    """Inverse standard normal CDF (Acklam-style rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"probability must be in (0, 1): {p}")
    # Beasley-Springer-Moro style approximation; accurate to ~1e-7,
    # plenty for calibration sanity checks.
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    ) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


class OperationClass(enum.Enum):
    """Reliability families; columns correlate within a family."""

    ACTIVATION = "activation"
    MAJORITY = "majority"
    MULTI_ROW_COPY = "multi_row_copy"
    ROWCLONE = "rowclone"
    FRAC = "frac"


# ---------------------------------------------------------------------------
# Calibration constants.  Anchors quote the paper's section / number.
# ---------------------------------------------------------------------------

# -- MAJX (section 5) -------------------------------------------------------
# Base fit: z = MAJ_LN_R_GAIN * ln(replicas) - MAJ_LN_N_COST * ln(N) +
# MAJ_BASE anchored to MAJ3/5/7/9 @ 32-row = 99.00 / 79.64 / 33.87 / 5.91%
# (Obs 8) and MAJ3 @ 4-row ~ 68.2% (Obs 6: 30.81% below MAJ3 @ 32-row).
MAJ_LN_R_GAIN = 3.187
MAJ_LN_N_COST = 2.605
MAJ_BASE = 4.079

# Fixed data patterns raise MAJX success (Obs 9: +0.68 / +13.85 / +32.56 /
# +16.51% for MAJ3/5/7/9 @ 32-row with 0x00/0xFF over random).
MAJ_PATTERN_BONUS: Dict[int, float] = {3: 0.40, 5: 0.69, 7: 0.84, 9: 0.80}
MAJ_PATTERN_SCALE: Dict[str, float] = {
    "00ff": 1.00,
    "aa55": 0.95,
    "cc33": 0.93,
    "6699": 0.90,
    "random": 0.0,
}

# Timing (Obs 7): best is t1=1.5/t2=3; t1=3/t2=3 is ~45.5% worse for
# MAJ3 @ 32-row -> -2.3 z at t1=3.  t2 below the latch-assert window
# (~1.5 ns) prevents reliable assertion of intermediate decoder
# signals -> large penalty.
MAJ_T1_SLOPE_PER_NS = 2.3 / 1.5
MAJ_T2_SHORT_PENALTY = 4.5
MAJ_T2_ASSERT_WINDOW_NS = 2.0

# Temperature raises MAJX success slightly (Obs 11: ~4.25% average
# variation 50->90C; Obs 12 shows mid-range ops move most, which the
# Gaussian link produces automatically).
MAJ_TEMP_Z_PER_C = 0.006
# Wordline voltage has a small effect (Obs 13: ~1.10% average variation).
MAJ_VPP_Z_PER_V = 0.30

# -- Many-row activation (section 4) ---------------------------------------
# Obs 1: 2..32-row activation at 99.99..99.85% with t1=t2=3 ns.
ACT_BASE = 3.55
ACT_N_COST = 0.02
# Obs 2: t2=1.5 ns costs ~21.74% @ 8 rows.
ACT_T2_SHORT_BASE = 2.3
ACT_T2_SHORT_PER_ROW = 0.04
ACT_T1_SHORT_PENALTY = 0.10
# Obs 3: -0.07% average, 50 -> 90C.
ACT_TEMP_Z_PER_C = -0.0015
# Obs 4: at most -0.41% when VPP drops 2.5 -> 2.1 V.
ACT_VPP_Z_PER_V = 0.50

# -- Multi-RowCopy (section 6) ----------------------------------------------
# Obs 14: 99.996 / 99.989 / 99.998 / 99.999 / 99.982% for 1/3/7/15/31
# destination rows at t1=36, t2=3.
MRC_BASE = 3.90
MRC_DEST_WIGGLE: Dict[int, float] = {1: 0.04, 3: -0.21, 7: 0.20, 15: 0.36, 31: -0.33}
# Obs 15: t1=1.5 collapses to ~50% (sense amps never drive the bitlines).
MRC_T1_CURVE: Tuple[Tuple[float, float], ...] = (
    (1.5, -0.15),
    (3.0, 1.50),
    (6.0, 2.40),
    (36.0, 3.90),
)
# Obs 16: copying all-1s to 31 rows loses ~0.79%; little effect below.
MRC_ALL1_PENALTY = 1.16
# Obs 17: 0.04% average variation over temperature.
MRC_TEMP_Z_PER_C = -0.001
# Obs 18: at most -1.32% at 2.1 V.
MRC_VPP_Z_PER_V = 1.50

# -- RowClone / Frac ---------------------------------------------------------
ROWCLONE_BASE = 4.0
FRAC_BASE = 3.6

# -- Population structure ----------------------------------------------------
GROUP_OFFSET_SIGMA: Dict[OperationClass, float] = {
    OperationClass.ACTIVATION: 0.22,
    OperationClass.MAJORITY: 0.35,
    OperationClass.MULTI_ROW_COPY: 0.18,
    OperationClass.ROWCLONE: 0.15,
    OperationClass.FRAC: 0.20,
}
MODULE_PERSONALITY_SIGMA = 0.08
COLUMN_SHARED_WEIGHT = 0.92
COLUMN_OP_WEIGHT = 0.39  # sqrt(0.92^2 + 0.39^2) ~ 1.0


def _interpolate(curve: Tuple[Tuple[float, float], ...], x: float) -> float:
    """Piecewise-linear interpolation with flat extrapolation."""
    if x <= curve[0][0]:
        return curve[0][1]
    if x >= curve[-1][0]:
        return curve[-1][1]
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        if x0 <= x <= x1:
            frac = (x - x0) / (x1 - x0)
            return y0 + frac * (y1 - y0)
    raise AssertionError("unreachable: curve interpolation fell through")


class ReliabilityModel:
    """Per-module stochastic stability model.

    One instance belongs to one simulated module; its draws are keyed
    by ``(seed, module_serial)`` so different modules show different
    (but reproducible) personalities, matching the cross-module
    distributions the paper reports.
    """

    def __init__(
        self,
        config: SimulationConfig,
        profile: VendorProfile,
        module_serial: str,
    ):
        self._config = config
        self._profile = profile
        self._serial = module_serial
        personality = rng.generator(
            config.seed, "module-personality", module_serial
        ).standard_normal()
        self._personality = float(
            profile.reliability_bias + MODULE_PERSONALITY_SIGMA * personality
        )
        self._threshold_cache: Dict[
            Tuple[int, int, OperationClass, int], np.ndarray
        ] = {}
        self._group_offset_cache: Dict[
            Tuple[int, int, FrozenSet[int], OperationClass], float
        ] = {}
        # Context-noise seeds hash (seed, "ctx-noise", serial), then a
        # (bank, subarray, tag) head, then the context tokens.  The
        # prefix is fixed per model and heads repeat per noise site, so
        # both are hashed/encoded once (see :meth:`_context_seed`).
        self._context_prefix = rng.SeedPrefix(
            config.seed, "ctx-noise", module_serial
        )
        self._context_heads: Dict[Tuple[int, int, str], bytes] = {}

    @property
    def personality(self) -> float:
        """This module's global z offset (vendor bias + module draw)."""
        return self._personality

    # -- configuration z-scores ---------------------------------------------

    def activation_z(
        self, n_rows: int, t1_ns: float, t2_ns: float, temp_c: float, vpp: float
    ) -> float:
        """Signal z for the many-row-activation + WR experiment (section 4)."""
        z = ACT_BASE - ACT_N_COST * n_rows
        if t2_ns < MAJ_T2_ASSERT_WINDOW_NS:
            z -= ACT_T2_SHORT_BASE + ACT_T2_SHORT_PER_ROW * n_rows
        if t1_ns < MAJ_T2_ASSERT_WINDOW_NS:
            z -= ACT_T1_SHORT_PENALTY
        z += ACT_TEMP_Z_PER_C * (temp_c - 50.0)
        z -= ACT_VPP_Z_PER_V * (2.5 - vpp)
        return z + self._personality

    def majx_z(
        self,
        x: int,
        n_rows: int,
        replicas: int,
        t1_ns: float,
        t2_ns: float,
        pattern_kind: str,
        temp_c: float,
        vpp: float,
    ) -> float:
        """Signal z for a MAJX operation (section 5).

        ``replicas`` is how many copies of each of the X operands are
        stored among the ``n_rows`` activated rows (the rest are
        neutral rows).
        """
        if x < 3 or x % 2 == 0:
            raise ConfigurationError(f"MAJX requires odd X >= 3: {x}")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1: {replicas}")
        if replicas * x > n_rows:
            raise ConfigurationError(
                f"{replicas} replicas of {x} operands exceed {n_rows} rows"
            )
        z = MAJ_BASE + MAJ_LN_R_GAIN * math.log(replicas) - MAJ_LN_N_COST * math.log(
            n_rows
        )
        # Timing: every ns of t1 above the minimum lets the first row
        # over-share its charge and skew the majority.
        z -= MAJ_T1_SLOPE_PER_NS * max(0.0, t1_ns - 1.5)
        if t2_ns < MAJ_T2_ASSERT_WINDOW_NS:
            z -= MAJ_T2_SHORT_PENALTY
        scale = MAJ_PATTERN_SCALE.get(pattern_kind, 0.0)
        if scale:
            bonus = MAJ_PATTERN_BONUS.get(x, MAJ_PATTERN_BONUS[9])
            z += scale * bonus
        z += MAJ_TEMP_Z_PER_C * (temp_c - 50.0)
        z -= MAJ_VPP_Z_PER_V * (2.5 - vpp)
        return z + self._personality

    def majority_column_z(
        self,
        imbalance: np.ndarray,
        n_rows: int,
        t1_ns: float,
        t2_ns: float,
        pattern_scale: float,
        temp_c: float,
        vpp: float,
    ) -> np.ndarray:
        """Per-column signal z for a charge-sharing majority contest.

        ``imbalance`` is the per-column ``|n1 - n0|`` among the
        simultaneously activated cells -- the physical source of the
        bitline perturbation.  Input replication raises it (r copies of
        the tightest X-operand split give ``|n1 - n0| = r``), which is
        exactly how replication raises success rates (section 7.2).
        Columns with zero imbalance present no differential and are
        never stable.

        ``pattern_scale`` in [0, 1] reflects how regular the stored
        data is (1 for the paper's single-byte fixed patterns, 0 for
        random); regular data suffers less coupling noise (Obs 9).
        """
        d = np.abs(np.asarray(imbalance, dtype=np.float64))
        with np.errstate(divide="ignore"):
            z = (
                MAJ_BASE
                + MAJ_LN_R_GAIN * np.log(np.maximum(d, 1e-9))
                - MAJ_LN_N_COST * math.log(n_rows)
            )
        z = np.where(d < 1.0, -np.inf, z)
        z -= MAJ_T1_SLOPE_PER_NS * max(0.0, t1_ns - 1.5)
        if t2_ns < MAJ_T2_ASSERT_WINDOW_NS:
            z -= MAJ_T2_SHORT_PENALTY
        if pattern_scale > 0.0:
            ratio = np.minimum(d / float(n_rows), 1.0)
            bonus = np.clip(1.05 - 2.1 * ratio, 0.0, 0.9)
            z = z + pattern_scale * bonus
        z += MAJ_TEMP_Z_PER_C * (temp_c - 50.0)
        z -= MAJ_VPP_Z_PER_V * (2.5 - vpp)
        return z + self._personality

    def multi_row_copy_z(
        self,
        n_destinations: int,
        t1_ns: float,
        t2_ns: float,
        source_ones_fraction: float,
        temp_c: float,
        vpp: float,
    ) -> float:
        """Signal z for Multi-RowCopy to ``n_destinations`` rows (section 6).

        ``source_ones_fraction`` is measured from the source row's
        data; driving many bitlines high simultaneously droops the
        array supply, which is why copying all-1s to 31 rows is the
        worst case (Obs 16).  The cubic keeps the penalty negligible
        for random data (fraction ~0.5).
        """
        if n_destinations < 1:
            raise ConfigurationError(
                f"n_destinations must be >= 1: {n_destinations}"
            )
        n_rows = n_destinations + 1
        z = _interpolate(MRC_T1_CURVE, t1_ns)
        z += MRC_DEST_WIGGLE.get(n_destinations, -0.01 * n_destinations)
        if t2_ns < MAJ_T2_ASSERT_WINDOW_NS:
            z -= 0.5  # partially asserted decoder signals
        z -= (
            MRC_ALL1_PENALTY
            * float(source_ones_fraction) ** 3
            * (n_rows / 32.0) ** 4
        )
        z += MRC_TEMP_Z_PER_C * (temp_c - 50.0)
        z -= MRC_VPP_Z_PER_V * (2.5 - vpp) * (n_rows / 32.0)
        return z + self._personality

    def rowclone_z(self, t1_ns: float, temp_c: float, vpp: float) -> float:
        """Signal z for a two-row consecutive-activation copy."""
        z = ROWCLONE_BASE if t1_ns >= 6.0 else ROWCLONE_BASE - 2.0
        z += MRC_TEMP_Z_PER_C * (temp_c - 50.0)
        z -= MRC_VPP_Z_PER_V * (2.5 - vpp) * 0.1
        return z + self._personality

    def frac_z(self, temp_c: float, vpp: float) -> float:
        """Signal z for a Frac (fractional-value write) operation."""
        z = FRAC_BASE
        z += MRC_TEMP_Z_PER_C * (temp_c - 50.0)
        z -= MRC_VPP_Z_PER_V * (2.5 - vpp) * 0.1
        return z + self._personality

    # -- stochastic structure -------------------------------------------------

    def column_thresholds(
        self, bank: int, subarray: int, op_class: OperationClass, columns: int
    ) -> np.ndarray:
        """Per-column sensing thresholds eta for one subarray & op family.

        A shared component models the bitline/sense-amp offset common
        to every operation; a family component decorrelates operation
        types slightly.
        """
        key = (bank, subarray, op_class, columns)
        cached = self._threshold_cache.get(key)
        if cached is not None:
            return cached
        shared = rng.standard_normal(
            columns, self._config.seed, "eta-shared", self._serial, bank, subarray
        )
        per_op = rng.standard_normal(
            columns,
            self._config.seed,
            "eta-op",
            self._serial,
            bank,
            subarray,
            op_class.value,
        )
        eta = COLUMN_SHARED_WEIGHT * shared + COLUMN_OP_WEIGHT * per_op
        self._threshold_cache[key] = eta
        return eta

    def group_offset(
        self,
        bank: int,
        subarray: int,
        rows: FrozenSet[int],
        op_class: OperationClass,
    ) -> float:
        """z offset of one simultaneously-activated row group.

        Row groups differ because the participating cells' capacitances
        differ; this term produces the box-and-whisker spread across
        groups that Figs 3, 6, and 10 report.
        """
        key = (bank, subarray, rows, op_class)
        cached = self._group_offset_cache.get(key)
        if cached is not None:
            return cached
        token = ",".join(str(r) for r in sorted(rows))
        draw = rng.generator(
            self._config.seed,
            "group-offset",
            self._serial,
            bank,
            subarray,
            op_class.value,
            token,
        ).standard_normal()
        offset = float(GROUP_OFFSET_SIGMA[op_class] * draw)
        self._group_offset_cache[key] = offset
        return offset

    def stable_mask(
        self,
        z: float,
        bank: int,
        subarray: int,
        rows: FrozenSet[int],
        op_class: OperationClass,
        columns: int,
    ) -> np.ndarray:
        """Boolean mask of columns that perform the operation reliably."""
        if self._config.functional_only:
            return np.ones(columns, dtype=bool)
        eta = self.column_thresholds(bank, subarray, op_class, columns)
        offset = self.group_offset(bank, subarray, rows, op_class)
        return (z + offset) > eta

    def stable_mask_vector(
        self,
        z_columns: np.ndarray,
        bank: int,
        subarray: int,
        rows: FrozenSet[int],
        op_class: OperationClass,
    ) -> np.ndarray:
        """Like :meth:`stable_mask` but with a per-column z vector.

        ``z_columns`` may carry leading batch axes -- e.g. a
        ``(trials, columns)`` stack from a fused kernel -- in which
        case the thresholds broadcast across them.
        """
        z_columns = np.asarray(z_columns, dtype=np.float64)
        if self._config.functional_only:
            return np.ones(z_columns.shape, dtype=bool)
        eta = self.column_thresholds(
            bank, subarray, op_class, z_columns.shape[-1]
        )
        offset = self.group_offset(bank, subarray, rows, op_class)
        return (z_columns + offset) > eta

    def trial_noise(
        self, trial: int, bank: int, subarray: int, columns: int, tag: str
    ) -> np.ndarray:
        """Per-trial coin flips for unstable columns (uint8 0/1).

        Keyed by an operation ordinal, so the draw depends on how many
        operations the bank executed before this one.  Engine-driven
        measurements use :meth:`context_noise` instead, whose keys are
        derived from the experiment identity and therefore do not
        depend on execution order.
        """
        return rng.uniform_bits(
            columns,
            self._config.seed,
            "trial-noise",
            self._serial,
            bank,
            subarray,
            tag,
            trial,
        )

    def context_noise(
        self,
        context: Tuple[rng.Token, ...],
        bank: int,
        subarray: int,
        columns: int,
        tag: str,
    ) -> np.ndarray:
        """Per-trial coin flips keyed by an explicit measurement context.

        ``context`` identifies the measurement (operation signature,
        operating point, row group, trial index) instead of the bank's
        operation ordinal, so the same context always yields the same
        bits regardless of what ran before -- the property that makes
        serial, sharded, and vectorized executors bit-identical.
        """
        return self.encoded_context_noise(
            rng.encode_tokens(context), bank, subarray, columns, tag
        )

    def encoded_context_noise(
        self,
        encoded_context: bytes,
        bank: int,
        subarray: int,
        columns: int,
        tag: str,
    ) -> np.ndarray:
        """:meth:`context_noise` of an already ``rng.encode_tokens``-encoded
        context.

        A bank encodes its noise context once per trial and draws every
        row of that trial through here.
        """
        return rng.seeded_bits(
            columns, self._context_seed(bank, subarray, tag, encoded_context)
        )

    def _context_seed(
        self, bank: int, subarray: int, tag: str, encoded_context: bytes
    ) -> int:
        """``stable_seed(seed, "ctx-noise", serial, bank, subarray, tag,
        *context)`` from the cached prefix, a memoized head and the
        encoded context -- the same bytes in the same order."""
        head_key = (bank, subarray, tag)
        head = self._context_heads.get(head_key)
        if head is None:
            head = rng.encode_tokens(head_key)
            self._context_heads[head_key] = head
        return self._context_prefix.seed_bytes(head + encoded_context)

    # -- fused block entry points ---------------------------------------------

    def stable_mask_block(
        self,
        z_values: np.ndarray,
        bank: int,
        subarray: int,
        groups: Sequence[FrozenSet[int]],
        op_class: OperationClass,
        columns: int,
    ) -> np.ndarray:
        """Stable masks for many scalar-z contests in one shot.

        Row ``i`` equals ``stable_mask(z_values[i], bank, subarray,
        groups[i], op_class, columns)``; a fused kernel evaluates all
        its (group x trial) contests against the one shared threshold
        vector instead of re-fetching it per trial.
        """
        z = np.asarray(z_values, dtype=np.float64)
        if self._config.functional_only:
            return np.ones((z.shape[0], columns), dtype=bool)
        eta = self.column_thresholds(bank, subarray, op_class, columns)
        offsets = np.array(
            [self.group_offset(bank, subarray, g, op_class) for g in groups],
            dtype=np.float64,
        )
        return (z + offsets)[:, None] > eta[None, :]

    def context_noise_block(
        self,
        entries: Sequence[Tuple[int, int, str, Tuple[rng.Token, ...]]],
        columns: int,
    ) -> np.ndarray:
        """Many :meth:`context_noise` draws as one vectorized block.

        ``entries`` is a sequence of ``(bank, subarray, tag, context)``
        tuples; row ``i`` of the returned ``(len(entries), columns)``
        uint8 array is bit-identical to
        ``context_noise(context, bank, subarray, columns, tag)``.
        Seeds come from the same :meth:`_context_seed` as the per-row
        path; only the draw is vectorized.
        """
        encoded = rng.TokenEncoder()
        # Entries enumerate a (site, row, trial) cross product, so each
        # context repeats many times; memoizing its encoding leaves one
        # concat and one hash per entry.  The memo is keyed exactly
        # (rng.exact_key): (1,), (True,) and (1.0,) are equal tuples
        # with three encodings.
        tails: Dict[tuple, bytes] = {}
        seeds = np.empty(len(entries), dtype=np.uint64)
        for i, (bank, subarray, tag, context) in enumerate(entries):
            key = rng.exact_key(context)
            tail = tails.get(key) if key is not None else None
            if tail is None:
                tail = b"".join(encoded(token) for token in context)
                if key is not None:
                    tails[key] = tail
            seeds[i] = self._context_seed(bank, subarray, tag, tail)
        return rngblock.uniform_bit_block(seeds, columns)
