"""Distribution statistics for box-and-whisker reporting.

The paper reports success-rate *distributions* across all tested row
groups (footnote 8 defines the box plot: box = Q1..Q3, whiskers =
min/max).  :class:`DistributionSummary` carries exactly those five
numbers plus the mean and sample count.

Fleet-scale analytics batch these: :func:`summarize_each` computes one
summary per sample with a single percentile/mean/extrema pass per
sample length (bit-identical to looping :func:`summarize`), and
:func:`bootstrap_mean_ci` resamples a whole bootstrap in one indexed
gather instead of ``resamples`` Python-level draws.

NumPy (and :mod:`repro.rng`, which needs it) is imported inside the
functions that compute, so a reader that only carries the dataclasses
-- the result service answering a figure -- never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..errors import ExperimentError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number summary + mean of a sample of success rates."""

    mean: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n: int

    @property
    def iqr(self) -> float:
        """Inter-quartile range (the box size)."""
        return self.q3 - self.q1

    def as_percent(self) -> "DistributionSummary":
        """The same summary scaled from fractions to percentages."""
        return DistributionSummary(
            mean=self.mean * 100.0,
            minimum=self.minimum * 100.0,
            q1=self.q1 * 100.0,
            median=self.median * 100.0,
            q3=self.q3 * 100.0,
            maximum=self.maximum * 100.0,
            n=self.n,
        )

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.4f} min={self.minimum:.4f} q1={self.q1:.4f} "
            f"med={self.median:.4f} q3={self.q3:.4f} max={self.maximum:.4f} "
            f"(n={self.n})"
        )


def _validated(values: Sequence[float]) -> np.ndarray:
    """A non-empty, NaN-free float64 array of the sample."""
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ExperimentError(
            f"can only summarize a flat sample, got shape {arr.shape}"
        )
    if arr.size == 0:
        raise ExperimentError("cannot summarize an empty sample")
    if np.isnan(arr).any():
        raise ExperimentError("cannot summarize a sample containing NaN")
    return arr


def summarize(values: Sequence[float]) -> DistributionSummary:
    """Compute the five-number summary of a non-empty sample."""
    import numpy as np

    arr = _validated(values)
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return DistributionSummary(
        mean=float(arr.mean()),
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(arr.max()),
        n=int(arr.size),
    )


def _summaries_from_matrix(matrix: np.ndarray) -> List[DistributionSummary]:
    """One summary per row, all rows reduced in single vector passes."""
    import numpy as np

    quartiles = np.percentile(matrix, [25.0, 50.0, 75.0], axis=1)
    means = matrix.mean(axis=1)
    minima = matrix.min(axis=1)
    maxima = matrix.max(axis=1)
    n = int(matrix.shape[1])
    return [
        DistributionSummary(
            mean=float(means[row]),
            minimum=float(minima[row]),
            q1=float(quartiles[0, row]),
            median=float(quartiles[1, row]),
            q3=float(quartiles[2, row]),
            maximum=float(maxima[row]),
            n=n,
        )
        for row in range(matrix.shape[0])
    ]


def summarize_each(
    samples: Sequence[Sequence[float]],
) -> List[DistributionSummary]:
    """One :func:`summarize` per sample, computed in batched passes.

    Samples are grouped by length and each group is reduced as one
    matrix, so a fleet of per-module rate lists costs a handful of
    NumPy reductions instead of one per module.  Results are
    bit-identical to ``[summarize(s) for s in samples]``.
    """
    import numpy as np

    arrays = [_validated(sample) for sample in samples]
    out: List[DistributionSummary] = [None] * len(arrays)  # type: ignore[list-item]
    by_length: Dict[int, List[int]] = {}
    for index, arr in enumerate(arrays):
        by_length.setdefault(arr.size, []).append(index)
    for indices in by_length.values():
        matrix = np.stack([arrays[index] for index in indices])
        for index, summary in zip(indices, _summaries_from_matrix(matrix)):
            out[index] = summary
    return out


@dataclass(frozen=True)
class BootstrapCI:
    """Percentile-bootstrap confidence interval for a sample mean."""

    mean: float
    low: float
    high: float
    confidence: float
    resamples: int
    n: int

    @property
    def halfwidth(self) -> float:
        """Half the interval width (a scalar error-bar size)."""
        return (self.high - self.low) / 2.0

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.4f} "
            f"[{self.low:.4f}, {self.high:.4f}] "
            f"@{self.confidence:.0%} (n={self.n}, B={self.resamples})"
        )


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> BootstrapCI:
    """Seeded percentile-bootstrap CI of the sample mean.

    The whole bootstrap is one ``(resamples, n)`` integer draw and one
    gathered row-mean, deterministic for a given ``(seed, n,
    resamples)`` triple.
    """
    import numpy as np

    from .. import rng

    if not 0.0 < confidence < 1.0:
        raise ExperimentError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ExperimentError(f"need at least one resample, got {resamples}")
    arr = _validated(values)
    generator = rng.generator("bootstrap-ci", seed, int(arr.size), int(resamples))
    indices = generator.integers(0, arr.size, size=(int(resamples), arr.size))
    means = arr[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.percentile(means, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return BootstrapCI(
        mean=float(arr.mean()),
        low=float(low),
        high=float(high),
        confidence=float(confidence),
        resamples=int(resamples),
        n=int(arr.size),
    )


def bootstrap_mean_ci_each(
    samples: Sequence[Sequence[float]],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> List[BootstrapCI]:
    """One :func:`bootstrap_mean_ci` per sample, batched across cells.

    The per-cell bootstrap is keyed by ``(seed, n, resamples)`` only,
    so every same-length sample shares one index draw: samples are
    grouped by length, each group's resampling is a single gathered
    ``(cells, resamples, n)`` row-mean, and the percentiles reduce per
    row.  Results are bit-identical to looping
    ``[bootstrap_mean_ci(s, ...) for s in samples]`` -- NumPy reduces
    the contiguous trailing axis with the same pairwise summation
    either way -- which the test suite asserts exactly.
    """
    import numpy as np

    from .. import rng

    if not 0.0 < confidence < 1.0:
        raise ExperimentError(f"confidence must be in (0, 1), got {confidence}")
    if resamples < 1:
        raise ExperimentError(f"need at least one resample, got {resamples}")
    arrays = [_validated(sample) for sample in samples]
    out: List[BootstrapCI] = [None] * len(arrays)  # type: ignore[list-item]
    by_length: Dict[int, List[int]] = {}
    for index, arr in enumerate(arrays):
        by_length.setdefault(arr.size, []).append(index)
    alpha = (1.0 - confidence) / 2.0
    percentiles = [100.0 * alpha, 100.0 * (1.0 - alpha)]
    for n, group in by_length.items():
        generator = rng.generator("bootstrap-ci", seed, int(n), int(resamples))
        indices = generator.integers(0, n, size=(int(resamples), n))
        matrix = np.stack([arrays[index] for index in group])
        # (cells, resamples, n) gather, reduced over the trailing axis.
        # Mixing a basic slice with the advanced index leaves the
        # gathered copy transposed in memory; the C-order copy makes
        # each row's reduction walk the same contiguous layout as the
        # scalar path, which the bit-identity contract needs.
        means = np.ascontiguousarray(matrix[:, indices]).mean(axis=2)
        bounds = np.percentile(means, percentiles, axis=1)
        cell_means = matrix.mean(axis=1)
        for row, index in enumerate(group):
            out[index] = BootstrapCI(
                mean=float(cell_means[row]),
                low=float(bounds[0, row]),
                high=float(bounds[1, row]),
                confidence=float(confidence),
                resamples=int(resamples),
                n=int(n),
            )
    return out


class StreamingBootstrap:
    """Incremental (Poisson) bootstrap CI over a growing observation stream.

    The adaptive planner feeds each cell's per-trial rates in round
    chunks; re-running :func:`bootstrap_mean_ci` from scratch every
    round would re-resample every prior round's observations.  This
    class keeps ``resamples`` weighted running sums instead: extending
    by a chunk of ``k`` observations draws a ``(resamples, k)``
    Poisson(1) weight block -- keyed by ``(seed, chunk_index, k,
    resamples)``, so a given round's weights never depend on how
    earlier rounds were sized -- and updates each resample's weighted
    sum and count in one matrix product.  Prior chunks are never
    touched again: cost per round is O(resamples * k), not
    O(resamples * total).

    The Poisson bootstrap approximates the multinomial resample count
    per observation with independent Poisson(1) draws; resamples whose
    total count lands on zero fall back to the running sample mean.
    """

    def __init__(
        self,
        confidence: float = 0.95,
        resamples: int = 2000,
        seed: int = 0,
    ):
        import numpy as np

        if not 0.0 < confidence < 1.0:
            raise ExperimentError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        if resamples < 1:
            raise ExperimentError(f"need at least one resample, got {resamples}")
        self.confidence = float(confidence)
        self.resamples = int(resamples)
        self.seed = int(seed)
        self._chunks = 0
        self._n = 0
        self._total = 0.0
        self._weighted_sums = np.zeros(self.resamples, dtype=np.float64)
        self._weight_counts = np.zeros(self.resamples, dtype=np.int64)

    @property
    def n(self) -> int:
        """Observations absorbed so far."""
        return self._n

    def extend(self, values: Sequence[float]) -> None:
        """Absorb one chunk of observations (a round's worth)."""
        import numpy as np

        from .. import rng

        chunk = np.asarray(values, dtype=np.float64)
        if chunk.ndim != 1:
            raise ExperimentError(
                f"can only extend with a flat chunk, got shape {chunk.shape}"
            )
        if chunk.size == 0:
            return
        if np.isnan(chunk).any():
            raise ExperimentError("cannot extend with a chunk containing NaN")
        weights = rng.generator(
            "stream-bootstrap", self.seed, self._chunks,
            int(chunk.size), self.resamples,
        ).poisson(1.0, size=(self.resamples, int(chunk.size)))
        self._weighted_sums += weights @ chunk
        self._weight_counts += weights.sum(axis=1)
        self._chunks += 1
        self._n += int(chunk.size)
        self._total += float(chunk.sum())

    def ci(self) -> BootstrapCI:
        """The CI over everything absorbed so far."""
        import numpy as np

        if self._n == 0:
            raise ExperimentError("cannot compute a CI before any observations")
        mean = self._total / self._n
        means = np.where(
            self._weight_counts > 0,
            self._weighted_sums / np.maximum(self._weight_counts, 1),
            mean,
        )
        alpha = (1.0 - self.confidence) / 2.0
        low, high = np.percentile(
            means, [100.0 * alpha, 100.0 * (1.0 - alpha)]
        )
        return BootstrapCI(
            mean=float(mean),
            low=float(low),
            high=float(high),
            confidence=self.confidence,
            resamples=self.resamples,
            n=self._n,
        )
