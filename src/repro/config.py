"""Simulation-wide configuration.

:class:`SimulationConfig` bundles the knobs that trade fidelity for
speed.  Real DDR4 modules expose 8 KiB rows (65536 bits across the
rank); simulating full geometry for every experiment is possible but
slow, so experiments default to a narrower column count.  Narrowing
columns shrinks the sample size per row group (wider confidence
intervals) without moving the mean success rates, because the
reliability model draws each column independently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError

FULL_COLUMNS_PER_ROW = 65536
"""Bits per module-level DRAM row on a 64-bit rank (8 KiB)."""


@dataclass(frozen=True)
class SimulationConfig:
    """Global fidelity / reproducibility knobs.

    Parameters
    ----------
    seed:
        Master seed; all process variation derives from it.
    columns_per_row:
        Number of bitline columns simulated per row.  The paper's rows
        hold 65536 bits; smaller values subsample the bitlines.
    trials_per_test:
        How many repetitions a characterization experiment runs per row
        group.  The paper uses large trial counts (section 9 mentions
        10000 for the disturbance check); the success-rate metric needs
        enough trials that unstable cells almost surely fail once.
    functional_only:
        If True, the device behaves ideally (no unstable cells).  Used
        by the functional tests that verify logic, not reliability.
    """

    seed: int = 2024
    columns_per_row: int = 4096
    trials_per_test: int = 16
    functional_only: bool = False

    def __post_init__(self) -> None:
        if self.columns_per_row < 8:
            raise ConfigurationError("columns_per_row must be at least 8")
        if self.columns_per_row > FULL_COLUMNS_PER_ROW:
            raise ConfigurationError(
                f"columns_per_row cannot exceed {FULL_COLUMNS_PER_ROW}"
            )
        if self.trials_per_test < 1:
            raise ConfigurationError("trials_per_test must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

    @classmethod
    def quick(cls, seed: int = 2024) -> "SimulationConfig":
        """A configuration sized for unit tests and smoke benchmarks."""
        return cls(seed=seed, columns_per_row=512, trials_per_test=8)

    @classmethod
    def full_fidelity(cls, seed: int = 2024) -> "SimulationConfig":
        """Full 8 KiB rows and paper-scale trial counts (slow)."""
        return cls(
            seed=seed, columns_per_row=FULL_COLUMNS_PER_ROW, trials_per_test=64
        )

    @classmethod
    def ideal(cls, seed: int = 2024) -> "SimulationConfig":
        """Functional-only device: every cell computes perfectly."""
        return cls(seed=seed, columns_per_row=512, functional_only=True)

    def fingerprint(self) -> dict:
        """Stable identity of this configuration.

        Campaign manifests store this so a ``--resume`` run can refuse
        to mix results produced under a different seed or scale.
        """
        return {
            "seed": self.seed,
            "columns_per_row": self.columns_per_row,
            "trials_per_test": self.trials_per_test,
            "functional_only": self.functional_only,
        }

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy with a different master seed."""
        return replace(self, seed=seed)

    def with_columns(self, columns_per_row: int) -> "SimulationConfig":
        """Return a copy with a different simulated row width."""
        return replace(self, columns_per_row=columns_per_row)


DEFAULT_CONFIG = SimulationConfig()
