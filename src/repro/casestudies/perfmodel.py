"""Analytic performance model for the Fig 16 microbenchmarks.

The paper's methodology (section 8.1): measure MAJX / Multi-RowCopy /
RowClone latencies with DRAM Bender, take the *empirical success
rates* per operation, select the row groups with the highest
throughput, and analytically model seven 32-bit arithmetic & logic
microbenchmarks on 8 KB of elements.  The baseline is MAJ3 with 4-row
activation plus RowClone (the prior state of the art).

We mirror that: execution time of a benchmark is

    T = sum over gate widths w:  ops(w) * T_OP / yield(w)

where ``ops(w)`` counts the dual-rail majority gates of the section
8.1 constructions (MAJ5 full-adder identity, MAJ7 carry/compressor
identities, wider-input gates for operand reductions), ``T_OP`` is
the measured per-operation command latency,
and ``yield(w)`` is the success rate of the best row group for MAJ_w
(throughput scales with the fraction of usable columns).

The logic and add/sub microbenchmarks are modelled as 8-operand bulk
reductions (the bulk-bitwise setting that motivates PUD); mul/div are
two-operand 32-bit operations.  Op counts are documented per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..errors import ConfigurationError

MAJX_LATENCIES_NS: Dict[str, float] = {
    "apa": 54.0,  # ACT ->1.5ns-> PRE ->3ns-> ACT + restore + precharge
    "rowclone": 55.5,  # ACT ->36ns-> PRE ->6ns-> ACT + precharge
    "multirowcopy": 52.5,  # ACT ->36ns-> PRE ->3ns-> ACT + precharge
}
"""Per-operation DRAM command latencies (Bender-measured style)."""

T_OP_NS = (
    MAJX_LATENCIES_NS["apa"]
    + MAJX_LATENCIES_NS["rowclone"]
    + MAJX_LATENCIES_NS["multirowcopy"]
)
"""One in-DRAM gate at 32-row activation: result copy-out (RowClone)
+ operand replication into the activation group (Multi-RowCopy) + the
MAJX APA itself."""

T_OP_BASELINE_NS = MAJX_LATENCIES_NS["apa"] + MAJX_LATENCIES_NS["rowclone"]
"""One baseline gate (MAJ3 @ 4-row activation): no replication copy is
needed with a single replica per operand, so each gate is just the APA
plus the result copy-out."""

ELEMENTS_PER_ROW_SET = 2048
"""32-bit elements in 8 KB of data (the paper's working set)."""

# Dual-rail MAJ-op counts per 32-bit element, keyed benchmark ->
# max usable X -> {gate width: operations}.  Constructions:
# - and/or: 8-operand reduction trees; a MAJ(2k-1) gate computes a
#   k-input AND/OR, so wider MAJ flattens the tree.
# - xor: 8-operand parity; multi-input XOR built from multi-input
#   majority networks (Alkaldy et al., paper ref [188]).
# - add/sub: 8-vector summation; MAJ3 = carry + MAJ3-only XOR sum
#   (14 ops/bit/add), MAJ5 = the sum = MAJ5(a,b,c,~cout,~cout)
#   identity (4 ops/bit/add), MAJ7/MAJ9 = carry-skip / column
#   compressors covering 2-3 positions per gate.
# - mul: 32x32 shift-add; partial products (AND) + adder ops, with
#   wider MAJ compressing the partial-product accumulation.
# - div: 32-step restoring division (subtract + mux per step).
MICROBENCHMARKS: Dict[str, Dict[int, Dict[int, int]]] = {
    "and": {
        3: {3: 448},
        5: {5: 256},
        7: {7: 128},
        9: {9: 96},
    },
    "or": {
        3: {3: 448},
        5: {5: 256},
        7: {7: 128},
        9: {9: 96},
    },
    "xor": {
        3: {3: 1344},
        5: {3: 256, 5: 256},
        7: {3: 128, 7: 128},
        9: {3: 96, 9: 96},
    },
    "addition": {
        3: {3: 3136},
        5: {3: 448, 5: 448},
        7: {3: 224, 7: 224},
        9: {3: 160, 9: 160},
    },
    "subtraction": {
        3: {3: 3136},
        5: {3: 448, 5: 448},
        7: {3: 224, 7: 224},
        9: {3: 160, 9: 160},
    },
    "multiplication": {
        3: {3: 15936},
        5: {3: 2048, 5: 3968},
        7: {3: 2048, 7: 2000},
        9: {3: 2048, 9: 1600},
    },
    "division": {
        3: {3: 20480},
        5: {3: 4096, 5: 4096},
        7: {3: 2048, 7: 2048},
        9: {3: 1536, 9: 1536},
    },
}

DEFAULT_YIELDS: Dict[str, Dict[int, float]] = {
    "H": {3: 0.999, 5: 0.83, 7: 0.52, 9: 0.07},
    "M": {3: 0.995, 5: 0.83, 7: 0.63},
}
"""Best-row-group success rates for MAJ_w with 32-row activation,
per manufacturer (selected-group values; Mfr. M has no usable MAJ9,
footnote 11)."""

DEFAULT_BASELINE_YIELD: Dict[str, float] = {"H": 0.92, "M": 0.88}
"""Best-group success of the baseline MAJ3 with 4-row activation."""


@dataclass
class MicrobenchmarkModel:
    """Execution-time model for the seven microbenchmarks.

    Success-rate inputs can come from the characterization harness (see
    ``benchmarks/bench_fig16_microbenchmarks.py``) or default to the
    paper-calibrated values.
    """

    yields: Mapping[int, float]
    """MAJ width -> best-group success rate with 32-row activation."""
    baseline_yield: float
    """Best-group success rate of MAJ3 with 4-row activation."""
    op_latency_ns: float = T_OP_NS
    baseline_op_latency_ns: float = T_OP_BASELINE_NS
    elements: int = ELEMENTS_PER_ROW_SET

    def __post_init__(self) -> None:
        for width, value in self.yields.items():
            if not 0.0 < value <= 1.0:
                raise ConfigurationError(
                    f"yield for MAJ{width} must be in (0, 1]: {value}"
                )
        if not 0.0 < self.baseline_yield <= 1.0:
            raise ConfigurationError("baseline yield must be in (0, 1]")

    @classmethod
    def for_manufacturer(cls, manufacturer: str) -> "MicrobenchmarkModel":
        """Paper-calibrated model for Mfr. H or Mfr. M."""
        if manufacturer not in DEFAULT_YIELDS:
            raise ConfigurationError(
                f"no default yields for manufacturer {manufacturer!r}"
            )
        return cls(
            yields=DEFAULT_YIELDS[manufacturer],
            baseline_yield=DEFAULT_BASELINE_YIELD[manufacturer],
        )

    @classmethod
    def from_measurements(cls, scope) -> "MicrobenchmarkModel":
        """Build the model from a characterization scope's measurements.

        Mirrors the paper's methodology end to end: characterize MAJX
        on the devices, pick the best row group per width, and feed
        those empirical success rates into the execution-time model
        (section 8.1).  ``scope`` is a
        :class:`~repro.characterization.experiment.CharacterizationScope`.
        """
        from ..characterization.fleet import baseline_yield, best_group_yields

        return cls(
            yields=best_group_yields(scope),
            baseline_yield=baseline_yield(scope),
        )

    @property
    def max_x(self) -> int:
        """Widest usable MAJ on this device."""
        return max(self.yields)

    def _time_ns(
        self,
        counts: Mapping[int, int],
        yields: Mapping[int, float],
        op_latency_ns: float,
    ) -> float:
        total = 0.0
        for width, ops in counts.items():
            if width not in yields:
                raise ConfigurationError(f"no yield provided for MAJ{width}")
            total += ops * op_latency_ns / yields[width]
        return total * self.elements

    def baseline_time_ns(self, benchmark: str) -> float:
        """MAJ3 @ 4-row-activation state-of-the-art execution time."""
        counts = MICROBENCHMARKS[benchmark][3]
        return self._time_ns(
            counts, {3: self.baseline_yield}, self.baseline_op_latency_ns
        )

    def time_ns(self, benchmark: str, x: int) -> float:
        """Execution time using gates up to MAJ_x at 32-row activation."""
        if benchmark not in MICROBENCHMARKS:
            raise ConfigurationError(f"unknown microbenchmark {benchmark!r}")
        if x not in MICROBENCHMARKS[benchmark]:
            raise ConfigurationError(f"no construction for MAJ{x}")
        if x > self.max_x:
            raise ConfigurationError(
                f"device supports MAJ{self.max_x} at most, asked for MAJ{x}"
            )
        return self._time_ns(
            MICROBENCHMARKS[benchmark][x], self.yields, self.op_latency_ns
        )

    def speedup(self, benchmark: str, x: int) -> float:
        """Speedup of the MAJ_x implementation over the baseline."""
        return self.baseline_time_ns(benchmark) / self.time_ns(benchmark, x)

    def all_speedups(
        self, x_values: Optional[Sequence[int]] = None
    ) -> Dict[str, Dict[int, float]]:
        """Speedups per benchmark per MAJ width (Fig 16 data)."""
        if x_values is None:
            x_values = [x for x in (5, 7, 9) if x <= self.max_x]
        return {
            benchmark: {x: self.speedup(benchmark, x) for x in x_values}
            for benchmark in MICROBENCHMARKS
        }


def figure16_speedups(
    model_h: MicrobenchmarkModel = None,
    model_m: MicrobenchmarkModel = None,
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """Fig 16 data for both manufacturers: mfr -> benchmark -> X -> speedup."""
    model_h = model_h or MicrobenchmarkModel.for_manufacturer("H")
    model_m = model_m or MicrobenchmarkModel.for_manufacturer("M")
    return {"H": model_h.all_speedups(), "M": model_m.all_speedups()}
