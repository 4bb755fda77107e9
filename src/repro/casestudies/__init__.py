"""Case studies (paper section 8).

- :mod:`perfmodel`: the analytic execution-time model behind Fig 16
  (seven microbenchmarks, MAJ5/7/9 vs the MAJ3 state of the art).
- :mod:`gates` / :mod:`bitserial`: the section 8.1 dual-rail MAJX
  gate constructions (incl. the MAJ5 full-adder identity) executed on
  the simulated DRAM through RowClone, Multi-RowCopy and APA majority.
  Imported as submodules; the package does not re-export them.
- :mod:`coldboot`: content-destruction-based cold-boot-attack
  prevention and the Fig 17 speedup comparison (RowClone- vs Frac-
  vs Multi-RowCopy-based destruction).
- :mod:`parallelism`: multi-bank APA interleaving on the shared
  command bus (Multi-RowCopy across banks).
"""

from .perfmodel import (
    MicrobenchmarkModel,
    MAJX_LATENCIES_NS,
    MICROBENCHMARKS,
    figure16_speedups,
)
from .coldboot import (
    ContentDestructionModel,
    DestructionPlan,
    figure17_speedups,
)
from .parallelism import (
    BankOperation,
    InterleavedSchedule,
    parallel_multi_row_copy,
    schedule_interleaved,
)

__all__ = [
    "MicrobenchmarkModel",
    "MAJX_LATENCIES_NS",
    "MICROBENCHMARKS",
    "figure16_speedups",
    "ContentDestructionModel",
    "DestructionPlan",
    "figure17_speedups",
    "BankOperation",
    "InterleavedSchedule",
    "parallel_multi_row_copy",
    "schedule_interleaved",
]
