"""Core PUD operations -- the paper's primary contribution.

High-level, documented APIs for every operation the paper
characterizes, built on the simulated device and test infrastructure:

- :mod:`patterns`: the tested data patterns (random + fixed pairs);
- :mod:`rowgroups`: the address algebra of simultaneous activation
  (which APA pairs open which row sets, sampling of tested groups);
- :mod:`operations`: command construction and execution for
  simultaneous many-row activation, MAJX, Multi-RowCopy, RowClone,
  and Frac;
- :mod:`majority`: MAJX planning (input replication, neutral rows);
- :mod:`multirowcopy` / :mod:`rowclone` / :mod:`frac`: the individual
  copy and initialization primitives;
- :mod:`subarray_map`: RowClone-based subarray boundary reverse
  engineering (section 3.1).
"""

from .patterns import (
    DataPattern,
    PATTERN_RANDOM,
    PATTERN_00FF,
    PATTERN_AA55,
    PATTERN_CC33,
    PATTERN_6699,
    PATTERN_ALL0,
    PATTERN_ALL1,
    MAJX_TESTED_PATTERNS,
    COPY_TESTED_PATTERNS,
)
from .rowgroups import (
    RowGroup,
    pair_for_field_mask,
    sample_groups,
    group_from_pair,
    VALID_GROUP_SIZES,
)
from .majority import MajXPlan, MajXResult, plan_majx, execute_majx
from .multirowcopy import MultiRowCopyResult, execute_multi_row_copy
from .rowclone import RowCloneResult, execute_rowclone
from .frac import initialize_neutral_rows
from .operations import (
    simultaneous_activation_test,
    ACTIVATION_BEST_T1_NS,
    ACTIVATION_BEST_T2_NS,
    MAJX_BEST_T1_NS,
    MAJX_BEST_T2_NS,
    COPY_BEST_T1_NS,
    COPY_BEST_T2_NS,
)
from .subarray_map import discover_subarray_size, same_subarray
from .trng import (
    TrngGenerator,
    TrngStats,
    longest_run,
    monobit_fraction,
    serial_correlation,
)

__all__ = [
    "DataPattern",
    "PATTERN_RANDOM",
    "PATTERN_00FF",
    "PATTERN_AA55",
    "PATTERN_CC33",
    "PATTERN_6699",
    "PATTERN_ALL0",
    "PATTERN_ALL1",
    "MAJX_TESTED_PATTERNS",
    "COPY_TESTED_PATTERNS",
    "RowGroup",
    "pair_for_field_mask",
    "sample_groups",
    "group_from_pair",
    "VALID_GROUP_SIZES",
    "MajXPlan",
    "MajXResult",
    "plan_majx",
    "execute_majx",
    "MultiRowCopyResult",
    "execute_multi_row_copy",
    "RowCloneResult",
    "execute_rowclone",
    "initialize_neutral_rows",
    "simultaneous_activation_test",
    "ACTIVATION_BEST_T1_NS",
    "ACTIVATION_BEST_T2_NS",
    "MAJX_BEST_T1_NS",
    "MAJX_BEST_T2_NS",
    "COPY_BEST_T1_NS",
    "COPY_BEST_T2_NS",
    "discover_subarray_size",
    "same_subarray",
    "TrngGenerator",
    "TrngStats",
    "longest_run",
    "monobit_fraction",
    "serial_correlation",
]
