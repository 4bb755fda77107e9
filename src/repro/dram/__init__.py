"""DRAM device model.

This package implements the simulated silicon: the cell arrays, the
bank state machine, the hierarchical row decoder whose predecoder
latches give rise to simultaneous many-row activation (paper section
7.1), the JEDEC DDR4 timing set, per-vendor device profiles matching
Table 1/2 of the paper, the calibrated reliability model, and the
power model used for Fig 5.
"""

from .address import BankAddress, RowAddress, decompose_row, compose_row
from .cell import CellArray, LEVEL_ZERO, LEVEL_HALF, LEVEL_ONE
from .commands import Command, CommandKind, act, pre, rd, wr, ref, nop
from .timing import TimingParameters, DDR4_TIMINGS
from .row_decoder import (
    PredecoderField,
    LocalWordlineDecoder,
    GlobalWordlineDecoder,
    HierarchicalRowDecoder,
    activation_set,
    activation_count,
    field_layout_for_subarray_rows,
)
from .vendor import (
    DieRevision,
    VendorProfile,
    ModuleSpec,
    MFR_H,
    MFR_M,
    MFR_S,
    PROFILE_H_M_DIE,
    PROFILE_H_A_DIE,
    PROFILE_M_E_DIE,
    PROFILE_M_B_DIE,
    PROFILE_SAMSUNG,
    TESTED_MODULES,
    modules_for_manufacturer,
)
from .behavior import ReliabilityModel, OperationClass
from .bank import Bank, BankState
from .chip import Chip
from .module import Module, build_module, build_tested_fleet
from .power import PowerModel, OperationPower
from .retention import RetentionModel

__all__ = [
    "BankAddress",
    "RowAddress",
    "decompose_row",
    "compose_row",
    "CellArray",
    "LEVEL_ZERO",
    "LEVEL_HALF",
    "LEVEL_ONE",
    "Command",
    "CommandKind",
    "act",
    "pre",
    "rd",
    "wr",
    "ref",
    "nop",
    "TimingParameters",
    "DDR4_TIMINGS",
    "PredecoderField",
    "LocalWordlineDecoder",
    "GlobalWordlineDecoder",
    "HierarchicalRowDecoder",
    "activation_set",
    "activation_count",
    "field_layout_for_subarray_rows",
    "DieRevision",
    "VendorProfile",
    "ModuleSpec",
    "MFR_H",
    "MFR_M",
    "MFR_S",
    "PROFILE_H_M_DIE",
    "PROFILE_H_A_DIE",
    "PROFILE_M_E_DIE",
    "PROFILE_M_B_DIE",
    "PROFILE_SAMSUNG",
    "TESTED_MODULES",
    "modules_for_manufacturer",
    "ReliabilityModel",
    "OperationClass",
    "Bank",
    "BankState",
    "Chip",
    "Module",
    "build_module",
    "build_tested_fleet",
    "PowerModel",
    "OperationPower",
    "RetentionModel",
]
