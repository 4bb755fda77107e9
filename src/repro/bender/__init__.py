"""DRAM Bender-style testing infrastructure (paper section 3.1, Fig 2).

The paper's experiments run on an FPGA board programmed with DRAM
Bender, which gives the host precise (1.5 ns granularity) control of
the DRAM command bus, plus a thermal rig and a programmable wordline
voltage supply.  This package simulates that rig:

- :mod:`program` / :mod:`scheduler`: a command-program DSL compiled to
  timed command streams with the same 1.5 ns issue granularity;
- :mod:`fpga`: the program executor driving a simulated module;
- :mod:`thermal`: rubber-heater + controller plant (MaxWell FT200);
- :mod:`power_supply`: the VPP supply (TTi PL068-P, +-1 mV);
- :mod:`testbench`: the assembled experimental setup of Fig 2.
"""

from .program import CommandProgram, ProgramBuilder, apa_program
from .scheduler import ScheduledCommand, Scheduler, TimingViolation
from .fpga import DramBender, ExecutionResult
from .host import TestHost
from .thermal import TemperatureController
from .power_supply import VppSupply
from .testbench import TestBench
from .selftest import SelfTestReport, run_self_test

__all__ = [
    "CommandProgram",
    "ProgramBuilder",
    "apa_program",
    "ScheduledCommand",
    "Scheduler",
    "TimingViolation",
    "DramBender",
    "ExecutionResult",
    "TestHost",
    "TemperatureController",
    "VppSupply",
    "TestBench",
    "SelfTestReport",
    "run_self_test",
]
