"""SiMRA-DRAM reproduction.

A simulation-backed reproduction of "Simultaneous Many-Row Activation
in Off-the-Shelf DRAM Chips: Experimental Characterization and
Analysis" (Yuksel et al., DSN 2024).

Layers, bottom-up:

- :mod:`repro.dram` -- the simulated silicon: cells, banks, the
  hierarchical row decoder behind many-row activation, vendor
  profiles, timing, reliability, and power models.
- :mod:`repro.bender` -- the DRAM-Bender-style testing rig: command
  programs, scheduler, FPGA replayer, thermal control, VPP supply.
- :mod:`repro.core` -- the PUD operations the paper characterizes:
  simultaneous many-row activation, MAJX with input replication,
  Multi-RowCopy, RowClone, Frac, subarray mapping.
- :mod:`repro.characterization` -- the section 4-6 experiment
  harnesses (Figs 3-12).
- :mod:`repro.spice` -- circuit-level Monte-Carlo analysis (Fig 15).
- :mod:`repro.casestudies` -- majority-based computation and
  cold-boot content destruction (Figs 16-17), plus a functional
  in-DRAM bit-serial ALU.

Quickstart::

    from repro import SimulationConfig, TestBench, TESTED_MODULES
    from repro.core import sample_groups, simultaneous_activation_test

    bench = TestBench.for_spec(TESTED_MODULES[0],
                               config=SimulationConfig.quick())
    group = sample_groups(0, 512, 32, 1, "demo")[0]
    result = simultaneous_activation_test(bench, bank=0, group=group)
    print(result.semantic, result.success_fraction)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Public name -> defining submodule.  ``config`` and ``errors`` are
# cheap and bound at import; the simulator loads on first access.
_EXPORTS = {
    "DEFAULT_CONFIG": ".config",
    "SimulationConfig": ".config",
    "SimraError": ".errors",
    "ConfigurationError": ".errors",
    "AddressError": ".errors",
    "TimingViolationError": ".errors",
    "ProtocolError": ".errors",
    "UnsupportedOperationError": ".errors",
    "InfrastructureError": ".errors",
    "TransientInfrastructureError": ".errors",
    "ProgramTransferError": ".errors",
    "ReadbackCorruptionError": ".errors",
    "ThermalExcursionError": ".errors",
    "VppBrownoutError": ".errors",
    "ExperimentError": ".errors",
    "ResultCorruptionError": ".errors",
    "TestBench": ".bender.testbench",
    "Module": ".dram.module",
    "build_module": ".dram.module",
    "build_tested_fleet": ".dram.module",
    "TESTED_MODULES": ".dram.vendor",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(
    __name__, _EXPORTS, eager=(".config", ".errors")
)
