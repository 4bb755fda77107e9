"""The assembled experimental setup of the paper's Fig 2.

One :class:`TestBench` = FPGA (command replayer) + host + rubber
heaters with temperature controller + programmable VPP supply, all
attached to one module under test.  Experiments use it as the single
entry point for environmental control and command execution.
"""

from __future__ import annotations

from ..config import DEFAULT_CONFIG, SimulationConfig
from ..dram.module import Module, build_module
from ..dram.vendor import ModuleSpec
from .fpga import DramBender, ExecutionResult
from .host import TestHost
from .power_supply import VppSupply
from .program import CommandProgram
from .thermal import TemperatureController

BASELINE_TEMPERATURE_C = 50.0
"""The paper's idle chip temperature (every bench starts here)."""

BASELINE_VPP = 2.5
"""Nominal wordline voltage (every bench starts here)."""


class TestBench:
    """Fig 2's six-component rig around one simulated module."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, module: Module):
        self._module = module
        self._bender = DramBender(module)
        self._host = TestHost(self._bender)
        self._thermal = TemperatureController(module)
        self._supply = VppSupply(module)
        # Experiments start at the paper's baseline conditions.
        self.reset_environment()

    @classmethod
    def for_spec(
        cls,
        spec: ModuleSpec,
        instance: int = 0,
        config: SimulationConfig = DEFAULT_CONFIG,
    ) -> "TestBench":
        """Build a bench around a fresh module of a catalog spec."""
        return cls(build_module(spec, instance, config=config))

    @property
    def module(self) -> Module:
        """The device under test."""
        return self._module

    @property
    def bender(self) -> DramBender:
        """Command replayer."""
        return self._bender

    @property
    def host(self) -> TestHost:
        """Host-side helpers."""
        return self._host

    @property
    def thermal(self) -> TemperatureController:
        """Temperature controller."""
        return self._thermal

    @property
    def supply(self) -> VppSupply:
        """VPP bench supply."""
        return self._supply

    def reset_environment(self) -> None:
        """Drive the rig back to the paper's baseline conditions.

        The thermal controller settles exactly onto its target, so a
        reset bench is environmentally indistinguishable from a
        freshly built one -- the property that lets worker processes
        reuse benches across shards without breaking bit-identity.
        """
        self.set_temperature(BASELINE_TEMPERATURE_C)
        self.set_vpp(BASELINE_VPP)

    def set_temperature(self, temp_c: float) -> None:
        """Program and settle a chip temperature."""
        self._thermal.set_target(temp_c)
        self._thermal.settle()

    def set_vpp(self, volts: float) -> None:
        """Program the wordline voltage."""
        self._supply.set_voltage(volts)

    def run(self, program: CommandProgram) -> ExecutionResult:
        """Replay one command program."""
        return self._bender.execute(program)

    def resolve(self, program: CommandProgram) -> str:
        """The semantic an APA program would resolve to, without
        replaying it (see :meth:`DramBender.resolve`)."""
        return self._bender.resolve(program)
