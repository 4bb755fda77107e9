"""The simulated FPGA command replayer.

:class:`DramBender` plays compiled command programs into a simulated
module, collects RD outputs, and quiesces the device between programs
(the real infrastructure similarly returns the DRAM to a precharged,
refreshed state between tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..dram.commands import CommandKind, pre
from ..dram.module import Module
from ..errors import InfrastructureError, ProtocolError
from .program import CommandProgram
from .scheduler import Scheduler, TimingViolation

_INTER_PROGRAM_GAP_NS = 100.0
_APA_KINDS = (CommandKind.ACT, CommandKind.PRE, CommandKind.ACT)


@dataclass
class ExecutionResult:
    """Outcome of replaying one command program."""

    reads: List[np.ndarray] = field(default_factory=list)
    """Row-buffer contents returned by each RD, in program order."""
    violations: List[TimingViolation] = field(default_factory=list)
    """JEDEC timing parameters the program undershot."""
    duration_ns: float = 0.0
    """Bus time from first to last command."""

    @property
    def violated_parameters(self) -> List[str]:
        """Names of the distinct violated timing parameters."""
        return sorted({v.parameter for v in self.violations})


class DramBender:
    """Replay command programs against a simulated module."""

    def __init__(self, module: Module):
        self._module = module
        self._scheduler = Scheduler(module.timings)

    @property
    def module(self) -> Module:
        """The device under test."""
        return self._module

    @property
    def scheduler(self) -> Scheduler:
        """The bus scheduler (exposes the running clock)."""
        return self._scheduler

    def execute(self, program: CommandProgram) -> ExecutionResult:
        """Replay one program; the device quiesces afterwards."""
        scheduled, violations = self._scheduler.compile(program)
        result = ExecutionResult(
            violations=violations, duration_ns=program.duration_ns()
        )
        for item in scheduled:
            command = item.command
            if command.kind is CommandKind.REF:
                # REF is all-bank: settle and refresh every built bank.
                for bank_index in range(self._module.n_banks):
                    bank = self._module.bank(bank_index)
                    bank.settle(command.time_ns)
                    bank.process(command)
                continue
            bank = self._module.bank(command.bank)
            output = bank.process(command)
            if command.kind is CommandKind.RD:
                if output is None:
                    raise InfrastructureError("RD returned no data")
                result.reads.append(output)
        self._quiesce()
        return result

    def resolve(self, program: CommandProgram) -> str:
        """The APA semantic :meth:`execute` would record, without replay.

        ``program`` must be one ``ACT -> PRE -> ACT`` on a single bank
        (see :func:`~repro.bender.program.apa_program`).  Its gaps come
        from the compiled command times, exactly as the bank derives
        them, and the bus clock advances as :meth:`execute` would, so
        later programs run at unchanged absolute times.  Cells, noise
        counters, event logs and bank stats are left alone.
        """
        steps = program.steps
        if (
            tuple(step.kind for step in steps) != _APA_KINDS
            or len({step.bank for step in steps}) != 1
        ):
            raise ProtocolError(
                "resolve takes one ACT -> PRE -> ACT program on one bank"
            )
        act, precharge, second_act = self._scheduler.place(program)
        semantic = self._module.bank(act.bank).classify_apa(
            act.row, second_act.row,
            act.time_ns, precharge.time_ns, second_act.time_ns,
        )
        self._quiesce()
        return semantic

    def execute_all(self, programs: List[CommandProgram]) -> List[ExecutionResult]:
        """Replay several programs back to back."""
        return [self.execute(program) for program in programs]

    def _quiesce(self) -> None:
        """Precharge every bank and advance past any pending precharge."""
        self._scheduler.advance(_INTER_PROGRAM_GAP_NS)
        now = self._scheduler.clock_ns
        for bank_index in range(self._module.n_banks):
            bank = self._module.bank(bank_index)
            bank.settle(now)
            if bank.state.name == "ACTIVE":
                bank.process(pre(now, bank_index))
                bank.settle(now + _INTER_PROGRAM_GAP_NS)
        self._scheduler.advance(_INTER_PROGRAM_GAP_NS)
