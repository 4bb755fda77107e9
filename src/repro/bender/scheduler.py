"""Program scheduler: compiles programs to timed commands and audits
which JEDEC constraints the schedule violates.

PUD operations *intentionally* violate tRAS and tRP; the scheduler
does not forbid that (the device model decides what physically
happens), but it records every violation so experiments can report
the exact deviations from the standard -- the same bookkeeping the
paper's methodology sections describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dram.commands import Command, CommandKind
from ..dram.timing import DDR4_TIMINGS, TimingParameters
from ..errors import ConfigurationError
from .program import CommandProgram


@dataclass(frozen=True)
class TimingViolation:
    """One undershot JEDEC parameter in a scheduled command stream."""

    parameter: str
    required_ns: float
    actual_ns: float
    command_index: int

    @property
    def undershoot_ns(self) -> float:
        """How far below the nominal parameter the schedule went."""
        return self.required_ns - self.actual_ns


@dataclass(frozen=True)
class ScheduledCommand:
    """A command with its position in the compiled stream."""

    index: int
    command: Command


class Scheduler:
    """Compile :class:`CommandProgram` objects into command streams."""

    def __init__(self, timings: TimingParameters = DDR4_TIMINGS):
        self._timings = timings
        self._clock = 0.0

    @property
    def clock_ns(self) -> float:
        """Current bus time."""
        return self._clock

    def reset(self) -> None:
        """Rewind the bus clock (new test run)."""
        self._clock = 0.0

    def advance(self, delay_ns: float) -> None:
        """Insert idle bus time between programs."""
        if delay_ns < 0:
            raise ConfigurationError("cannot advance the clock backwards")
        self._clock += delay_ns

    def compile(
        self, program: CommandProgram
    ) -> Tuple[List[ScheduledCommand], List[TimingViolation]]:
        """Compile a program starting at the current bus time.

        Returns the scheduled commands and the list of JEDEC timing
        violations found (per bank: ACT->PRE vs tRAS, PRE->ACT vs tRP,
        ACT->ACT vs tRC).
        """
        commands = self.place(program)
        scheduled = [
            ScheduledCommand(index=i, command=c) for i, c in enumerate(commands)
        ]
        return scheduled, self.audit(commands)

    def place(self, program: CommandProgram) -> List[Command]:
        """Lay a program onto the bus at the current time, without the
        JEDEC audit; the clock ends at the last command."""
        commands = program.to_commands(start_ns=self._clock)
        if commands:
            self._clock = commands[-1].time_ns
        return commands

    def audit(self, commands: List[Command]) -> List[TimingViolation]:
        """Find JEDEC violations in an absolute-time command list."""
        violations: List[TimingViolation] = []
        last_act: Dict[int, Optional[float]] = {}
        last_pre: Dict[int, Optional[float]] = {}
        for index, command in enumerate(commands):
            bank = command.bank
            if command.kind is CommandKind.ACT:
                pre_time = last_pre.get(bank)
                if pre_time is not None:
                    gap = command.time_ns - pre_time
                    if gap < self._timings.t_rp:
                        violations.append(
                            TimingViolation("tRP", self._timings.t_rp, gap, index)
                        )
                act_time = last_act.get(bank)
                if act_time is not None:
                    gap = command.time_ns - act_time
                    if gap < self._timings.t_rc:
                        violations.append(
                            TimingViolation("tRC", self._timings.t_rc, gap, index)
                        )
                last_act[bank] = command.time_ns
            elif command.kind is CommandKind.PRE:
                act_time = last_act.get(bank)
                if act_time is not None:
                    gap = command.time_ns - act_time
                    if gap < self._timings.t_ras:
                        violations.append(
                            TimingViolation("tRAS", self._timings.t_ras, gap, index)
                        )
                last_pre[bank] = command.time_ns
        return violations
