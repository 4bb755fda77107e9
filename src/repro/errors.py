"""Exception hierarchy for the SiMRA-DRAM reproduction.

Every error raised by the library derives from :class:`SimraError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from protocol violations.
"""

from __future__ import annotations

from typing import Optional


class SimraError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(SimraError):
    """A simulation or device parameter is inconsistent or out of range."""


class AddressError(SimraError):
    """A DRAM address (bank, row, column) is outside the device geometry."""


class TimingViolationError(SimraError):
    """A command sequence violates a timing constraint that the simulated
    device enforces (as opposed to the *intentional* violations that PUD
    operations rely on, which are allowed and tracked)."""


class ProtocolError(SimraError):
    """A DRAM command is illegal in the device's current state, e.g. a
    ``RD`` issued against a fully precharged bank."""


class UnsupportedOperationError(SimraError):
    """The requested PUD operation is not supported by the target vendor
    profile (e.g. Frac on Micron parts, or any multi-row activation on
    the Samsung profile, per paper section 9)."""


class InfrastructureError(SimraError):
    """The simulated test infrastructure (FPGA, thermal controller, power
    supply) was used outside its operating envelope."""


class TransientInfrastructureError(InfrastructureError):
    """A *transient* infrastructure fault: the kind of glitch a multi-hour
    lab campaign sees on a real rig (a dropped FPGA transfer, a flaky
    readback, a thermal chamber excursion, a supply brownout).  Retrying
    the operation after the rig recovers is expected to succeed, so the
    campaign executor retries these and only these."""


class ProgramTransferError(TransientInfrastructureError):
    """A command program was dropped on its way to the FPGA and never
    replayed; the device state is untouched."""


class ReadbackCorruptionError(TransientInfrastructureError):
    """A readback transfer failed the host-side integrity check; the data
    in the DRAM cells is fine, only the copy on the wire was damaged."""


class ThermalExcursionError(TransientInfrastructureError):
    """The thermal chamber drifted off the setpoint instead of settling;
    the module is at an uncontrolled temperature until re-settled."""


class VppBrownoutError(TransientInfrastructureError):
    """The VPP rail sagged while being programmed; the module sees a
    below-envelope wordline voltage until the supply is reprogrammed."""


class PersistentBenchError(InfrastructureError):
    """A test bench is failing *persistently* (a dead FPGA link, a fried
    level shifter): every operation against it errors until a human
    repairs the rig.  Deliberately **not** a transient error -- retrying
    wastes the campaign's budget; the health layer quarantines the
    module instead (see :mod:`repro.health`)."""


class WorkerCrashError(InfrastructureError):
    """A trial-engine pool worker died mid-shard (killed, out-of-memory,
    segfault).  The parallel executor's supervisor re-shards the dead
    worker's unfinished tasks; this error surfaces only if recovery
    itself is impossible."""


class ExperimentError(SimraError):
    """An experiment was configured inconsistently (e.g. asking for more
    row groups than a subarray can provide)."""


class StoreLockedError(ExperimentError):
    """Another live process holds the result store's writer lock; two
    campaigns writing one directory would interleave manifests and
    journal entries.  Locks left by dead processes are stolen, so this
    only fires for a genuinely concurrent writer."""


class ResultCorruptionError(ExperimentError):
    """A stored result or manifest file is truncated or not valid JSON
    (e.g. a campaign was killed mid-write before writes became atomic,
    or the file was damaged on disk)."""

    damage = "torn-json"
    """The fine damage class :meth:`~repro.characterization.reader.
    ResultReader.validate` reports for this error."""

    def __init__(self, message: str = "", damage: Optional[str] = None):
        super().__init__(message)
        if damage is not None:
            self.damage = damage


class ChecksumMismatchError(ResultCorruptionError):
    """A stored artifact parses fine but its content no longer matches
    the checksum recorded at write time: the bytes were altered after
    the save (bit rot, a hand edit, an injected corruption)."""

    damage = "checksum-mismatch"


class NoHealthyModulesError(ExperimentError):
    """Every module in the scope is quarantined by the health layer;
    there is nothing left to measure."""
