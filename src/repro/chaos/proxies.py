"""Chaotic stand-ins for the bender rig components.

Each proxy wraps one real component (keeping all of its state -- the
scheduler clock, the thermal plant, the programmed VPP level) and
interposes only on the operations a real rig can transiently fail:
program replay, readback, thermal settling, and voltage programming.
An injected fault both perturbs the simulated rig the way the real
failure would (off-target temperature, sagged rail) *and* raises the
matching :class:`~repro.errors.TransientInfrastructureError`, so a
retrying caller that re-applies the environment recovers exactly the
fault-free behaviour.
"""

from __future__ import annotations

import errno
import threading
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from .. import rng
from ..errors import (
    ChecksumMismatchError,
    PersistentBenchError,
    ProgramTransferError,
    ReadbackCorruptionError,
    ThermalExcursionError,
    VppBrownoutError,
)
from .engine import ChaosEngine, FaultKind


class _ChaoticProxy:
    """Delegating wrapper: unknown attributes fall through."""

    def __init__(self, wrapped, engine: ChaosEngine):
        self._wrapped = wrapped
        self._engine = engine

    def __getattr__(self, name):
        return getattr(self._wrapped, name)

    @property
    def wrapped(self):
        """The real component underneath."""
        return self._wrapped


class ChaoticBender(_ChaoticProxy):
    """FPGA replayer with transfer faults on both directions.

    Link faults are decided once per *site*.  A task of a plan is one
    site: the executor decides it up front (:meth:`decide_site`) and
    then runs the task with ``decided`` set, so the task's crossings
    go through clean.  Any crossing outside a task -- a health probe,
    hand-driven bench work -- is a site of its own and is checked as
    it happens.

    Besides the rate-keyed transient faults, a bench listed in
    ``ChaosConfig.bench_failure_serials`` fails *persistently*: every
    site raises :class:`~repro.errors.PersistentBenchError` (a
    non-transient error the campaign does not retry -- the health
    layer's quarantine path is the only way past it).
    """

    decided = False
    """While set, the site in progress was decided up front."""

    def _check_send(self) -> None:
        serial = self._wrapped.module.serial
        if self._engine.bench_should_fail(serial):
            raise PersistentBenchError(
                f"bench for module {serial!r} is persistently failing; "
                "every replay errors until the rig is repaired"
            )
        if self._engine.should_fire(FaultKind.PROGRAM_DROP):
            raise ProgramTransferError(
                "command program dropped before FPGA replay "
                "(device untouched)"
            )

    def _check_receive(self) -> None:
        if self._engine.should_fire(FaultKind.READBACK_CORRUPTION):
            raise ReadbackCorruptionError(
                "execution-result upload failed the host integrity check "
                "(result discarded)"
            )

    def decide_site(self) -> None:
        """Decide one task site's link faults; raise the first that fires."""
        self._check_send()
        self._check_receive()

    def _through_link(self, program, deliver: Callable):
        """``deliver(program)`` behind the link's fault checks.

        Every program crossing the link -- replayed or only resolved --
        takes the same checks in the same order, unless its site was
        decided up front.
        """
        if self.decided:
            return deliver(program)
        self._check_send()
        result = deliver(program)
        self._check_receive()
        return result

    def execute(self, program):
        """Replay one program, unless the link drops it."""
        return self._through_link(program, self._wrapped.execute)

    def resolve(self, program) -> str:
        """Resolve one APA program's semantic, unless the link drops it."""
        return self._through_link(program, self._wrapped.resolve)

    def execute_all(self, programs) -> List:
        """Replay several programs back to back (each can fault)."""
        return [self.execute(program) for program in programs]


class ChaoticHost(_ChaoticProxy):
    """Host helpers whose readbacks can arrive corrupted."""

    def __init__(self, wrapped, engine: ChaosEngine, bender: ChaoticBender):
        super().__init__(wrapped, engine)
        self._chaotic_bender = bender

    def run(self, program):
        """Replay one program through the chaotic bender."""
        return self._chaotic_bender.execute(program)

    def read_rows(self, bank: int, rows: Sequence[int]) -> Dict[int, np.ndarray]:
        """Read rows back; a corrupted transfer is detected and raised."""
        data = self._wrapped.read_rows(bank, rows)
        if self._engine.should_fire(FaultKind.READBACK_CORRUPTION):
            flipped = self._corrupt(bank, data)
            raise ReadbackCorruptionError(
                f"readback of {len(data)} rows failed the host integrity "
                f"check ({flipped} bits flipped in transfer; cells intact)"
            )
        return data

    def mismatch_fraction(
        self, bank: int, rows: Sequence[int], expected: np.ndarray
    ) -> float:
        """As the real host, but reading through the chaotic path."""
        readback = self.read_rows(bank, rows)
        expected = np.asarray(expected, dtype=np.uint8)
        fractions = [float(np.mean(bits != expected)) for bits in readback.values()]
        return float(np.mean(fractions)) if fractions else 0.0

    def _corrupt(self, bank: int, data: Dict[int, np.ndarray]) -> int:
        """Flip seeded bits in the in-flight copies (never the cells)."""
        flipped = 0
        budget = self._engine.config.corrupted_bits
        generator = rng.generator(
            "chaos-corrupt", self._engine.config.seed, bank, *sorted(data)
        )
        for bits in data.values():
            if flipped >= budget or bits.size == 0:
                break
            column = int(generator.integers(0, bits.size))
            bits[column] ^= 1
            flipped += 1
        return flipped


class ChaoticThermal(_ChaoticProxy):
    """Temperature controller whose chamber can drift off-setpoint."""

    def settle(self) -> float:
        """Settle to the setpoint, unless the chamber wanders."""
        if self._engine.should_fire(FaultKind.THERMAL_EXCURSION):
            target = self._wrapped.target_c
            excursion = target + self._engine.config.thermal_excursion_c
            # The plant is genuinely off-target until the next settle.
            self._wrapped._current_c = excursion  # noqa: SLF001
            self._wrapped._module.temperature_c = excursion  # noqa: SLF001
            raise ThermalExcursionError(
                f"chamber drifted to {excursion:.1f} C while settling "
                f"toward {target:.1f} C"
            )
        return self._wrapped.settle()


class ChaoticSupply(_ChaoticProxy):
    """VPP bench supply whose rail can brown out mid-programming."""

    def set_voltage(self, volts: float) -> float:
        """Program the rail, unless it sags."""
        if self._engine.should_fire(FaultKind.VPP_BROWNOUT):
            sag = self._engine.config.vpp_brownout_volts
            # The module sees the sagged rail until reprogrammed.
            self._wrapped._module.vpp = sag  # noqa: SLF001
            raise VppBrownoutError(
                f"VPP rail sagged to {sag:.2f} V while programming "
                f"{volts:.2f} V"
            )
        return self._wrapped.set_voltage(volts)


class _ReaderFaultMixin:
    """Shared reader-path fault injection (rate-keyed, seeded).

    Three fault kinds cover how a disk read goes wrong in practice:
    it *stalls* (:attr:`~repro.chaos.engine.FaultKind.READ_DELAY` --
    the request-deadline proof load), it *errors transiently*
    (:attr:`~repro.chaos.engine.FaultKind.READ_ERROR`, an
    ``OSError(EIO)``), or it *lies* (:attr:`~repro.chaos.engine.
    FaultKind.READ_DIGEST_MISMATCH`, a
    :class:`~repro.errors.ChecksumMismatchError` as if the bytes no
    longer matched their recorded checksum).  The engine consultation
    is serialized under a lock because the HTTP service's read pool
    loads from several threads at once; fault *counts* stay exact and
    capped even though cross-thread ordering is scheduling-dependent.
    """

    _engine: ChaosEngine

    def _init_read_faults(self) -> None:
        self._read_fault_lock = threading.Lock()

    def _inject_read_faults(self, name: str) -> None:
        with self._read_fault_lock:
            delay = self._engine.should_fire(FaultKind.READ_DELAY)
            error = self._engine.should_fire(FaultKind.READ_ERROR)
            mismatch = self._engine.should_fire(
                FaultKind.READ_DIGEST_MISMATCH
            )
        if delay:
            # The stall happens whether or not the read then fails --
            # real disks are slow first and wrong second.
            time.sleep(self._engine.config.read_delay_s)
        if error:
            raise OSError(
                errno.EIO,
                f"transient I/O error (injected) reading {name!r}",
            )
        if mismatch:
            raise ChecksumMismatchError(
                f"stored result {name!r} failed digest verification "
                "(injected): content no longer matches its recorded "
                "checksum"
            )


class ChaoticReader(_ReaderFaultMixin, _ChaoticProxy):
    """Result reader whose disk reads can stall, error, or lie.

    Wraps a :class:`~repro.characterization.reader.ResultReader` (all
    other read APIs -- digests, metadata, verify, manifest -- fall
    through untouched) and injects the reader-path faults into
    ``load_version``, the call that actually pulls payload bytes off
    disk (``load`` and the hot-figure cache's miss path both go
    through it).  This is what ``simra-dram serve --chaos-read-*``
    installs into a live server, so the admission/deadline/breaker
    machinery is exercised against real sockets.
    """

    def __init__(self, wrapped, engine: ChaosEngine):
        super().__init__(wrapped, engine)
        self._init_read_faults()

    def load_version(self, name: str, verify: bool = True):
        """Load one stored version, unless the disk misbehaves."""
        self._inject_read_faults(name)
        return self._wrapped.load_version(name, verify=verify)

    def load(self, name: str, verify: bool = True):
        """Load one stored payload (through :meth:`load_version`)."""
        return self.load_version(name, verify=verify).payload


class ChaoticStore(_ReaderFaultMixin, _ChaoticProxy):
    """Result store whose writes can fail or rot the way real disks do.

    Four target-keyed storage faults, each once per named artifact:

    - ``result_corruption_names``: the save reports success, then one
      seeded byte of the file is damaged (silent bit rot) -- caught by
      checksum verification on the next load or by ``simra-dram
      audit``.
    - ``store_enospc_names``: the save raises ``OSError(ENOSPC)`` and
      leaves a stale ``.tmp`` file behind, as a writer that ran out of
      space mid-write would.
    - ``store_torn_write_names``: the save reports success but the JSON
      document is truncated at a seeded midpoint (a torn write that
      slipped past the rename).
    - ``store_partial_sidecar_names``: a columnar artifact loses its
      ``.columns.npz`` sidecar; a plain artifact gains a bogus orphan
      sidecar instead.

    Loads additionally take the rate-keyed reader-path faults
    (:class:`_ReaderFaultMixin`), so resume/audit paths that read
    through the store see the same slow/faulted disk a chaotic
    service does.
    """

    def __init__(self, wrapped, engine: ChaosEngine):
        super().__init__(wrapped, engine)
        self._init_read_faults()

    def load(self, name, verify: bool = True):
        """Load through the real store, unless the disk misbehaves."""
        self._inject_read_faults(name)
        return self._wrapped.load(name, verify=verify)

    def save(self, name, data, config=None, notes="", quality=None, columnar=None):
        """Persist through the real store, injecting any staged fault."""
        if self._engine.store_should_fault("enospc", name):
            stale = (
                self._wrapped.directory
                / f".{name}.json.chaos-enospc.tmp"
            )
            stale.write_text('{"format_version": 2, "data": {"trunc')
            raise OSError(
                errno.ENOSPC, f"no space left on device (injected) saving {name!r}"
            )
        path = self._wrapped.save(
            name,
            data,
            config=config,
            notes=notes,
            quality=quality,
            columnar=columnar,
        )
        if self._engine.store_should_fault("result-corruption", name):
            raw = bytearray(path.read_bytes())
            if raw:
                generator = rng.generator(
                    "chaos-store", self._engine.config.seed, name
                )
                position = int(generator.integers(0, len(raw)))
                raw[position] ^= 0x20
                path.write_bytes(bytes(raw))
        if self._engine.store_should_fault("torn-write", name):
            raw = path.read_bytes()
            if len(raw) > 2:
                generator = rng.generator(
                    "chaos-store-torn", self._engine.config.seed, name
                )
                cut = int(generator.integers(1, len(raw) - 1))
                path.write_bytes(raw[:cut])
        if self._engine.store_should_fault("partial-sidecar", name):
            sidecar = self._wrapped.directory / f"{name}.columns.npz"
            if sidecar.exists():
                sidecar.unlink()
            else:
                sidecar.write_bytes(b"not an npz archive")
        return path
