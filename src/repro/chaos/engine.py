"""Seeded fault-decision engine.

The paper's data comes from multi-hour campaigns on a real rig where
transient infrastructure faults (dropped FPGA transfers, flaky
readbacks, thermal excursions, supply brownouts) are a fact of life.
:class:`ChaosEngine` decides *when* those faults fire: every decision
is a deterministic function of the chaos seed, the fault kind, and
how many times that kind has been consulted, so a chaotic campaign is
bit-for-bit reproducible -- the property every chaos test in this
repository relies on.

Executors consult a campaign's one engine once per *site* and kind, in
the campaign's canonical order: each plan's environment step per bench,
then each task in plan order (bench-major).  The pool decides its sites in the dispatching process, so
every executor walks the same consult sequence and injects the same
faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from .. import rng
from ..errors import ConfigurationError


class FaultKind(Enum):
    """The transient fault classes the harness can inject."""

    PROGRAM_DROP = "program-drop"
    """Command program lost on the way to the FPGA (never replayed)."""
    READBACK_CORRUPTION = "readback-corruption"
    """Readback transfer fails the host-side integrity check."""
    THERMAL_EXCURSION = "thermal-excursion"
    """Thermal chamber drifts off the setpoint instead of settling."""
    VPP_BROWNOUT = "vpp-brownout"
    """VPP rail sags while being programmed."""
    READ_DELAY = "read-delay"
    """A stored-result read stalls (a congested or failing disk)."""
    READ_ERROR = "read-error"
    """A stored-result read fails with a transient ``OSError(EIO)``."""
    READ_DIGEST_MISMATCH = "read-digest-mismatch"
    """A stored-result read fails its digest verification (bytes on
    disk no longer match the recorded checksum) -- transiently, the
    way a flaky controller or racing rewrite looks to a reader."""


@dataclass(frozen=True)
class ChaosConfig:
    """Which faults to inject, how often, and with what magnitude.

    Rig rates are per *site*: one task of a plan for the link kinds,
    one (plan, bench) environment step for the thermal and VPP kinds,
    and one crossing for bench work outside any task.  Reader rates
    are per load.  ``max_faults_per_kind`` caps how many times each
    kind fires over the engine's lifetime; a finite cap plus a retry
    policy whose attempt count exceeds four times it guarantees a
    campaign eventually converges despite the chaos.
    """

    seed: int = 7
    program_drop_rate: float = 0.0
    readback_corruption_rate: float = 0.0
    thermal_excursion_rate: float = 0.0
    vpp_brownout_rate: float = 0.0
    read_delay_rate: float = 0.0
    """Reader-path fault: rate of stored-result reads that stall for
    ``read_delay_s`` before completing (slow-disk proof load for the
    service's request deadlines)."""
    read_error_rate: float = 0.0
    """Reader-path fault: rate of stored-result reads that raise a
    transient ``OSError(EIO)``."""
    read_digest_mismatch_rate: float = 0.0
    """Reader-path fault: rate of stored-result reads that raise
    :class:`~repro.errors.ChecksumMismatchError` -- the proof load for
    the service's store-read circuit breaker."""
    read_delay_s: float = 0.25
    """How long an injected slow read stalls (seconds)."""
    max_faults_per_kind: Optional[int] = None
    thermal_excursion_c: float = 7.5
    """How far off the setpoint an excursion leaves the module (C)."""
    vpp_brownout_volts: float = 2.0
    """Where the rail sags to during a brownout."""
    corrupted_bits: int = 4
    """How many bits a readback corruption flips (before detection)."""
    bench_failure_serials: Tuple[str, ...] = ()
    """Modules whose benches fail *persistently*: every link site
    raises :class:`~repro.errors.PersistentBenchError` (after
    ``bench_failure_after`` clean sites).  Target-keyed rather than
    rate-keyed so quarantine paths are exercised deterministically."""
    bench_failure_after: int = 0
    """Clean link sites (tasks, or crossings outside a task) a doomed
    bench passes, in canonical order, before dying."""
    worker_kill_serials: Tuple[str, ...] = ()
    """Modules whose shard kills its pool worker (``os._exit``) the
    first time a parallel executor dispatches it -- the worker-death
    recovery proof load."""
    result_corruption_names: Tuple[str, ...] = ()
    """Stored-artifact names whose on-disk bytes get silently damaged
    once, right after the save -- the integrity-audit proof load."""
    store_enospc_names: Tuple[str, ...] = ()
    """Artifact names whose save fails once with ``OSError(ENOSPC)``,
    leaving a stale ``.tmp`` behind -- the disk-full proof load for
    ``simra-dram repair`` and the orphan scan."""
    store_torn_write_names: Tuple[str, ...] = ()
    """Artifact names whose saved JSON document is truncated once at a
    seeded midpoint right after the save -- simulates a torn write that
    slipped past the rename (e.g. a dropped page on power loss)."""
    store_partial_sidecar_names: Tuple[str, ...] = ()
    """Artifact names whose ``.columns.npz`` sidecar is deleted once
    after the save (columnar artifacts), or that gain a bogus orphan
    sidecar (plain artifacts) -- the sidecar-damage proof load."""

    def __post_init__(self) -> None:
        if self.read_delay_s < 0:
            raise ConfigurationError("read_delay_s must be non-negative")
        for name in (
            "program_drop_rate",
            "readback_corruption_rate",
            "thermal_excursion_rate",
            "vpp_brownout_rate",
            "read_delay_rate",
            "read_error_rate",
            "read_digest_mismatch_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if self.max_faults_per_kind is not None and self.max_faults_per_kind < 0:
            raise ConfigurationError("max_faults_per_kind must be non-negative")
        if self.thermal_excursion_c <= 0:
            raise ConfigurationError("thermal_excursion_c must be positive")
        if self.corrupted_bits < 1:
            raise ConfigurationError("corrupted_bits must be at least 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.bench_failure_after < 0:
            raise ConfigurationError("bench_failure_after must be non-negative")
        for name in (
            "bench_failure_serials",
            "worker_kill_serials",
            "result_corruption_names",
            "store_enospc_names",
            "store_torn_write_names",
            "store_partial_sidecar_names",
        ):
            # Accept any iterable of strings but store hashable tuples
            # (the config is frozen and shipped to pool workers).
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def rate_for(self, kind: FaultKind) -> float:
        """The configured rate of one fault kind."""
        return {
            FaultKind.PROGRAM_DROP: self.program_drop_rate,
            FaultKind.READBACK_CORRUPTION: self.readback_corruption_rate,
            FaultKind.THERMAL_EXCURSION: self.thermal_excursion_rate,
            FaultKind.VPP_BROWNOUT: self.vpp_brownout_rate,
            FaultKind.READ_DELAY: self.read_delay_rate,
            FaultKind.READ_ERROR: self.read_error_rate,
            FaultKind.READ_DIGEST_MISMATCH: self.read_digest_mismatch_rate,
        }[kind]

    @classmethod
    def burst(cls, seed: int = 7) -> "ChaosConfig":
        """Every fault kind fires on its first opportunity, exactly once.

        The strongest deterministic proof load: each infrastructure
        path fails once, so any executor that survives it demonstrably
        retries every fault class.
        """
        return cls(
            seed=seed,
            program_drop_rate=1.0,
            readback_corruption_rate=1.0,
            thermal_excursion_rate=1.0,
            vpp_brownout_rate=1.0,
            read_delay_rate=1.0,
            read_error_rate=1.0,
            read_digest_mismatch_rate=1.0,
            read_delay_s=0.01,
            max_faults_per_kind=1,
        )

    @classmethod
    def light(
        cls, seed: int = 7, rate: float = 0.05, max_faults_per_kind: int = 8
    ) -> "ChaosConfig":
        """A soak-test profile: occasional faults in every path."""
        return cls(
            seed=seed,
            program_drop_rate=rate,
            readback_corruption_rate=rate,
            thermal_excursion_rate=rate,
            vpp_brownout_rate=rate,
            read_delay_rate=rate,
            read_error_rate=rate,
            read_digest_mismatch_rate=rate,
            read_delay_s=0.01,
            max_faults_per_kind=max_faults_per_kind,
        )


@dataclass
class ChaosStats:
    """How many faults each kind was offered and actually injected."""

    opportunities: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)

    @property
    def total_injected(self) -> int:
        """Faults injected across all kinds."""
        return sum(self.injected.values())


class ChaosEngine:
    """Deterministic, capped fault scheduling for one campaign."""

    def __init__(self, config: ChaosConfig):
        self._config = config
        self._opportunities: Dict[FaultKind, int] = {k: 0 for k in FaultKind}
        self._injected: Dict[FaultKind, int] = {k: 0 for k in FaultKind}
        self._bench_sites: Dict[str, int] = {}
        self._corrupted_names: set = set()
        self._extra_injected: Dict[str, int] = {}

    @property
    def config(self) -> ChaosConfig:
        """The fault profile in force."""
        return self._config

    def should_fire(self, kind: FaultKind) -> bool:
        """Decide (deterministically) whether this opportunity faults."""
        index = self._opportunities[kind]
        self._opportunities[kind] += 1
        rate = self._config.rate_for(kind)
        if rate <= 0.0:
            return False
        cap = self._config.max_faults_per_kind
        if cap is not None and self._injected[kind] >= cap:
            return False
        draw = rng.generator("chaos", self._config.seed, kind.value, index).random()
        if draw < rate:
            self._injected[kind] += 1
            return True
        return False

    def bench_should_fail(self, serial: str) -> bool:
        """Whether this link site on this bench fails *persistently*.

        Target-keyed, not rate-keyed: benches listed in
        ``bench_failure_serials`` fail every site once they have
        passed ``bench_failure_after`` clean ones.
        """
        if serial not in self._config.bench_failure_serials:
            return False
        count = self._bench_sites.get(serial, 0)
        self._bench_sites[serial] = count + 1
        if count < self._config.bench_failure_after:
            return False
        self._extra_injected["bench-failure"] = (
            self._extra_injected.get("bench-failure", 0) + 1
        )
        return True

    def store_should_corrupt(self, name: str) -> bool:
        """Whether this just-saved artifact gets damaged (once per name)."""
        return self.store_should_fault("result-corruption", name)

    _STORE_FAULT_FIELDS = {
        "result-corruption": "result_corruption_names",
        "enospc": "store_enospc_names",
        "torn-write": "store_torn_write_names",
        "partial-sidecar": "store_partial_sidecar_names",
    }

    def store_should_fault(self, fault: str, name: str) -> bool:
        """Whether a storage fault of this kind hits this artifact.

        Target-keyed and once-per-(kind, name): each listed artifact
        takes each configured storage fault exactly once, so repair and
        resume tests are deterministic without any rate tuning.
        """
        targets = getattr(self._config, self._STORE_FAULT_FIELDS[fault])
        if name not in targets:
            return False
        key = (fault, name)
        if key in self._corrupted_names:
            return False
        self._corrupted_names.add(key)
        counter = fault if fault == "result-corruption" else f"store-{fault}"
        self._extra_injected[counter] = self._extra_injected.get(counter, 0) + 1
        return True

    @property
    def stats(self) -> ChaosStats:
        """Snapshot of opportunity and injection counts per kind."""
        injected = {
            kind.value: count for kind, count in self._injected.items()
        }
        injected.update(self._extra_injected)
        return ChaosStats(
            opportunities={
                kind.value: count for kind, count in self._opportunities.items()
            },
            injected=injected,
        )
