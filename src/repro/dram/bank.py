"""Bank state machine.

The bank interprets timed DRAM command streams.  Which behaviour an
``ACT -> PRE -> ACT`` (APA) sequence produces is decided *here*, from
the observed gaps and the vendor profile, exactly as on real silicon:

- second ACT within the interrupt window (t2 <= ~3 ns) on a
  susceptible part: the precharge never clears the predecoder
  latches, so many rows open simultaneously.  What then happens to
  the cells depends on how long the sense amplifiers had been driving
  the bitlines (t1):

  * ``t1`` >= the drive threshold (~6 ns): the amplifiers hold the
    first row's data and overwrite every opened row with it --
    **Multi-RowCopy** semantics (t1 = 36 ns = tRAS is the paper's
    best configuration);
  * ``t1`` below the drive threshold: the opened cells charge-share
    and the amplifiers regenerate the **majority** of their values --
    MAJX semantics.

- second ACT between the interrupt window and the consecutive window
  (~3-8 ns): the first wordline closed but the amplifiers still hold
  its data, so the second row is overwritten -- classic **RowClone**.

- anything slower: standard behaviour.

- Samsung-profile parts ignore the violating command and only ever
  keep one row open (section 9, Limitation 1).

Reliability is applied per column via :class:`ReliabilityModel`:
stable columns produce the ideal analog outcome, unstable columns
flip randomly per trial.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterator, Optional, Sequence, Tuple

import numpy as np

from .. import rng
from ..config import SimulationConfig
from ..errors import ProtocolError, UnsupportedOperationError
from .address import RowAddress, decompose_row
from .behavior import OperationClass, ReliabilityModel
from .cell import LEVEL_HALF, bits_to_levels
from .commands import Command, CommandKind
from .row_decoder import HierarchicalRowDecoder
from .subarray import Subarray
from .timing import ApaRegime, TimingParameters
from .vendor import VendorProfile

SENSE_DRIVE_THRESHOLD_NS = 6.0
"""Minimum ACT->PRE gap after which the sense amplifiers dominate the
bitlines, flipping APA semantics from majority to copy (footnote 6)."""

FRAC_WINDOW_NS = 4.5
"""Largest ACT->PRE gap that truncates the charge restore early
enough to leave the cells at VDD/2 -- the FracDRAM fractional-value
mechanism (section 2.2).  Applies only when no second ACT follows
(otherwise the APA multi-activation semantics take over)."""

_FIXED_BYTE_WEIGHTS = {
    0x00: 1.00,
    0xFF: 1.00,
    0xAA: 0.95,
    0x55: 0.95,
    0xCC: 0.93,
    0x33: 0.93,
    0x66: 0.90,
    0x99: 0.90,
}
_OTHER_BYTE_WEIGHT = 0.88


_BYTE_WEIGHTS = np.full(256, _OTHER_BYTE_WEIGHT, dtype=np.float64)
_BYTE_WEIGHTS[list(_FIXED_BYTE_WEIGHTS)] = list(_FIXED_BYTE_WEIGHTS.values())


def pattern_regularity(levels: np.ndarray) -> float:
    """How 'regular' a set of rows' charge levels is, in [0, 1].

    Single-byte-periodic rows (the paper's fixed patterns) score close
    to 1; random data scores 0.  Rows containing neutral (VDD/2) cells
    are excluded -- they present no bitline data.  ``levels`` is a
    (rows, columns) charge-level matrix.
    """
    levels = np.asarray(levels)
    if levels.ndim != 2:
        return 0.0
    return float(pattern_regularity_block(levels[None])[0])


def pattern_regularity_block(levels: np.ndarray) -> np.ndarray:
    """:func:`pattern_regularity` of every matrix of a stack at once.

    ``levels`` is a ``(trials, rows, columns)`` stack; returns a
    ``(trials,)`` float64 array.  A trial scores 0 unless every
    non-neutral row is single-byte periodic, else the mean of those
    rows' byte weights in row order.
    """
    levels = np.asarray(levels)
    trials, rows, columns = levels.shape
    scores = np.zeros(trials, dtype=np.float64)
    if columns % 8 != 0 or columns == 0:
        return scores
    included = ~(levels == LEVEL_HALF).any(axis=2)
    grouped = (levels >= 2).reshape(trials, rows, columns // 8, 8)
    periodic = (grouped == grouped[:, :, :1]).all(axis=(2, 3))
    scored = np.flatnonzero(
        (periodic | ~included).all(axis=1) & included.any(axis=1)
    )
    if scored.size == 0:
        return scores
    weights = _BYTE_WEIGHTS[np.packbits(grouped[scored, :, 0], axis=-1)[..., 0]]
    # Excluded rows key as -1; trials with equal keys take one np.mean
    # over the same included weights in the same row order.
    keys = np.where(included[scored], weights, -1.0)
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    for j, key in enumerate(unique):
        scores[scored[inverse == j]] = np.mean(key[key >= 0])
    return scores


class BankState(enum.Enum):
    """Bank activation state."""

    PRECHARGED = "precharged"
    ACTIVE = "active"


@dataclass(frozen=True)
class ActivationEvent:
    """Introspection record of the most recent APA resolution."""

    semantic: str
    """One of single/majority/copy/rowclone/cross-subarray/blocked."""
    t1_ns: float
    t2_ns: float
    subarray: int
    rows: FrozenSet[int]


class Bank:
    """One DRAM bank: decoder + subarrays + sense-amp row buffer."""

    def __init__(
        self,
        index: int,
        profile: VendorProfile,
        config: SimulationConfig,
        reliability: ReliabilityModel,
        timings: TimingParameters,
        module_serial: str,
    ):
        self._index = index
        self._profile = profile
        self._config = config
        self._reliability = reliability
        self._timings = timings
        self._serial = module_serial
        self._decoder = HierarchicalRowDecoder(
            profile.subarrays_per_bank, profile.subarray_rows
        )
        self._subarrays: Dict[int, Subarray] = {}
        self._state = BankState.PRECHARGED
        self._clock = 0.0
        self._pending_pre: Optional[float] = None
        self._first_act_time: Optional[float] = None
        self._first_act_addr: Optional[RowAddress] = None
        self._row_buffer: Optional[np.ndarray] = None
        self._episode_written = False
        self._op_counter = 0
        self._noise_context: Optional[bytes] = None
        self._last_event: Optional[ActivationEvent] = None
        self.temperature_c = 50.0
        self.vpp = 2.5
        self.stats: Counter = Counter()
        self.event_log: Deque[ActivationEvent] = deque(maxlen=8192)

    def _record_event(self, event: ActivationEvent) -> None:
        """Set the latest APA resolution and append it to the log."""
        self._last_event = event
        self.event_log.append(event)

    # -- accessors -----------------------------------------------------------

    @property
    def index(self) -> int:
        """Bank index within the module."""
        return self._index

    @property
    def profile(self) -> VendorProfile:
        """Vendor profile this bank follows."""
        return self._profile

    @property
    def state(self) -> BankState:
        """Current activation state (pending PRE counts as active)."""
        return self._state

    @property
    def decoder(self) -> HierarchicalRowDecoder:
        """The bank's hierarchical row decoder."""
        return self._decoder

    @property
    def columns(self) -> int:
        """Simulated columns per row."""
        return self._config.columns_per_row

    @property
    def last_event(self) -> Optional[ActivationEvent]:
        """The most recent APA resolution, for tests and tracing."""
        return self._last_event

    def subarray(self, index: int) -> Subarray:
        """Lazily allocated subarray storage."""
        if not 0 <= index < self._profile.subarrays_per_bank:
            raise ProtocolError(
                f"subarray {index} outside bank of "
                f"{self._profile.subarrays_per_bank} subarrays"
            )
        if index not in self._subarrays:
            self._subarrays[index] = Subarray(
                self._config,
                self._serial,
                self._index,
                index,
                self._profile.subarray_rows,
                uniformly_biased=self._profile.sense_amp_biased,
            )
        return self._subarrays[index]

    # -- noise keying ---------------------------------------------------------

    def set_noise_context(self, *tokens: rng.Token) -> None:
        """Key subsequent per-trial noise by ``tokens`` instead of the
        bank's operation ordinal.

        With a context set, unstable-column coin flips depend only on
        the context identity (plus bank/subarray/row tags), never on
        how many operations ran before -- the contract that lets the
        trial-execution engine replay the same measurement on any
        executor and get identical bits.  The tokens are encoded here,
        once, for every row the trial draws.
        """
        self._noise_context = rng.encode_tokens(tokens)

    def clear_noise_context(self) -> None:
        """Return to operation-ordinal noise keying."""
        self._noise_context = None

    @contextmanager
    def noise_context(self, *tokens: rng.Token) -> Iterator[None]:
        """Scoped :meth:`set_noise_context` / :meth:`clear_noise_context`."""
        self.set_noise_context(*tokens)
        try:
            yield
        finally:
            self.clear_noise_context()

    def _noise(self, subarray_index: int, columns: int, tag: str) -> np.ndarray:
        """Per-trial coin flips under the active noise-keying mode."""
        if self._noise_context is not None:
            return self._reliability.encoded_context_noise(
                self._noise_context, self._index, subarray_index, columns, tag
            )
        return self._reliability.trial_noise(
            self._op_counter, self._index, subarray_index, columns, tag
        )

    def _contest_rows(
        self,
        subarray_index: int,
        local_rows: Sequence[int],
        stable: np.ndarray,
        ideal: np.ndarray,
        tag: str,
    ) -> np.ndarray:
        """The bits each of ``local_rows`` latches after a contest.

        Stable columns latch ``ideal``; unstable ones take the row's
        coin flip (noise site ``f"{tag}{row}"``).  A row's noise is
        drawn only when ``stable`` has an unstable column, since
        ``where(stable, ideal, noise)`` reads none of it otherwise.  In
        ordinal keying the draw's key is the operation counter, which
        counts operations, not draws, so skipping changes no other
        draw.  Returns ``ideal`` itself (one row for all) when every
        column is stable, else a ``(len(local_rows), columns)`` stack.
        """
        if stable.all():
            return ideal
        noise = np.stack([
            self._noise(subarray_index, ideal.shape[-1], f"{tag}{row}")
            for row in local_rows
        ])
        return np.where(stable, ideal, noise)

    def active_rows(self) -> Dict[int, FrozenSet[int]]:
        """Currently asserted wordlines per subarray."""
        return self._decoder.asserted_rows()

    def row_buffer(self) -> Optional[np.ndarray]:
        """Copy of the sense-amplifier contents, if any."""
        return None if self._row_buffer is None else self._row_buffer.copy()

    # -- command processing ----------------------------------------------------

    def process(self, command: Command) -> Optional[np.ndarray]:
        """Execute one timed command; RD returns the row-buffer bits."""
        if command.time_ns < self._clock:
            raise ProtocolError(
                f"command at {command.time_ns} ns arrives before bank clock "
                f"{self._clock} ns"
            )
        self._clock = command.time_ns
        self.stats[command.kind.value] += 1

        if self._pending_pre is not None and self._resolve_pending_pre(command):
            return None

        if command.kind is CommandKind.ACT:
            self._normal_act(command)
            return None
        if command.kind is CommandKind.PRE:
            if self._state is BankState.ACTIVE:
                self._pending_pre = command.time_ns
            return None
        if command.kind is CommandKind.WR:
            self._write(command)
            return None
        if command.kind is CommandKind.RD:
            return self._read()
        if command.kind is CommandKind.REF:
            if self._state is not BankState.PRECHARGED:
                raise ProtocolError("REF requires a precharged bank")
            return None
        if command.kind is CommandKind.NOP:
            return None
        raise ProtocolError(f"unhandled command kind {command.kind}")

    def settle(self, time_ns: Optional[float] = None) -> None:
        """Complete any pending precharge (end-of-program quiescence)."""
        if time_ns is not None and time_ns > self._clock:
            self._clock = time_ns
        if self._pending_pre is not None:
            self._complete_precharge()

    # -- APA resolution ----------------------------------------------------------

    def classify_apa(
        self,
        first_row: int,
        second_row: int,
        act_ns: float,
        pre_ns: float,
        second_act_ns: float,
    ) -> str:
        """The semantic ``ACT first_row -> PRE -> ACT second_row`` resolves
        to when issued at the given bus times on a precharged bank.

        Pure: reads only the vendor profile, the timing windows and the
        row geometry, so it predicts :attr:`last_event` without running
        the command stream (cells, noise and counters are untouched).
        """
        first = self._address(first_row)
        second = self._address(second_row)
        return self._apa_decision(
            first, second, pre_ns - act_ns, second_act_ns - pre_ns
        )[1]

    def _apa_decision(
        self, first: RowAddress, second: RowAddress, t1: float, t2: float
    ) -> Tuple[ApaRegime, str]:
        """The APA decision table: timing regime and resolved semantic.

        The outcome depends only on t1/t2, the vendor and whether both
        rows share a subarray -- never on cell contents.  Both
        :meth:`classify_apa` and the command path read it, so the
        regime logic lives here alone.
        """
        regime = self._timings.classify_apa(t2)
        same_subarray = first.subarray == second.subarray
        if regime is ApaRegime.SIMULTANEOUS:
            if not self._profile.supports_multi_row_activation:
                return regime, "blocked"
            if not same_subarray:
                return regime, "cross-subarray"
            if t1 >= SENSE_DRIVE_THRESHOLD_NS:
                return regime, "copy"
            return regime, "majority"
        if regime is ApaRegime.CONSECUTIVE and same_subarray:
            return regime, "rowclone"
        return regime, "single"

    def _address(self, global_row: int) -> RowAddress:
        return decompose_row(
            global_row, self._profile.subarray_rows, self._profile.rows_per_bank
        )

    def _resolve_pending_pre(self, command: Command) -> bool:
        """Decide what the pending PRE did, given the follow-up command.

        Returns True when the follow-up command was consumed by the
        resolution (the multi-activation paths); otherwise the caller
        dispatches the command normally against the now-precharged
        bank.
        """
        assert self._pending_pre is not None
        if command.kind is CommandKind.ACT and self._state is BankState.ACTIVE:
            assert self._first_act_time is not None
            assert self._first_act_addr is not None and command.row is not None
            second = self._address(command.row)
            t1 = self._pending_pre - self._first_act_time
            t2 = command.time_ns - self._pending_pre
            regime, semantic = self._apa_decision(
                self._first_act_addr, second, t1, t2
            )
            if semantic == "blocked":
                self._blocked_apa(t1, t2)
                return True
            if regime is ApaRegime.SIMULTANEOUS:
                self._interrupted_act(command, second, t1, t2, semantic)
                return True
            if regime is ApaRegime.CONSECUTIVE:
                self._consecutive_act(command, second, t1, t2, semantic)
                return True
        self._complete_precharge()
        return False

    def _blocked_apa(self, t1: float, t2: float) -> None:
        """Samsung-style guard: ignore the violating PRE and second ACT."""
        assert self._first_act_addr is not None
        self._pending_pre = None
        self._record_event(ActivationEvent(
            semantic="blocked",
            t1_ns=t1,
            t2_ns=t2,
            subarray=self._first_act_addr.subarray,
            rows=frozenset({self._first_act_addr.local_row}),
        ))
        self.stats["blocked_apa"] += 1

    def _interrupted_act(
        self,
        command: Command,
        second: RowAddress,
        t1: float,
        t2: float,
        semantic: str,
    ) -> None:
        """Simultaneous many-row activation (the paper's core phenomenon)."""
        assert self._first_act_addr is not None
        self._pending_pre = None
        self._decoder.precharge(completed=False)
        self._decoder.activate(second.subarray, second.local_row)
        first = self._first_act_addr

        if semantic == "cross-subarray":
            # Hidden-row-activation style: each subarray keeps one open
            # row on its own local sense amplifiers; no charge sharing
            # between them.  The first row's charge restore completes
            # from its own stripe before the bank-level buffer switches
            # to the newly opened row.
            if self._row_buffer is not None and not self._episode_written:
                self.subarray(first.subarray).restore_row(
                    first.local_row, self._row_buffer
                )
            sub = self.subarray(second.subarray)
            self._row_buffer = sub.sense_row(second.local_row)
            self._episode_written = False
            self._first_act_time = command.time_ns
            self._first_act_addr = second
            self._record_event(ActivationEvent(
                semantic="cross-subarray",
                t1_ns=t1,
                t2_ns=t2,
                subarray=second.subarray,
                rows=frozenset({second.local_row}),
            ))
            self.stats["cross_subarray_apa"] += 1
            return

        rows = self._decoder.asserted_rows()[first.subarray]
        if semantic == "copy":
            self._apply_copy(first.subarray, rows, t1, t2)
        else:
            self._apply_majority(first.subarray, rows, t1, t2)

    def _apply_majority(
        self, subarray_index: int, rows: FrozenSet[int], t1: float, t2: float
    ) -> None:
        """Charge-share the opened rows and regenerate their majority."""
        sub = self.subarray(subarray_index)
        row_array = np.fromiter(sorted(rows), dtype=np.int64)
        imbalance = sub.charge_share(row_array)
        ideal = sub.sense_amps.resolve(np.sign(imbalance))
        pattern_scale = self._pattern_scale(sub, row_array)
        z_columns = self._reliability.majority_column_z(
            imbalance,
            n_rows=len(rows),
            t1_ns=t1,
            t2_ns=t2,
            pattern_scale=pattern_scale,
            temp_c=self.temperature_c,
            vpp=self.vpp,
        )
        stable = self._reliability.stable_mask_vector(
            z_columns, self._index, subarray_index, rows, OperationClass.MAJORITY
        )
        self._op_counter += 1
        results = self._contest_rows(
            subarray_index, row_array, stable, ideal, "maj-"
        )
        sub.restore_rows(row_array, results)
        self._row_buffer = np.atleast_2d(results)[0].copy()
        self._episode_written = True
        self._record_event(ActivationEvent(
            semantic="majority", t1_ns=t1, t2_ns=t2, subarray=subarray_index, rows=rows
        ))
        self.stats["majority_apa"] += 1

    def _apply_copy(
        self, subarray_index: int, rows: FrozenSet[int], t1: float, t2: float
    ) -> None:
        """Multi-RowCopy: the driven sense amps overwrite every opened row."""
        assert self._row_buffer is not None
        sub = self.subarray(subarray_index)
        source = self._row_buffer
        n_destinations = max(1, len(rows) - 1)
        z = self._reliability.multi_row_copy_z(
            n_destinations=n_destinations,
            t1_ns=t1,
            t2_ns=t2,
            source_ones_fraction=float(np.mean(source)),
            temp_c=self.temperature_c,
            vpp=self.vpp,
        )
        stable = self._reliability.stable_mask(
            z,
            self._index,
            subarray_index,
            rows,
            OperationClass.MULTI_ROW_COPY,
            sub.columns,
        )
        self._op_counter += 1
        local_rows = sorted(rows)
        sub.restore_rows(
            local_rows,
            self._contest_rows(subarray_index, local_rows, stable, source, "mrc-"),
        )
        self._episode_written = True
        self._record_event(ActivationEvent(
            semantic="copy", t1_ns=t1, t2_ns=t2, subarray=subarray_index, rows=rows
        ))
        self.stats["multi_row_copy"] += 1

    def _consecutive_act(
        self,
        command: Command,
        second: RowAddress,
        t1: float,
        t2: float,
        semantic: str,
    ) -> None:
        """RowClone regime: first wordline closed, amps overwrite row two."""
        self._pending_pre = None
        self._decoder.precharge(completed=True)
        self._decoder.activate(second.subarray, second.local_row)
        sub = self.subarray(second.subarray)
        if semantic == "rowclone":
            # An ACTIVE bank always holds its sensed row.
            assert self._row_buffer is not None
            source = self._row_buffer.copy()
            z = self._reliability.rowclone_z(t1, self.temperature_c, self.vpp)
            stable = self._reliability.stable_mask(
                z,
                self._index,
                second.subarray,
                frozenset({second.local_row}),
                OperationClass.ROWCLONE,
                sub.columns,
            )
            self._op_counter += 1
            result = self._contest_rows(
                second.subarray, [second.local_row], stable, source, "clone-"
            ).reshape(-1)
            sub.restore_row(second.local_row, result)
            self._row_buffer = result
            self._episode_written = True
            self.stats["rowclone"] += 1
        else:
            # Different subarray: different bitlines, so the second row
            # simply activates normally.
            self._row_buffer = sub.sense_row(second.local_row)
            self._episode_written = False
        self._first_act_time = command.time_ns
        self._first_act_addr = second
        self._state = BankState.ACTIVE
        self._record_event(ActivationEvent(
            semantic=semantic,
            t1_ns=t1,
            t2_ns=t2,
            subarray=second.subarray,
            rows=frozenset({second.local_row}),
        ))

    # -- ordinary commands ---------------------------------------------------

    def _normal_act(self, command: Command) -> None:
        if self._state is BankState.ACTIVE:
            raise ProtocolError(
                "ACT issued while the bank is active (missing PRE)"
            )
        assert command.row is not None
        addr = decompose_row(
            command.row, self._profile.subarray_rows, self._profile.rows_per_bank
        )
        self._decoder.activate(addr.subarray, addr.local_row)
        sub = self.subarray(addr.subarray)
        self._row_buffer = sub.sense_row(addr.local_row)
        self._episode_written = False
        self._state = BankState.ACTIVE
        self._first_act_time = command.time_ns
        self._first_act_addr = addr
        self._record_event(ActivationEvent(
            semantic="single",
            t1_ns=0.0,
            t2_ns=0.0,
            subarray=addr.subarray,
            rows=frozenset({addr.local_row}),
        ))

    def _write(self, command: Command) -> None:
        if self._state is not BankState.ACTIVE:
            raise ProtocolError("WR requires an activated bank")
        data = command.data_array()
        if data is None:
            raise ProtocolError("WR carries no data")
        if data.shape != (self.columns,):
            raise ProtocolError(
                f"WR data width {data.shape} != ({self.columns},)"
            )
        asserted = self._decoder.asserted_rows()
        event = self._last_event
        t1 = event.t1_ns if event is not None else 0.0
        t2 = event.t2_ns if event is not None else 0.0
        self._op_counter += 1
        for subarray_index, rows in asserted.items():
            sub = self.subarray(subarray_index)
            n_rows = len(rows)
            if n_rows == 1 and event is not None and event.semantic == "single":
                stable = np.ones(sub.columns, dtype=bool)
            else:
                z = self._reliability.activation_z(
                    n_rows, t1, t2, self.temperature_c, self.vpp
                )
                stable = self._reliability.stable_mask(
                    z,
                    self._index,
                    subarray_index,
                    rows,
                    OperationClass.ACTIVATION,
                    sub.columns,
                )
            local_rows = sorted(rows)
            sub.restore_rows(
                local_rows,
                self._contest_rows(subarray_index, local_rows, stable, data, "wr-"),
            )
        self._row_buffer = data.copy()
        self._episode_written = True

    def _read(self) -> np.ndarray:
        if self._state is not BankState.ACTIVE or self._row_buffer is None:
            raise ProtocolError("RD requires an activated bank")
        return self._row_buffer.copy()

    def _complete_precharge(self) -> None:
        """Finish a pending PRE: restore, clear latches, close the bank.

        A plain ACT -> PRE with nominal spacing restores the sensed
        values (destroying any neutral state, as on real silicon).
        If the PRE truncated the activation *before the restore could
        complete* (t1 inside the Frac window), the cells are left at
        the intermediate VDD/2 level -- FracDRAM's mechanism for
        storing fractional values (paper section 2.2).
        """
        pre_time = self._pending_pre
        self._pending_pre = None
        if (
            self._state is BankState.ACTIVE
            and not self._episode_written
            and self._row_buffer is not None
            and self._first_act_addr is not None
        ):
            addr = self._first_act_addr
            sub = self.subarray(addr.subarray)
            t1 = (
                pre_time - self._first_act_time
                if pre_time is not None and self._first_act_time is not None
                else self._timings.t_ras
            )
            if (
                t1 <= FRAC_WINDOW_NS
                and self._profile.supports_multi_row_activation
            ):
                self._apply_frac_truncation(addr, sub)
            else:
                sub.restore_row(addr.local_row, self._row_buffer)
        self._decoder.precharge(completed=True)
        self._state = BankState.PRECHARGED
        self._row_buffer = None
        self._episode_written = False
        self._first_act_time = None
        self._first_act_addr = None

    # -- host-level helpers -----------------------------------------------------

    def write_row(self, global_row: int, bits: np.ndarray) -> None:
        """Host write of a full row with nominal timing (always reliable)."""
        if self._state is not BankState.PRECHARGED:
            raise ProtocolError("host write requires a precharged bank")
        addr = decompose_row(
            global_row, self._profile.subarray_rows, self._profile.rows_per_bank
        )
        self.subarray(addr.subarray).write_row_bits(addr.local_row, bits)

    def read_row(self, global_row: int) -> np.ndarray:
        """Host read with nominal timing (ACT-RD-PRE; restores the row)."""
        if self._state is not BankState.PRECHARGED:
            raise ProtocolError("host read requires a precharged bank")
        addr = decompose_row(
            global_row, self._profile.subarray_rows, self._profile.rows_per_bank
        )
        sub = self.subarray(addr.subarray)
        bits = sub.sense_row(addr.local_row)
        sub.restore_row(addr.local_row, bits)
        return bits

    def peek_row(self, global_row: int) -> np.ndarray:
        """Non-destructive debug read of raw charge levels."""
        addr = decompose_row(
            global_row, self._profile.subarray_rows, self._profile.rows_per_bank
        )
        return self.subarray(addr.subarray).cells.read_levels(addr.local_row)

    def _apply_frac_truncation(self, addr: RowAddress, sub: Subarray) -> None:
        """Leave a row's cells at VDD/2 after a truncated restore."""
        z = self._reliability.frac_z(self.temperature_c, self.vpp)
        stable = self._reliability.stable_mask(
            z,
            self._index,
            addr.subarray,
            frozenset({addr.local_row}),
            OperationClass.FRAC,
            sub.columns,
        )
        self._op_counter += 1
        if stable.all():
            # No unstable column reads a coin flip: draw none.
            levels = np.full(sub.columns, LEVEL_HALF, dtype=np.uint8)
        else:
            noise = self._noise(
                addr.subarray, sub.columns, f"frac-{addr.local_row}"
            )
            levels = np.where(stable, np.uint8(LEVEL_HALF), bits_to_levels(noise))
        sub.cells.write_levels(addr.local_row, levels)
        self.stats["frac"] += 1

    def apply_frac(self, global_row: int) -> None:
        """Put a row into the Frac neutral (VDD/2) state (section 2.2).

        Equivalent to issuing ``ACT row -> PRE`` with the ACT->PRE gap
        inside the Frac window (the command-level path, which the bank
        also supports directly); this host-level form exists so
        experiment setup code does not need to schedule the timing
        itself.  Mfr. H parts support Frac natively.  Mfr. M parts do
        not, but their uniformly biased sense amplifiers make rows
        initialized toward the bias behave neutrally (footnote 5),
        which this method models the same way; truly unsupported
        profiles raise.
        """
        strategy = self._profile.neutral_row_strategy()
        if strategy == "unsupported":
            raise UnsupportedOperationError(
                f"manufacturer {self._profile.manufacturer!r} supports no "
                "neutral-row mechanism"
            )
        if self._state is not BankState.PRECHARGED:
            raise ProtocolError("Frac requires a precharged bank")
        addr = decompose_row(
            global_row, self._profile.subarray_rows, self._profile.rows_per_bank
        )
        self._apply_frac_truncation(addr, self.subarray(addr.subarray))

    # -- data-pattern introspection ---------------------------------------------

    @staticmethod
    def _pattern_scale(sub: Subarray, row_array: np.ndarray) -> float:
        """Regularity of the activated rows' stored data (see
        :func:`pattern_regularity`)."""
        return pattern_regularity(sub.cells.rows_view(row_array))
