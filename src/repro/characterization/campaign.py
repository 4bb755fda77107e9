"""Campaign runner: the paper's whole experimental sweep as one call.

A :class:`Campaign` executes a configurable subset of the paper's
characterizations (sections 4-6) over a scope, persists every result
through :class:`~repro.characterization.store.ResultStore`, and
renders a combined text report.  This is the entry point a lab would
script for an overnight run; the scaled-down defaults finish in
minutes.

Overnight runs on real rigs see transient infrastructure faults, so
the executor is failure-isolated:

- a :class:`~repro.errors.TransientInfrastructureError` triggers a
  retry with exponential backoff + seeded jitter (:class:`RetryPolicy`),
  bounded by a per-experiment wall-clock budget;
- any other failure (or exhausted retries) is recorded in
  :attr:`CampaignResult.failures` as an :class:`ExperimentFailure`
  carrying the full exception chain, and the sweep continues;
- with a store attached, every completed experiment is checkpointed in
  a :class:`~repro.characterization.store.CampaignManifest`, so a
  killed campaign re-run with ``resume=True`` skips finished figures
  (after re-verifying their content checksums) and -- unless
  ``retry_failed=True`` -- does not burn its retry budget on figures
  already recorded as failed for a *non-transient* cause;
- with a :class:`~repro.health.HealthTracker` attached, every bench is
  probed before the figures run (and again before each figure the
  retry pass or the adaptive planner runs); modules whose circuit
  breaker trips (persistent faults, repeated transient faults) are
  quarantined, the figures degrade gracefully to the healthy subset --
  bit-identical to a run scoped to that subset from the start, because
  group sampling and measurement noise are serial-keyed -- and the
  stored result carries an explicit data-quality annotation naming
  what was excluded;
- a :class:`~repro.chaos.ChaosConfig` can be attached to prove all of
  the above under injected faults (the rig is restored afterwards);
- with an :class:`~repro.engine.planner.AdaptiveConfig` attached, the
  corner matrix runs through the
  :class:`~repro.engine.planner.AdaptivePlanner` instead of at a fixed
  trial budget: cells stop at the target CI half-width, freed trials
  steer to the high-variance cells, every completed round is journaled
  (so a killed run leaves a progress trace), each finished figure is
  committed with a ``planner`` data-quality annotation recording
  per-cell ``trials_planned``/``trials_run``/``stop_reason``, and the
  adaptive knobs ride in the manifest fingerprint so resume refuses to
  mix budgets and the audit can rebuild the exact planner.

Where the trials run is the executor's business: every executor,
the ``fused-parallel`` pool's forked workers included, combines with
chaos, health supervision and adaptive planning, and commits bytes
equal to an in-process run.

One loop drives every run.  :meth:`Campaign.run` prepares the manifest
and the resume skips once, then hands the figures still to run to
exactly one *source*:

========== ===========================================================
source     settles each figure through
========== ===========================================================
stream     :meth:`CampaignScheduler.run` ``on_program``: every figure's
           plans as one ``run_many`` stream (back to back in-process,
           pipelined on ``fused-parallel``), on the scope one health
           probe leaves
adaptive   :meth:`AdaptivePlanner.run_program`, one figure at a time,
           with a ``planner`` quality annotation
========== ===========================================================

Each source streams settled ``(name, outcome[, quality])`` in figure
order into one *sink*.  The sink commits data (journal intent, atomic
artifact write, manifest update, journal done) or records the failure
in the manifest -- a commit that raises becomes a resumable
``store-error``.  A streamed figure that leaked a
:class:`~repro.errors.TransientInfrastructureError` -- or, under
health supervision, died with a
:class:`~repro.errors.PersistentBenchError` -- goes to the *retry
pass* once the stream ends: it re-runs each such figure under the
retry policy on a freshly probed scope, and the streamed run counts
as its first attempt.  The result lists figures in the requested
order, however late they committed.

Every source builds each figure from one registry,
:data:`EXPERIMENT_PROGRAMS`: a figure is a program, whichever source
runs it.  Names must be known and may appear only once in a run,
because outcomes are routed and committed by figure name
(:func:`check_experiments`).

Chaos, health supervision and adaptive planning combine freely; the
constructor refuses (with :class:`~repro.errors.ConfigurationError`)
only an adaptive campaign without an executor.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .. import rng
from ..bender.program import ProgramBuilder
from ..engine.executors import SerialExecutor
from ..engine.metrics import EngineMetrics
from ..engine.planner import AdaptiveConfig
from ..engine.scheduler import CampaignScheduler
from ..errors import (
    ConfigurationError,
    ExperimentError,
    NoHealthyModulesError,
    PersistentBenchError,
    ResultCorruptionError,
    TransientInfrastructureError,
)
from ..health.tracker import HealthTracker
from .activation import program_fig3, program_fig4a, program_fig4b
from .experiment import CharacterizationScope
from .majority import program_fig6, program_fig7, program_fig8, program_fig9
from .report import format_distribution_table, format_series_table
from .rowcopy import program_fig10, program_fig11, program_fig12a, program_fig12b
from .store import CampaignManifest, ResultStore, storable

EXPERIMENT_PROGRAMS: Dict[str, Callable] = {
    "fig3": program_fig3,
    "fig4a": program_fig4a,
    "fig4b": program_fig4b,
    "fig6": program_fig6,
    "fig7": program_fig7,
    "fig8": program_fig8,
    "fig9": program_fig9,
    "fig10": program_fig10,
    "fig11": program_fig11,
    "fig12a": program_fig12a,
    "fig12b": program_fig12b,
}
"""Every section 4-6 figure the campaign can run: figure id -> program
builder (scope -> :class:`~repro.engine.scheduler.ExperimentProgram`).
Each builder's program is named by its key; every source and the
audit build figures from this one table."""


def check_experiments(experiments: Sequence[str]) -> None:
    """Raise :class:`~repro.errors.ExperimentError` unless ``experiments``
    names at least one figure, each known and each once.

    :meth:`Campaign.run` checks its list here; the CLI calls it before
    it creates the result store or starts any worker.
    """
    unknown = [name for name in experiments if name not in EXPERIMENT_PROGRAMS]
    if unknown:
        raise ExperimentError(
            f"unknown experiments {unknown}; "
            f"known: {sorted(EXPERIMENT_PROGRAMS)}"
        )
    repeated = sorted(
        {name for name in experiments if experiments.count(name) > 1}
    )
    if repeated:
        # Outcomes are routed and committed by figure name: a repeat
        # would compute, journal and commit it twice.
        raise ExperimentError(f"experiments named more than once: {repeated}")
    if not experiments:
        raise ExperimentError("campaign needs at least one experiment")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter for transient faults."""

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    """Up to this fraction of the delay is added as seeded jitter."""

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")

    def delay_s(self, retry_index: int, jitter_draw: float = 0.0) -> float:
        """Backoff before retry ``retry_index`` (0-based).

        ``jitter_draw`` is a uniform [0, 1) sample; the campaign feeds
        a seeded one so whole runs stay deterministic.
        """
        delay = min(
            self.base_delay_s * self.multiplier**retry_index, self.max_delay_s
        )
        return delay * (1.0 + self.jitter * jitter_draw)


@dataclass(frozen=True)
class ExperimentFailure:
    """One experiment the sweep gave up on (the sweep itself went on)."""

    experiment: str
    reason: str
    """``"error"`` (non-retryable), ``"retries-exhausted"``,
    ``"time-budget"``, ``"no-healthy-modules"`` (every bench in the
    scope quarantined), or ``"store-error"`` (the experiment produced
    data but committing it to the result store failed; resume re-runs
    it)."""
    attempts: int
    elapsed_s: float
    error: str
    """``TypeName: message`` of the final exception."""
    chain: Tuple[str, ...]
    """The full exception chain, outermost first."""


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _chain(exc: BaseException) -> Tuple[str, ...]:
    parts: List[str] = []
    seen: set = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append(_describe(current))
        current = current.__cause__ or current.__context__
    return tuple(parts)


def _failure(
    name: str,
    reason: str,
    attempts: int,
    exc: BaseException,
    elapsed_s: float = 0.0,
) -> ExperimentFailure:
    return ExperimentFailure(
        experiment=name,
        reason=reason,
        attempts=attempts,
        elapsed_s=elapsed_s,
        error=_describe(exc),
        chain=_chain(exc),
    )


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    completed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    """Experiments reused from a previous run's checkpoint."""
    skipped_failed: List[str] = field(default_factory=list)
    """Experiments skipped on resume because a previous run recorded a
    non-transient failure (run with ``retry_failed=True`` to retry)."""
    corrupt_rerun: List[str] = field(default_factory=list)
    """Stored results that failed their integrity check on resume and
    were therefore re-run instead of reused."""
    failures: List[ExperimentFailure] = field(default_factory=list)
    attempts: Dict[str, int] = field(default_factory=dict)
    stored_at: Optional[Path] = None
    data: Dict[str, object] = field(default_factory=dict)
    chaos_faults_injected: int = 0
    """Every fault the campaign's one chaos engine injected, on any
    executor."""
    engine_stats: Optional[Dict[str, object]] = None
    """Cumulative :class:`~repro.engine.EngineMetrics` of the campaign's
    executor (``None`` when the campaign ran without one)."""
    quality: Dict[str, Dict[str, object]] = field(default_factory=dict)
    """Per-experiment data-quality annotations: fleet coverage when a
    health tracker supervises the campaign, or the per-cell ``planner``
    trial accounting when an adaptive config drives it."""
    health: Optional[Dict[str, object]] = None
    """Fleet health summary
    (:meth:`~repro.health.HealthTracker.as_dict`) when supervised."""
    interrupted: bool = False
    """The run was stopped by SIGTERM/SIGINT (graceful interruption):
    everything committed so far is checkpointed and ``resume=True``
    picks up from the manifest."""
    not_run: List[str] = field(default_factory=list)
    """Experiments never attempted because the run was interrupted."""

    @property
    def succeeded(self) -> bool:
        """Whether every experiment *attempted this run* produced data
        (resume-skips, including previously-failed ones, don't count
        against it).  An interrupted run never counts as succeeded --
        it is resumable, not finished."""
        return not self.failures and not self.interrupted

    def summary_lines(self) -> List[str]:
        """One line per experiment outcome."""
        lines = []
        for name in self.skipped:
            lines.append(f"  {name}: skipped (already completed, resumed)")
        for name in self.skipped_failed:
            lines.append(
                f"  {name}: skipped (failed non-transiently in a previous "
                "run; use retry_failed to retry)"
            )
        for name in self.completed:
            attempts = self.attempts.get(name, 1)
            suffix = f" after {attempts} attempts" if attempts > 1 else ""
            if name in self.corrupt_rerun:
                suffix += " (stored copy failed integrity check; re-run)"
            quality = self.quality.get(name) or {}
            quarantined = quality.get("modules_quarantined") or []
            if quarantined:
                suffix += (
                    f" [degraded: {len(quarantined)} module(s) "
                    f"quarantined: {', '.join(quarantined)}]"
                )
            planner = quality.get("planner") or {}
            if planner.get("adaptive"):
                suffix += (
                    f" [adaptive: {planner['trials_run']}/"
                    f"{planner['trials_planned']} trials, "
                    f"{planner['cells_converged']}/{len(planner['cells'])} "
                    "cells converged]"
                )
            lines.append(f"  {name}: done{suffix}")
        for failure in self.failures:
            lines.append(
                f"  {failure.experiment}: FAILED ({failure.reason}, "
                f"{failure.attempts} attempts) {failure.error}"
            )
        for name in self.not_run:
            lines.append(f"  {name}: not run (campaign interrupted)")
        if self.interrupted:
            lines.append(
                "  campaign interrupted; completed work is checkpointed "
                "-- re-run with --resume to continue"
            )
        return lines


class Campaign:
    """Runs and persists a set of figure experiments, failure-isolated."""

    def __init__(
        self,
        scope: CharacterizationScope,
        store: Optional[ResultStore] = None,
        retry: Optional[RetryPolicy] = None,
        time_budget_s: Optional[float] = None,
        chaos: Optional["ChaosConfig"] = None,  # noqa: F821
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        executor: Optional["ExecutorBase"] = None,  # noqa: F821
        health: Optional[HealthTracker] = None,
        adaptive: Optional[AdaptiveConfig] = None,
    ):
        if time_budget_s is not None and time_budget_s <= 0:
            raise ConfigurationError("time budget must be positive")
        if adaptive is not None and executor is None:
            raise ConfigurationError(
                "adaptive campaigns need an engine executor"
            )
        self._scope = scope
        self._store = store
        self._retry = retry if retry is not None else RetryPolicy()
        self._time_budget_s = time_budget_s
        self._chaos = chaos
        self._sleep = sleep
        self._clock = clock
        self._executor = executor
        self._health = health
        self._adaptive = adaptive

    @property
    def scope(self) -> CharacterizationScope:
        """The device/test scope in force."""
        return self._scope

    @property
    def retry(self) -> RetryPolicy:
        """The transient-fault retry policy in force."""
        return self._retry

    @property
    def health(self) -> Optional[HealthTracker]:
        """The fleet supervisor, when one is attached."""
        return self._health

    @property
    def adaptive(self) -> Optional[AdaptiveConfig]:
        """The adaptive-planning knobs, when attached."""
        return self._adaptive

    def run(
        self,
        experiments: Sequence[str] = ("fig3", "fig6", "fig10"),
        resume: bool = False,
        retry_failed: bool = False,
    ) -> CampaignResult:
        """Execute the named experiments in order.

        With ``resume=True`` (requires a store) experiments already
        recorded as completed in the store's campaign manifest are
        reloaded from disk instead of re-run -- after their content
        checksums verify; a damaged artifact is re-run instead.
        Experiments the previous run recorded as failed for a
        *non-transient* cause are skipped (no retry budget wasted on a
        deterministic error) unless ``retry_failed=True``.
        """
        check_experiments(experiments)
        if resume and self._store is None:
            raise ExperimentError("resume requires a result store")

        result = CampaignResult()
        config = self._scope.benches[0].module.config
        # An engine can outlive one campaign run: this run's record is
        # what its counters gain from here on.
        engine_before = None
        if self._executor is not None:
            metrics = self._executor.metrics
            engine_before = replace(metrics, stages=dict(metrics.stages))

        harness = None
        store = self._store
        lock = (
            self._store.locked()
            if self._store is not None
            else contextlib.nullcontext()
        )
        with lock:
            if self._store is not None:
                # Single writer established: any temp files still lying
                # around are debris from a hard-killed predecessor.
                self._store.clean_stale_tmp()
                if not resume:
                    self._store.clear_journal()
            if self._chaos is not None:
                from ..chaos import ChaosHarness

                harness = ChaosHarness(self._chaos)
                harness.install_all(self._scope.benches)
                chaos_touches_store = (
                    self._chaos.result_corruption_names
                    or self._chaos.store_enospc_names
                    or self._chaos.store_torn_write_names
                    or self._chaos.store_partial_sidecar_names
                )
                if store is not None and chaos_touches_store:
                    from ..chaos import ChaoticStore

                    store = ChaoticStore(store, harness.engine)
            manifest: Optional[CampaignManifest] = None
            if self._store is not None:
                manifest = self._prepare_manifest(
                    experiments, config, resume, result, retry_failed
                )
            # Every executor decides rig faults on the harnessed benches
            # above; the pool also needs the profile for its worker
            # kills.  The executor's chaos_profile context restores the
            # previous profile in a finally block, so an executor-raised
            # error can never leave it pointing at this campaign's.
            swap = (
                self._executor.chaos_profile(self._chaos)
                if self._chaos is not None and self._executor is not None
                else contextlib.nullcontext()
            )
            try:
                with swap:
                    self._drive(experiments, result, manifest, store, config)
            except KeyboardInterrupt:
                # Graceful interruption (SIGTERM/SIGINT translated by
                # the CLI, or a raised KeyboardInterrupt): everything
                # committed so far is already checkpointed; abandon the
                # in-flight work, close the pool, and report a
                # resumable partial result instead of unwinding.
                result.interrupted = True
                if self._executor is not None:
                    with contextlib.suppress(Exception):
                        self._executor.close()
            finally:
                if harness is not None:
                    result.chaos_faults_injected = (
                        harness.engine.stats.total_injected
                    )
                    harness.uninstall()
            # Retried figures commit late; report in requested order.
            order = list(experiments).index
            result.completed.sort(key=order)
            result.failures.sort(key=lambda failure: order(failure.experiment))
            result.data = {
                name: result.data[name]
                for name in experiments
                if name in result.data
            }
            if result.interrupted:
                accounted = (
                    set(result.skipped)
                    | set(result.skipped_failed)
                    | set(result.completed)
                    | {failure.experiment for failure in result.failures}
                )
                result.not_run = [
                    name for name in experiments if name not in accounted
                ]
                if manifest is not None:
                    with contextlib.suppress(Exception):
                        self._store.save_manifest(manifest)
            self._finish_run(result, config, resume, engine_before)
        return result

    def _finish_run(
        self,
        result: CampaignResult,
        config,
        resume: bool,
        engine_before: Optional[EngineMetrics],
    ) -> None:
        """Engine-stats persistence and health summary for one run.

        ``result.engine_stats`` is this run's engine record: what the
        engine's counters gained since ``engine_before``.  The stored
        ``engine-stats`` covers the whole store: a resumed run adds its
        counters to the record the earlier runs left, so a no-op resume
        does not erase the work they did.
        """
        if self._executor is not None:
            metrics = self._executor.metrics
            run = metrics.since(engine_before)
            if self._health is not None:
                # The tracker's totals, not engine counters: the run
                # record and the engine's own report both carry them.
                for record in (metrics, run):
                    record.breaker_trips = self._health.breaker_trips
                    record.modules_quarantined = len(
                        self._health.quarantined_serials()
                    )
            result.engine_stats = run.as_dict()
            if self._store is not None:
                stored = result.engine_stats
                if resume and self._store.has("engine-stats"):
                    # A damaged earlier record is replaced, not fatal.
                    with contextlib.suppress(ResultCorruptionError):
                        total = EngineMetrics.from_dict(stored)
                        total.merge(EngineMetrics.from_dict(
                            self._store.load("engine-stats")
                        ))
                        stored = total.as_dict()
                self._store.save(
                    "engine-stats",
                    stored,
                    config=config,
                    notes="trial-engine metrics for this campaign",
                )
        if self._health is not None:
            result.health = self._health.as_dict()
        if self._store is not None:
            result.stored_at = self._store.directory

    def _drive(
        self,
        experiments: Sequence[str],
        result: CampaignResult,
        manifest: Optional[CampaignManifest],
        store,
        config,
    ) -> None:
        """The campaign loop: one source settles figures into one sink.

        The sink commits each settled figure (or records its failure)
        the moment it arrives, so a crash loses at most the figures
        still in flight.  A figure whose run leaked a transient fault
        -- or, under health supervision, lost its bench -- stays
        unsettled and then runs through the retry pass.
        """
        pending = [
            name
            for name in experiments
            if name not in result.skipped and name not in result.skipped_failed
        ]
        unsettled: Dict[str, Exception] = {}

        def sink(name: str, outcome, quality=None) -> None:
            if isinstance(outcome, TransientInfrastructureError) or (
                self._health is not None
                and isinstance(outcome, PersistentBenchError)
            ):
                unsettled[name] = outcome  # re-run by the retry pass
                return
            if quality is not None:
                result.quality[name] = quality
            if isinstance(outcome, Exception):
                outcome = _failure(name, "error", 1, outcome)
            if not isinstance(outcome, ExperimentFailure):
                data, attempts = outcome
                try:
                    if manifest is not None:
                        self._commit_experiment(
                            name, data, manifest, store, config, quality
                        )
                except Exception as exc:  # noqa: BLE001
                    # The data is fine but the disk is not: its own
                    # reason, so resume (which skips only "error")
                    # re-runs it once the store is repaired.
                    outcome = _failure(name, "store-error", attempts, exc)
                else:
                    result.data[name] = data
                    result.attempts[name] = attempts
                    result.completed.append(name)
                    return
            if (
                outcome.reason == "retries-exhausted"
                and self._health is not None
            ):
                self._health.record_retry_exhaustion()
            result.failures.append(outcome)
            result.attempts[name] = outcome.attempts
            self._record_failure(manifest, outcome)

        if self._adaptive is not None:
            self._one_at_a_time(pending, sink, self._adaptive_run(), {})
        else:
            self._stream(pending, sink)
        self._one_at_a_time(
            [name for name in pending if name in unsettled],
            sink,
            lambda program: (program.run(self._executor), {}),
            unsettled,
        )

    def _stream(self, names: Sequence[str], emit: Callable) -> None:
        """Every figure's plans as one stream through the executor.

        Health supervision probes once, up front: the stream runs on
        the scope it leaves, and every figure carries that quality
        annotation.  Each figure settles the moment its last plan
        does, strictly in figure order, while later figures' plans are
        still executing.
        """
        scope, quality = self._scoped()
        if scope is None:
            for name in names:
                emit(name, _no_healthy_modules(name), quality)
            return
        programs = []
        for name in names:
            try:
                programs.append(EXPERIMENT_PROGRAMS[name](scope))
            except Exception as exc:  # noqa: BLE001 -- isolate the sweep
                emit(name, exc, quality)

        def settled(name: str, outcome: Tuple[str, object]) -> None:
            status, value = outcome
            emit(name, (value, 1) if status == "ok" else value, quality)

        CampaignScheduler(self._executor or SerialExecutor()).run(
            programs, on_program=settled
        )

    def _one_at_a_time(
        self,
        names: Sequence[str],
        emit: Callable,
        run: Callable,
        failed: Dict[str, Exception],
    ) -> None:
        """Each figure in turn under the retry policy and time budget,
        on the scope a fresh health probe leaves.

        ``run(program)`` returns the figure's data and the quality
        keys it adds to supervision's; ``failed`` maps a figure to the
        fault its streamed run died of.
        """
        for name in names:
            scope, quality = self._scoped()
            if scope is None:
                emit(name, _no_healthy_modules(name), quality)
                continue
            # Built inside the retried call: a transient fault raised
            # while building the program is retried like one raised
            # while running it.
            settled = self._run_one(
                name,
                lambda: run(EXPERIMENT_PROGRAMS[name](scope)),
                failed.get(name),
            )
            if isinstance(settled, ExperimentFailure):
                emit(name, settled, quality)
                continue
            (data, added), attempts = settled
            emit(name, (data, attempts), {**(quality or {}), **added} or None)

    def _adaptive_run(self) -> Callable:
        """A figure's corner matrix in CI-targeted planner rounds.

        Every completed round appends an ``adaptive-round`` journal
        record (``simra-dram repair`` ignores unknown events, so these
        are progress breadcrumbs for a killed run), and each figure
        settles with a ``planner`` quality annotation carrying the
        per-cell trial accounting.  A transient fault re-plans the
        figure from scratch under the retry policy, so the committed
        artifact is still the planner's.
        """

        def journal_round(
            program: str, round_index: int, allocation: Dict[int, int]
        ) -> None:
            if self._store is None:
                return
            with contextlib.suppress(Exception):
                self._store.journal_append(
                    {
                        "event": "adaptive-round",
                        "experiment": program,
                        "round": round_index,
                        "allocation": {
                            str(step): int(count)
                            for step, count in sorted(allocation.items())
                        },
                    }
                )

        planner = self._adaptive.planner(
            self._executor, on_round=journal_round
        )

        def run(program):
            outcome = planner.run_program(program)
            return outcome.value, {"planner": outcome.planner_dict()}

        return run

    def _commit_experiment(
        self, name: str, data, manifest: CampaignManifest, store, config,
        quality: Optional[Dict[str, object]] = None,
    ) -> None:
        """Durably persist one finished experiment.

        Write-ahead discipline: journal the intent, write the artifact
        atomically (fsync before rename), update the manifest, then
        journal completion.  An intent without a matching done entry
        marks the artifact as suspect for ``simra-dram repair``.
        """
        self._store.journal_append(
            {"event": "commit-intent", "experiment": name}
        )
        store.save(
            name,
            storable(data),
            config=config,
            notes=f"campaign experiment {name}",
            quality=quality,
        )
        if name not in manifest.completed:
            manifest.completed.append(name)
        manifest.failures.pop(name, None)
        self._store.save_manifest(manifest)
        self._store.journal_append(
            {"event": "commit-done", "experiment": name}
        )

    def _scoped(self):
        """The (possibly degraded) scope for the figures about to run.

        Without a health tracker this is the full scope.  With one,
        every bench is probed first; quarantined modules leave the
        scope and the returned quality annotation records exactly what
        was excluded.  Returns ``(None, quality)`` when no module is
        healthy.
        """
        if self._health is None:
            return self._scope, None
        healthy = self._probe_benches()
        total = len(self._scope.benches)
        quarantined = self._health.quarantined_serials()
        quality = {
            "supervised": True,
            "modules_total": total,
            "modules_active": [b.module.serial for b in healthy],
            "modules_quarantined": list(quarantined),
            "coverage": (len(healthy) / total) if total else 1.0,
        }
        if not healthy:
            return None, quality
        if len(healthy) == total:
            return self._scope, quality
        # Safe restriction: group sampling and measurement noise are
        # serial-keyed, so the surviving modules' data is bit-identical
        # to a run scoped to them from the start.
        return replace(self._scope, benches=healthy), quality

    def _probe_benches(self) -> List:
        """Probe every bench with a NOP program, feeding the tracker.

        The probe loop per bench is bounded by its breaker: repeated
        transient failures trip it (quarantine), a persistent failure
        trips it immediately, and an open breaker's cooldown is
        advanced by the very ``admits`` consultations made here -- so
        a quarantined module gets a half-open re-probe a few
        experiments later and rejoins the fleet if its rig recovered.
        """
        probe = ProgramBuilder().nop().build()
        healthy = []
        for bench in self._scope.benches:
            serial = bench.module.serial
            self._health.register(serial)
            admitted = False
            while self._health.admits(serial):
                try:
                    bench.run(probe)
                except PersistentBenchError:
                    self._health.record_persistent(serial)
                    break
                except TransientInfrastructureError:
                    self._health.record_transient(serial)
                    continue
                self._health.record_success(serial)
                admitted = True
                break
            if admitted:
                healthy.append(bench)
        return healthy

    def _record_failure(
        self,
        manifest: Optional[CampaignManifest],
        failure: ExperimentFailure,
    ) -> None:
        """Checkpoint a failure so resume can skip or retry it."""
        if self._store is None or manifest is None:
            return
        manifest.failures[failure.experiment] = {
            "reason": failure.reason,
            "attempts": failure.attempts,
            "error": failure.error,
            "chain": list(failure.chain),
        }
        self._store.save_manifest(manifest)

    def _fingerprint(self, config) -> dict:
        """Config identity plus the scope knobs that shape the data.

        Resuming with a different ``--groups``/``--trials`` (or bank/
        subarray selection) would mix incompatible statistics, so those
        ride along with the ``SimulationConfig`` fingerprint.
        """
        fingerprint = dict(config.fingerprint())
        fingerprint.update(
            modules=len(self._scope.benches),
            banks=list(self._scope.banks),
            subarrays=list(self._scope.subarrays),
            groups_per_size=self._scope.groups_per_size,
            trials=self._scope.trials,
        )
        if self._adaptive is not None:
            # Adaptive budgets shape the data: resuming a fixed-budget
            # store adaptively (or vice versa, or with different
            # knobs) would mix incompatible statistics.
            fingerprint["adaptive"] = self._adaptive.as_dict()
        return fingerprint

    def _prepare_manifest(
        self,
        experiments: Sequence[str],
        config,
        resume: bool,
        result: CampaignResult,
        retry_failed: bool,
    ) -> CampaignManifest:
        """Load or start the store's checkpoint; fill resumable skips."""
        fingerprint = self._fingerprint(config)
        serials = [bench.module.serial for bench in self._scope.benches]
        reader = getattr(self._store, "reader", self._store)
        manifest = reader.load_manifest() if resume else None
        if manifest is not None:
            if manifest.fingerprint != fingerprint:
                raise ExperimentError(
                    "cannot resume: the stored campaign ran with a different "
                    f"configuration ({manifest.fingerprint} vs {fingerprint})"
                )
            for name in experiments:
                if name in manifest.completed and reader.has(name):
                    try:
                        result.data[name] = reader.load(name)
                    except ResultCorruptionError:
                        # Damaged after a clean write (bit rot, partial
                        # overwrite): don't trust it -- re-run.
                        result.corrupt_rerun.append(name)
                        manifest.completed.remove(name)
                        if self._health is not None:
                            self._health.record_checksum_mismatch()
                        continue
                    result.skipped.append(name)
            if not retry_failed:
                for name in experiments:
                    failure = manifest.failures.get(name)
                    if (
                        failure is not None
                        and failure.get("reason") == "error"
                        and name not in result.skipped
                    ):
                        # A non-transient failure is deterministic:
                        # re-running it would waste the retry budget.
                        result.skipped_failed.append(name)
            manifest.planned = list(experiments)
            if not manifest.serials:
                manifest.serials = serials
        else:
            manifest = CampaignManifest(
                planned=list(experiments),
                completed=[],
                fingerprint=fingerprint,
                serials=serials,
            )
        self._store.save_manifest(manifest)
        return manifest

    def _run_one(
        self,
        name: str,
        call: Callable[[], object],
        failed: Optional[Exception] = None,
    ) -> Union[Tuple[object, int], ExperimentFailure]:
        """``call()`` under the retry policy and time budget.

        ``failed`` is the fault the figure's streamed run died of: that
        run counts as attempt 1.
        """
        started = self._clock()
        attempt = 0 if failed is None else 1
        while True:
            if isinstance(failed, TransientInfrastructureError):
                elapsed = self._clock() - started
                if attempt >= self._retry.max_attempts:
                    return _failure(
                        name, "retries-exhausted", attempt, failed, elapsed
                    )
                if (
                    self._time_budget_s is not None
                    and elapsed >= self._time_budget_s
                ):
                    return _failure(
                        name, "time-budget", attempt, failed, elapsed
                    )
                draw = rng.generator("campaign-backoff", name, attempt).random()
                self._sleep(self._retry.delay_s(attempt - 1, draw))
            attempt += 1
            try:
                return call(), attempt
            except TransientInfrastructureError as exc:
                failed = exc
            except Exception as exc:  # noqa: BLE001 -- isolate the sweep
                return _failure(
                    name, "error", attempt, exc, self._clock() - started
                )

    def render(self, result: CampaignResult) -> str:
        """Human-readable report of a campaign's results."""
        sections: List[str] = []
        for name in result.data:
            sections.append(_render_experiment(name, result.data[name]))
        for failure in result.failures:
            lines = [f"{failure.experiment}: FAILED ({failure.reason}, "
                     f"{failure.attempts} attempts, {failure.elapsed_s:.1f} s)"]
            lines.extend(f"  {link}" for link in failure.chain)
            sections.append("\n".join(lines))
        return "\n\n".join(sections)


def _no_healthy_modules(name: str) -> ExperimentFailure:
    return _failure(
        name,
        "no-healthy-modules",
        0,
        NoHealthyModulesError("every module in the scope is quarantined"),
    )


def _render_experiment(name: str, data) -> str:
    """Best-effort rendering of one experiment's data structure."""
    from .stats import DistributionSummary

    if not isinstance(data, dict) or not data:
        return f"{name}: {data!r}"
    sample = next(iter(data.values()))
    if isinstance(sample, dict) and sample and isinstance(
        next(iter(sample.values())), DistributionSummary
    ):
        blocks = []
        for key, cell in data.items():
            rows = {str(inner): summary for inner, summary in cell.items()}
            blocks.append(
                format_distribution_table(f"{name} [{key}] (%)", rows)
            )
        return "\n".join(blocks)
    if isinstance(sample, dict):
        # Possibly nested one level deeper (fig7) or plain series.
        inner_sample = next(iter(sample.values())) if sample else None
        if isinstance(inner_sample, dict):
            blocks = []
            for key, cell in data.items():
                flattened = {}
                for mid, leaf in cell.items():
                    if isinstance(leaf, dict):
                        for inner, value in leaf.items():
                            label = f"{mid} @{inner}"
                            flattened[label] = value
                    else:
                        flattened[str(mid)] = leaf
                if flattened and isinstance(
                    next(iter(flattened.values())), DistributionSummary
                ):
                    blocks.append(
                        format_distribution_table(f"{name} [{key}] (%)", flattened)
                    )
                else:
                    blocks.append(
                        format_series_table(
                            f"{name} [{key}]", {str(key): flattened}
                        )
                    )
            return "\n".join(blocks)
        series = {str(key): value for key, value in data.items()}
        return format_series_table(f"{name} (%)", series)
    if isinstance(sample, DistributionSummary):
        rows = {str(key): value for key, value in data.items()}
        return format_distribution_table(f"{name} (%)", rows)
    return f"{name}: {data!r}"
