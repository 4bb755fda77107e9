"""Per-layer instrumentation for the trial-execution engine.

Every executor accounts the same quantities -- plans and tasks
executed, trials measured, APA programs pushed through the bender,
cells audited, wall-time per pipeline stage, and worker occupancy --
so ``simra-dram stats`` can compare runs across executors and stored
campaign results carry a machine-readable cost record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict


@dataclass
class EngineMetrics:
    """Structured counters for one executor (cumulative across plans)."""

    executor: str = ""
    plans: int = 0
    tasks: int = 0
    trials: int = 0
    apa_programs: int = 0
    """APA programs issued: one per task probe plus one per fallback
    trial.  A regime-gated probe resolves its semantic from the bank's
    decision table without replaying cells; it still counts."""
    cells: int = 0
    workers: int = 1
    """Workers that ran the work: 1 in-process; on the pool, the
    workers that received a frame in the batch."""
    environment_s: float = 0.0
    execute_s: float = 0.0
    reduce_s: float = 0.0
    wall_s: float = 0.0
    busy_s: float = 0.0
    """Summed worker compute time (== execute_s for in-process runs)."""
    chaos_faults_injected: int = 0
    """Faults injected by worker-side chaos harnesses (parallel runs)."""
    breaker_trips: int = 0
    """Circuit-breaker trips observed by the supervising health layer."""
    modules_quarantined: int = 0
    """Modules excluded from the scope by quarantine."""
    tasks_resharded: int = 0
    """Tasks re-issued after their worker died mid-slice."""
    worker_deaths: int = 0
    """Workers lost mid-run (EOF or a socket error: SIGKILL, OOM,
    crash)."""
    worker_bench_reuses: int = 0
    """Shards served by a worker's cached bench instead of a rebuild."""
    bytes_shipped: int = 0
    """Columnar result bytes shipped up from the workers."""
    dispatches: int = 0
    """``run-slice`` frames sent to workers (parent round trips; a
    frame re-sent after a worker death counts again)."""
    bytes_shipped_down: int = 0
    """Columnar task-spec bytes shipped down to workers."""
    pipelined_plans: int = 0
    """Plans executed through the campaign scheduler's plan stream."""
    pipeline_wall_s: float = 0.0
    """Wall-clock spent inside scheduler streams."""
    pipeline_busy_s: float = 0.0
    """Summed compute time of the plans within scheduler streams."""
    audit_mismatches: int = 0
    """Artifacts flagged by a result-integrity audit."""
    rounds: int = 0
    """Adaptive-planner rounds executed."""
    cells_converged: int = 0
    """Corner-matrix cells that reached the target CI width early."""
    trials_saved: int = 0
    """Trials the adaptive planner skipped versus its fixed budget."""
    stages: Dict[str, float] = field(default_factory=dict)
    """Optional extra per-stage wall-times (e.g. ``probe``/``fuse``)."""

    @property
    def executor_busy_fraction(self) -> float:
        """Fraction of the pool busy across an executor's *whole life*.

        ``busy_s / (wall_s * workers)`` where ``wall_s`` spans every
        plan the executor ran, including the gaps between plans a
        sequential campaign leaves the pool idle in -- which is why a
        pipelined campaign can report a tiny busy fraction (0.016 on
        the CI shape) next to a high :attr:`pipeline_occupancy`
        (0.96): the two denominators measure different windows.
        Payloads stored before this name carry it as ``occupancy``.
        """
        capacity = self.wall_s * max(1, self.workers)
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.busy_s / capacity)

    @property
    def pipeline_occupancy(self) -> float:
        """Pool occupancy *within* pipelined scheduler batches only.

        ``pipeline_busy_s / (pipeline_wall_s * workers)`` -- the
        denominator counts only the wall-clock spent inside scheduler
        batches, so this measures how well the pipelined scheduler
        packs the pool, not how often the campaign used it (that is
        :attr:`executor_busy_fraction`).
        """
        capacity = self.pipeline_wall_s * max(1, self.workers)
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.pipeline_busy_s / capacity)

    def add_stage(self, name: str, seconds: float) -> None:
        """Accumulate an extra named stage wall-time."""
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def merge(
        self, other: "EngineMetrics", skip_windows: bool = False
    ) -> None:
        """Fold another metrics record into this one (counters add).

        ``skip_windows=True`` leaves the wall-clock window fields
        (``wall_s`` / ``execute_s``) alone: a pipelined batch prepares
        every plan up front, so the per-plan windows overlap and
        summing them would count the same seconds once per plan (the
        129 s-for-a-2 s-batch artifact).  The batch owner adds its
        single non-overlapping window instead.
        """
        for name in _COUNTERS:
            if not (skip_windows and name in _WINDOWS):
                setattr(self, name, getattr(self, name) + getattr(other, name))
        self.workers = max(self.workers, other.workers)
        for name, seconds in other.stages.items():
            self.add_stage(name, seconds)

    def since(self, earlier: "EngineMetrics") -> "EngineMetrics":
        """The counters gained since an ``earlier`` copy of this record.

        Counters and stage times subtract; ``workers`` and ``executor``
        are states, not counts, and keep their current values.
        """
        delta = replace(self, stages={})
        for name in _COUNTERS:
            setattr(delta, name, getattr(self, name) - getattr(earlier, name))
        for name, seconds in self.stages.items():
            gained = seconds - earlier.stages.get(name, 0.0)
            if gained:
                delta.stages[name] = gained
        return delta

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineMetrics":
        """Rebuild a record from a stored :meth:`as_dict` payload.

        Keys naming no field are ignored: the computed properties
        (stored next to the counters they derive from, ``occupancy``
        being the old name of executor_busy_fraction) and counters
        older stores carry that the engine no longer keeps.
        """
        metrics = cls()
        for key, value in payload.items():
            if key.startswith("stage_") and key.endswith("_s"):
                metrics.add_stage(key[len("stage_"):-2], float(value))
            elif key in _SCALARS:
                setattr(metrics, key, value)
        return metrics

    def as_dict(self) -> Dict[str, object]:
        """Plain-JSON form (what campaign stores persist)."""
        payload: Dict[str, object] = {
            name: getattr(self, name) for name in _SCALARS
        }
        payload["executor_busy_fraction"] = self.executor_busy_fraction
        payload["pipeline_occupancy"] = self.pipeline_occupancy
        for name, seconds in sorted(self.stages.items()):
            payload[f"stage_{name}_s"] = seconds
        return payload

    def render(self) -> str:
        """Human-readable stats report."""
        lines = [
            f"engine stats ({self.executor or 'unknown'} executor)",
            f"  plans executed    : {self.plans}",
            f"  tasks executed    : {self.tasks}",
            f"  trials executed   : {self.trials}",
            f"  APA programs      : {self.apa_programs}",
            f"  cells audited     : {self.cells}",
            f"  workers           : {self.workers}",
            f"  wall time         : {self.wall_s:.3f} s",
            f"    environment     : {self.environment_s:.3f} s",
            f"    execute         : {self.execute_s:.3f} s",
            f"    reduce          : {self.reduce_s:.3f} s",
        ]
        for name, seconds in sorted(self.stages.items()):
            lines.append(f"    {name:<15} : {seconds:.3f} s")
        lines.append(
            f"  executor busy fraction: {self.executor_busy_fraction:.1%}"
        )
        if self.chaos_faults_injected:
            lines.append(
                f"  worker chaos faults: {self.chaos_faults_injected}"
            )
        health = [
            ("breaker trips", self.breaker_trips),
            ("modules quarantined", self.modules_quarantined),
            ("tasks re-sharded", self.tasks_resharded),
            ("worker deaths", self.worker_deaths),
            ("audit mismatches", self.audit_mismatches),
        ]
        if any(count for _, count in health):
            lines.append("  fleet health")
            for label, count in health:
                lines.append(f"    {label:<18}: {count}")
        if self.pipelined_plans or self.bytes_shipped or self.dispatches:
            # Only non-zero counters print: a serial, non-pipelined run
            # should not render a wall of zero-valued scheduler lines.
            lines.append("  scheduler")
            if self.worker_bench_reuses:
                lines.append(
                    f"    bench reuses      : {self.worker_bench_reuses}"
                )
            if self.bytes_shipped:
                lines.append(f"    bytes shipped     : {self.bytes_shipped}")
            if self.dispatches:
                lines.append(f"    dispatches        : {self.dispatches}")
                lines.append(
                    f"    bytes shipped down: {self.bytes_shipped_down}"
                )
            if self.pipelined_plans:
                lines.append(
                    f"    pipelined plans   : {self.pipelined_plans}"
                )
                lines.append(
                    f"    pipeline occupancy: {self.pipeline_occupancy:.1%}"
                )
        if self.rounds or self.cells_converged or self.trials_saved:
            lines.append("  adaptive planner")
            lines.append(f"    rounds            : {self.rounds}")
            lines.append(f"    cells converged   : {self.cells_converged}")
            lines.append(f"    trials saved      : {self.trials_saved}")
        return "\n".join(lines)


_SCALARS = tuple(f.name for f in fields(EngineMetrics) if f.name != "stages")
"""Every field but ``stages``, which stores as ``stage_*_s`` keys."""
_COUNTERS = tuple(
    f.name
    for f in fields(EngineMetrics)
    if isinstance(f.default, (int, float)) and f.name != "workers"
)
"""Fields that add under :meth:`EngineMetrics.merge`."""
_WINDOWS = ("wall_s", "execute_s")


def render_stats_dict(payload: Dict[str, object]) -> str:
    """Render a stored :meth:`EngineMetrics.as_dict` payload."""
    return EngineMetrics.from_dict(payload).render()
