"""Executor benchmark: one representative figure sweep per executor.

Times the same declarative plans (a section 4 activation sweep, a
section 5 MAJ3 sweep, and a section 6 Multi-RowCopy sweep) on each
requested executor, verifies the determinism contract (identical
success rates everywhere), and reports wall-times plus speedups over
the serial reference.  ``simra-dram bench`` and
``benchmarks/run_benchmarks.py`` both land here; the JSON report is
written as ``BENCH_engine.json`` at the repository root by default.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..characterization.experiment import CharacterizationScope, OperatingPoint
from ..config import SimulationConfig
from ..dram.vendor import TESTED_MODULES
from .executors import available_cpu_count, make_executor
from .kernels import ActivationKernel, MajXKernel, MultiRowCopyKernel
from .plan import TrialPlan, tasks_for_scope
from .scheduler import CampaignScheduler

DEFAULT_CAMPAIGN_FIGURES = ("fig4a", "fig9", "fig11")
"""Figures timed by the whole-campaign benchmark: one sweep from each
characterization family, dozens of small plans each -- the shape where
per-plan pool spin-up dominates and pipelining pays."""

DEFAULT_FLEET_FIGURES = (
    "fig3", "fig4a", "fig6", "fig7", "fig8", "fig9",
)
"""Figures for the fleet benchmark: a >= 6-figure campaign, enough
independent programs for two workers to stay saturated."""

DEFAULT_CAMPAIGN_JOBS = max(1, min(4, available_cpu_count()))
"""Workers for the campaign benchmark when the caller passes no jobs.

A campaign-scale pool is wider than the two-worker executor headline
-- every extra worker multiplies the per-plan spin-up the sequential
baseline pays and the persistent pool amortizes -- but it is capped at
the *usable* CPU count (cgroup/affinity aware), so a container CI
runner with a small quota measures a pool it can actually schedule
instead of oversubscribing."""


DEFAULT_EXECUTORS = ("serial", "fused", "fused-parallel")
DEFAULT_BENCH_JOBS = max(1, min(2, available_cpu_count()))
"""Workers for the fused-parallel executor when the caller passes no jobs.

Capped at the usable CPU count (``available_cpu_count`` consults
``os.process_cpu_count`` / the scheduler affinity mask, not the bare
host core count), so a 1-CPU container measures a one-worker pool it
can actually run rather than an oversubscribed two-worker one; the
worker-scaling curve still records the 2- and 4-worker points
explicitly, labeled with their worker counts."""


@dataclass
class BenchmarkReport:
    """Wall-times, metrics, and speedups of one benchmark run."""

    scale: Dict[str, int]
    plans: List[str]
    wall_s: Dict[str, float] = field(default_factory=dict)
    speedup: Dict[str, float] = field(default_factory=dict)
    """Serial wall-time divided by this executor's wall-time."""
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    worker_scaling: Dict[str, float] = field(default_factory=dict)
    """Wall-times of the fused-parallel executor at 1/2/4... workers
    (keys like ``fused-parallel@2``)."""
    identical: bool = True
    """Whether every executor produced bit-identical success rates."""
    campaign: Optional[Dict[str, object]] = None
    """Whole-campaign pipelining benchmark (see
    :func:`run_campaign_benchmark`), when requested."""
    fleet: Optional[Dict[str, object]] = None
    """Multi-worker fleet campaign benchmark (see
    :func:`run_fleet_benchmark`), when requested."""
    planner: Optional[Dict[str, object]] = None
    """Adaptive-planner benchmark (see :func:`run_planner_benchmark`),
    when requested."""
    provenance: Optional[Dict[str, object]] = None
    """Code and machine identity of the run (git sha, usable CPUs,
    Python and numpy versions, scale), when the caller stamps it."""

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "scale": self.scale,
            "cpus": available_cpu_count(),
            "plans": self.plans,
            "wall_s": self.wall_s,
            "speedup": self.speedup,
            "worker_scaling": self.worker_scaling,
            "identical": self.identical,
            "metrics": self.metrics,
        }
        if self.campaign is not None:
            document["campaign"] = self.campaign
        if self.fleet is not None:
            document["fleet"] = self.fleet
        if self.planner is not None:
            document["planner"] = self.planner
        if self.provenance is not None:
            document["provenance"] = self.provenance
        return document

    def summary_lines(self) -> List[str]:
        lines = [
            "engine benchmark "
            + ", ".join(f"{k}={v}" for k, v in self.scale.items()),
            f"  plans: {', '.join(self.plans)}",
        ]
        baseline = self.wall_s.get("serial")
        for name, wall in self.wall_s.items():
            speedup = self.speedup.get(name, 1.0)
            lines.append(
                f"  {name:<16} {wall:8.3f} s   ({speedup:5.2f}x vs serial)"
            )
        for name, wall in self.worker_scaling.items():
            speedup = baseline / wall if baseline and wall > 0 else 1.0
            lines.append(
                f"  {name:<16} {wall:8.3f} s   ({speedup:5.2f}x vs serial)"
            )
        lines.append(
            "  results bit-identical across executors: "
            + ("yes" if self.identical else "NO (DETERMINISM VIOLATION)")
        )
        if self.campaign is not None:
            lines.append(
                "campaign benchmark "
                + ", ".join(f"{k}={v}" for k, v in self.campaign["scale"].items())
            )
            lines.append(f"  figures: {', '.join(self.campaign['figures'])}")
            walls = self.campaign["wall_s"]
            for mode in ("sequential", "pipelined"):
                lines.append(f"  {mode:<15} {walls[mode]:8.3f} s")
            lines.append(
                f"  pipelining speedup: {self.campaign['speedup']:.2f}x "
                f"(occupancy {self.campaign['pipeline_occupancy']:.2f})"
            )
            lines.append(
                "  campaign results bit-identical: "
                + (
                    "yes"
                    if self.campaign["identical"]
                    else "NO (DETERMINISM VIOLATION)"
                )
            )
        if self.fleet is not None:
            lines.append(
                "fleet benchmark "
                + ", ".join(
                    f"{k}={v}" for k, v in self.fleet["scale"].items()
                )
            )
            lines.append(f"  figures: {', '.join(self.fleet['figures'])}")
            walls = self.fleet["wall_s"]
            for mode in ("pipelined", "fleet"):
                lines.append(f"  {mode:<15} {walls[mode]:8.3f} s")
            lines.append(
                f"  fleet speedup over single-pool pipelining: "
                f"{self.fleet['speedup']:.2f}x"
            )
            lines.append(
                "  fleet artifacts byte-equal to single-host store: "
                + ("yes" if self.fleet["identical"] else "NO")
            )
            lines.append(
                "  fleet store audit: "
                + ("PASS" if self.fleet["audit_passed"] else "FAIL")
            )
        if self.planner is not None:
            lines.append(
                "planner benchmark "
                + ", ".join(
                    f"{k}={v}" for k, v in self.planner["scale"].items()
                )
            )
            lines.append(f"  figure: {self.planner['figure']}")
            trials = self.planner["trials"]
            lines.append(
                f"  trials: fixed {trials['fixed']}, adaptive "
                f"{trials['adaptive']} "
                f"({self.planner['trial_reduction']:.2f}x reduction)"
            )
            lines.append(
                f"  rounds: {self.planner['rounds']}, cells converged: "
                f"{self.planner['cells_converged']}/{self.planner['cells']} "
                f"(max CI halfwidth {self.planner['max_halfwidth']:.4f} "
                f"vs target {self.planner['ci_target']:.4f})"
            )
            walls = self.planner["wall_s"]
            lines.append(
                f"  wall: fixed {walls['fixed']:.3f} s, adaptive "
                f"{walls['adaptive']:.3f} s "
                f"({self.planner['speedup']:.2f}x)"
            )
            lines.append(
                "  every cell at target CI: "
                + ("yes" if self.planner["converged"] else "NO")
            )
            lines.append(
                "  adaptive re-run bit-identical: "
                + (
                    "yes"
                    if self.planner["identical"]
                    else "NO (DETERMINISM VIOLATION)"
                )
            )
        return lines


def _representative_plans(scope: CharacterizationScope) -> List[TrialPlan]:
    """A slice of each characterization family at its best timings."""
    act_point = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
    maj_point = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
    copy_point = OperatingPoint(t1_ns=36.0, t2_ns=3.0)
    benches = list(scope.benches)
    plans = [
        TrialPlan(
            name="activation-32",
            kernel=ActivationKernel(),
            point=act_point,
            tasks=tasks_for_scope(
                scope, 32, lambda b: 32 * b.module.config.columns_per_row
            ),
            benches=benches,
        ),
        TrialPlan(
            name="maj3-32",
            kernel=MajXKernel(3),
            point=maj_point,
            tasks=tasks_for_scope(
                scope,
                32,
                lambda b: b.module.config.columns_per_row,
                bench_predicate=lambda b: b.module.profile.max_reliable_majx >= 3,
            ),
            benches=benches,
        ),
        TrialPlan(
            name="mrc-7",
            kernel=MultiRowCopyKernel(),
            point=copy_point,
            tasks=tasks_for_scope(
                scope, 8, lambda b: 7 * b.module.config.columns_per_row
            ),
            benches=benches,
        ),
    ]
    return plans


def run_engine_benchmark(
    columns: int = 256,
    groups_per_size: int = 2,
    trials: int = 32,
    seed: int = 2024,
    executors: Sequence[str] = DEFAULT_EXECUTORS,
    jobs: Optional[int] = None,
    scaling_jobs: Sequence[int] = (1, 2, 4),
) -> BenchmarkReport:
    """Time the representative sweep on each executor and compare.

    Besides the headline per-executor wall-times, the report carries a
    worker-scaling curve: the fused-parallel executor re-timed at each
    count in ``scaling_jobs`` (``fused-parallel@N`` keys), so a stored
    benchmark shows how sharding amortizes rather than a single opaque
    number.
    """
    report = BenchmarkReport(
        scale={
            "columns": columns,
            "groups_per_size": groups_per_size,
            "trials": trials,
            "seed": seed,
        },
        plans=[],
    )
    reference_rates: Optional[List[List[float]]] = None

    def timed_run(name: str, run_jobs: Optional[int]):
        # A fresh scope per executor: every strategy starts from an
        # identical cold rig, so no executor inherits warmed-up state.
        scope = CharacterizationScope.build(
            config=SimulationConfig(seed=seed, columns_per_row=columns),
            specs=TESTED_MODULES,
            modules_per_spec=1,
            groups_per_size=groups_per_size,
            trials=trials,
        )
        plans = _representative_plans(scope)
        report.plans = [plan.name for plan in plans]
        executor = make_executor(name, jobs=run_jobs)
        with executor:
            started = time.perf_counter()
            rates = [executor.run(plan).rates() for plan in plans]
            wall = time.perf_counter() - started
        return wall, rates, executor

    def check_rates(rates: List[List[float]]) -> None:
        nonlocal reference_rates
        if reference_rates is None:
            reference_rates = rates
        elif rates != reference_rates:
            report.identical = False

    for name in executors:
        run_jobs = jobs
        if run_jobs is None and name == "fused-parallel":
            run_jobs = DEFAULT_BENCH_JOBS
        wall, rates, executor = timed_run(name, run_jobs)
        report.wall_s[name] = wall
        report.metrics[name] = executor.metrics.as_dict()
        check_rates(rates)
    if "fused-parallel" in executors:
        for count in scaling_jobs:
            wall, rates, _ = timed_run("fused-parallel", count)
            report.worker_scaling[f"fused-parallel@{count}"] = wall
            check_rates(rates)
    baseline = report.wall_s.get("serial")
    for name, wall in report.wall_s.items():
        report.speedup[name] = (
            baseline / wall if baseline and wall > 0 else 1.0
        )
    return report


def run_campaign_benchmark(
    columns: int = 256,
    groups_per_size: int = 2,
    trials: int = 16,
    seed: int = 2024,
    jobs: Optional[int] = None,
    figures: Sequence[str] = DEFAULT_CAMPAIGN_FIGURES,
) -> Dict[str, object]:
    """Time a multi-figure campaign sequentially versus pipelined.

    Both runs use the fused-parallel executor on identical fresh
    scopes.  The sequential baseline reproduces the pre-scheduler
    behavior -- every plan spins up (and tears down) its own worker
    pool -- while the pipelined run keeps one persistent pool saturated
    across all figures through :class:`CampaignScheduler`.  Figure
    payloads must match exactly; the speedup is what the campaign
    floor in ``benchmarks/perf_floors.json`` gates on.
    """
    from ..characterization.campaign import EXPERIMENT_PROGRAMS

    run_jobs = DEFAULT_CAMPAIGN_JOBS if jobs is None else jobs

    def build_programs():
        scope = CharacterizationScope.build(
            config=SimulationConfig(seed=seed, columns_per_row=columns),
            specs=TESTED_MODULES,
            modules_per_spec=1,
            groups_per_size=groups_per_size,
            trials=trials,
        )
        return [EXPERIMENT_PROGRAMS[name](scope) for name in figures]

    # Sequential baseline: close() after every plan, so each one pays
    # the pool spin-up the persistent pool amortizes away.  Each
    # measured run gets its own executor, and its metrics are
    # snapshotted per run -- the stored report shows what *that* run
    # cost, not counters accumulated across the comparison.
    programs = build_programs()
    sequential_executor = make_executor("fused-parallel", jobs=run_jobs)
    sequential: Dict[str, object] = {}
    started = time.perf_counter()
    try:
        for program in programs:
            values = []
            for step in program.steps:
                values.append(
                    step.reduce(sequential_executor.run(step.plan))
                )
                sequential_executor.close()
            sequential[program.name] = program.assemble(values)
    finally:
        sequential_executor.close()
    sequential_wall = time.perf_counter() - started

    programs = build_programs()
    pipelined_executor = make_executor("fused-parallel", jobs=run_jobs)
    started = time.perf_counter()
    with pipelined_executor:
        outcome = CampaignScheduler(pipelined_executor).run(programs)
    pipelined_wall = time.perf_counter() - started
    for name, (status, value) in outcome.items():
        if status != "ok":
            raise value
    pipelined = {name: value for name, (_, value) in outcome.items()}

    return {
        "scale": {
            "columns": columns,
            "groups_per_size": groups_per_size,
            "trials": trials,
            "seed": seed,
            "jobs": run_jobs,
        },
        "figures": list(figures),
        "wall_s": {"sequential": sequential_wall, "pipelined": pipelined_wall},
        "speedup": (
            sequential_wall / pipelined_wall if pipelined_wall > 0 else 1.0
        ),
        "identical": pipelined == sequential,
        "pipeline_occupancy": pipelined_executor.metrics.pipeline_occupancy,
        "metrics": {
            "sequential": sequential_executor.metrics.as_dict(),
            "pipelined": pipelined_executor.metrics.as_dict(),
        },
    }


def run_fleet_benchmark(
    columns: int = 128,
    groups_per_size: int = 2,
    trials: int = 8,
    seed: int = 2024,
    jobs: Optional[int] = None,
    workers: int = 2,
    figures: Sequence[str] = DEFAULT_FLEET_FIGURES,
) -> Dict[str, object]:
    """Time a campaign on one pipelined pool versus a worker fleet.

    The baseline is the strongest single-host configuration: a
    :class:`~repro.characterization.campaign.Campaign` on a pipelined
    fused-parallel pool, committing to a store.  The challenger runs
    the same figures through :class:`~repro.engine.fleet.LocalFleet`
    -- the same executor over dial-in worker subprocesses --
    committing to its own store.  Beyond wall-time, the comparison
    checks the fleet's two supervision invariants: every stored
    artifact byte-equal to the single-host store, and ``audit``
    passing on the fleet store with no fleet-specific handling.
    """
    import tempfile

    from ..characterization.campaign import Campaign
    from ..characterization.store import ResultStore
    from ..health import audit_store
    from .fleet import LocalFleet

    run_jobs = DEFAULT_CAMPAIGN_JOBS if jobs is None else jobs

    def build_scope() -> CharacterizationScope:
        return CharacterizationScope.build(
            config=SimulationConfig(seed=seed, columns_per_row=columns),
            specs=TESTED_MODULES,
            modules_per_spec=1,
            groups_per_size=groups_per_size,
            trials=trials,
        )

    with tempfile.TemporaryDirectory() as tmp:
        baseline_store = ResultStore(Path(tmp) / "pipelined")
        executor = make_executor("fused-parallel", jobs=run_jobs)
        campaign = Campaign(
            build_scope(), store=baseline_store, executor=executor
        )
        started = time.perf_counter()
        with executor:
            baseline = campaign.run(list(figures))
        pipelined_wall = time.perf_counter() - started
        if not baseline.succeeded:
            raise RuntimeError(
                f"baseline campaign failed: {baseline.failures}"
            )

        fleet_store = ResultStore(Path(tmp) / "fleet")
        with LocalFleet(workers=workers) as fleet:
            fleet_campaign = Campaign(
                build_scope(), store=fleet_store, executor=fleet
            )
            started = time.perf_counter()
            result = fleet_campaign.run(list(figures))
            fleet_wall = time.perf_counter() - started
        if not result.succeeded:
            raise RuntimeError(f"fleet campaign failed: {result.failures}")

        identical = all(
            (Path(tmp) / "fleet" / f"{name}.json").read_bytes()
            == (Path(tmp) / "pipelined" / f"{name}.json").read_bytes()
            for name in figures
        )
        audit_passed = audit_store(fleet_store, sample=2, seed=0).passed

    return {
        "scale": {
            "columns": columns,
            "groups_per_size": groups_per_size,
            "trials": trials,
            "seed": seed,
            "jobs": run_jobs,
            "workers": workers,
        },
        "figures": list(figures),
        "wall_s": {"pipelined": pipelined_wall, "fleet": fleet_wall},
        "speedup": pipelined_wall / fleet_wall if fleet_wall > 0 else 1.0,
        "identical": identical,
        "audit_passed": audit_passed,
        "metrics": result.engine_stats,
    }


def run_planner_benchmark(
    columns: int = 128,
    groups_per_size: int = 2,
    seed: int = 2024,
    figure: str = "fig9",
    ci_target: float = 0.02,
    round_trials: int = 4,
    max_trials: int = 32,
) -> Dict[str, object]:
    """Fixed-budget versus adaptive planning on a cliff sweep.

    The baseline runs ``figure`` (default fig9, the MAJX voltage sweep
    whose corner matrix mixes saturated corners with success-rate
    cliffs) at a fixed ``max_trials`` budget per cell; the challenger
    runs the same corner matrix through the
    :class:`~repro.engine.planner.AdaptivePlanner` with the same
    ceiling.  The headline number is the *trial reduction* -- fixed
    trials executed over adaptive trials executed -- which the
    ``planner`` floor in ``benchmarks/perf_floors.json`` gates on;
    the run only counts if every cell actually reached the target CI
    half-width (``converged``) and a second adaptive run reproduces
    the first bit-for-bit (``identical``).  Both runs use the serial
    reference executor: the comparison measures planning, not
    execution strategy.
    """
    from ..characterization.campaign import EXPERIMENT_PROGRAMS
    from .planner import AdaptivePlanner

    def build_program():
        scope = CharacterizationScope.build(
            config=SimulationConfig(seed=seed, columns_per_row=columns),
            specs=TESTED_MODULES,
            modules_per_spec=1,
            groups_per_size=groups_per_size,
            trials=max_trials,
        )
        return EXPERIMENT_PROGRAMS[figure](scope)

    # Fixed-budget baseline: every cell runs its whole built budget.
    program = build_program()
    fixed_executor = make_executor("serial")
    started = time.perf_counter()
    with fixed_executor:
        values = [
            step.reduce(fixed_executor.run(step.plan))
            for step in program.steps
        ]
        program.assemble(values)
    fixed_wall = time.perf_counter() - started
    fixed_trials = sum(
        task.trials for step in program.steps for task in step.plan.tasks
    )

    def adaptive_run():
        program = build_program()
        executor = make_executor("serial")
        planner = AdaptivePlanner(
            executor,
            ci_target=ci_target,
            round_trials=round_trials,
            max_trials=max_trials,
            seed=seed,
        )
        with executor:
            started = time.perf_counter()
            outcome = planner.run_program(program)
            wall = time.perf_counter() - started
        return outcome, wall, executor

    outcome, adaptive_wall, adaptive_executor = adaptive_run()
    rerun, _, _ = adaptive_run()
    identical = (
        rerun.value == outcome.value
        and rerun.planner_dict() == outcome.planner_dict()
    )
    converged = all(
        cell.stop_reason in ("converged", "empty") for cell in outcome.cells
    )
    halfwidths = [
        cell.ci.halfwidth for cell in outcome.cells if cell.ci is not None
    ]

    return {
        "scale": {
            "columns": columns,
            "groups_per_size": groups_per_size,
            "seed": seed,
            "ci_target": ci_target,
            "round_trials": round_trials,
            "max_trials": max_trials,
        },
        "figure": figure,
        "wall_s": {"fixed": fixed_wall, "adaptive": adaptive_wall},
        "speedup": fixed_wall / adaptive_wall if adaptive_wall > 0 else 1.0,
        "trials": {"fixed": fixed_trials, "adaptive": outcome.trials_run},
        "trial_reduction": (
            fixed_trials / outcome.trials_run if outcome.trials_run else 1.0
        ),
        "rounds": outcome.rounds,
        "cells": len(outcome.cells),
        "cells_converged": outcome.cells_converged,
        "max_halfwidth": max(halfwidths) if halfwidths else 0.0,
        "ci_target": ci_target,
        "converged": converged,
        "identical": identical,
        "metrics": adaptive_executor.metrics.as_dict(),
    }


def write_benchmark_json(report: BenchmarkReport, path: Path) -> Path:
    """Persist the report (the CI artifact)."""
    path = Path(path)
    path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return path
