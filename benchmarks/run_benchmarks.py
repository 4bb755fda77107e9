#!/usr/bin/env python
"""Engine benchmark entry point.

Times the representative figure sweep on every executor, verifies the
determinism contract, records the fused-parallel worker-scaling curve, and
writes ``BENCH_engine.json`` at the repository root (the CI artifact).
Equivalent to ``simra-dram bench``, plus a ``provenance`` stamp: git
sha, a content hash of the measured ``src/`` and ``benchmarks/`` files,
usable CPUs, Python and numpy versions, and the run's scale.

With ``--floors benchmarks/perf_floors.json`` the run additionally
acts as a perf-regression gate: it fails if any executor's speedup
over serial drops below its stored floor times the tolerance.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py
    PYTHONPATH=src python benchmarks/run_benchmarks.py --columns 512 --trials 16
    PYTHONPATH=src python benchmarks/run_benchmarks.py --floors benchmarks/perf_floors.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine.benchmark import (  # noqa: E402
    DEFAULT_EXECUTORS,
    run_campaign_benchmark,
    run_engine_benchmark,
    run_planner_benchmark,
    write_benchmark_json,
)
from repro.engine.executors import available_cpu_count  # noqa: E402


def check_floors(report, floors_path: Path) -> int:
    """Compare measured speedups against the stored floors.

    Returns the number of violations.  Floors apply to the speedup
    ratio (executor vs serial), which is far more stable across
    machines than absolute wall-times; the tolerance absorbs the
    remaining run-to-run noise.  Worker-scaling floors (the
    ``worker_scaling`` section) gate on the fused-parallel executor's
    scaling curve; they are skipped -- with a printed note -- on
    machines without enough usable CPUs to make the measurement
    meaningful.
    """
    floors = json.loads(floors_path.read_text())
    tolerance = float(floors.get("tolerance", 0.75))
    cpus = available_cpu_count()
    violations = 0
    for name, floor in floors.get("min_speedup", {}).items():
        measured = report.speedup.get(name)
        if measured is None:
            print(f"floor check: {name} not benchmarked, skipping")
            continue
        threshold = float(floor) * tolerance
        verdict = "ok" if measured >= threshold else "REGRESSION"
        print(
            f"floor check: {name} speedup {measured:.2f}x vs floor "
            f"{float(floor):.2f}x (tolerance {tolerance:.0%} -> "
            f"threshold {threshold:.2f}x): {verdict}"
        )
        if measured < threshold:
            violations += 1
    violations += check_scaling_floors(
        report, floors.get("worker_scaling", {}), tolerance, cpus
    )
    return violations


def check_scaling_floors(report, scaling, tolerance: float, cpus: int) -> int:
    """Gate the worker-scaling curve (``fused-parallel@N`` keys)."""
    if not scaling:
        return 0
    curve = report.worker_scaling

    def wall(count: int):
        return curve.get(f"fused-parallel@{count}")

    violations = 0
    ratio_floor = scaling.get("min_ratio_4_over_1")
    if ratio_floor is not None:
        if cpus < 4:
            print(
                "floor check: fused-parallel@4-over-@1 ratio needs >= 4 "
                f"usable CPUs (have {cpus}), skipping"
            )
        elif wall(4) is None or wall(1) is None:
            print("floor check: scaling curve not benchmarked, skipping")
        else:
            measured = wall(1) / wall(4) if wall(4) > 0 else 1.0
            threshold = float(ratio_floor) * tolerance
            verdict = "ok" if measured >= threshold else "REGRESSION"
            print(
                f"floor check: fused-parallel@4 vs @1 {measured:.2f}x "
                f"vs floor {float(ratio_floor):.2f}x (threshold "
                f"{threshold:.2f}x): {verdict}"
            )
            if measured < threshold:
                violations += 1
    if scaling.get("monotonic"):
        counts = [int(c) for c in scaling["monotonic"]]
        if cpus < max(counts):
            print(
                f"floor check: monotonic scaling needs >= {max(counts)} "
                f"usable CPUs (have {cpus}), skipping"
            )
        elif any(wall(c) is None for c in counts):
            print("floor check: scaling curve not benchmarked, skipping")
        else:
            # Each step up the curve must not be slower than the
            # previous one by more than the tolerance allows.
            ok = all(
                wall(hi) <= wall(lo) / tolerance
                for lo, hi in zip(counts, counts[1:])
            )
            walls = ", ".join(f"@{c}={wall(c):.3f}s" for c in counts)
            print(
                f"floor check: monotonic worker scaling ({walls}): "
                + ("ok" if ok else "REGRESSION")
            )
            if not ok:
                violations += 1
    return violations


def _git(*args: str, cwd: Path = REPO_ROOT):
    try:
        done = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def tree_hash(root: Path = REPO_ROOT, paths=("src", "benchmarks")):
    """``sha256:`` of the git-tracked files under ``paths``, as on disk.

    Reads the working tree, not the index or HEAD, so a report measured
    before its commit still names the code it measured.  Untracked
    files (run outputs, caches) do not count.  ``None`` without git.
    """
    listed = _git("ls-files", "-z", "--", *paths, cwd=root)
    if listed is None:
        return None
    digest = hashlib.sha256()
    for name in sorted(filter(None, listed.split("\0"))):
        path = root / name
        content = path.read_bytes() if path.is_file() else b"<deleted>"
        digest.update(name.encode() + b"\0")
        digest.update(hashlib.sha256(content).digest())
    return "sha256:" + digest.hexdigest()


def machine_provenance() -> dict:
    """The code and machine a report was measured on."""
    import numpy

    usable = available_cpu_count()
    status = _git("status", "--porcelain", "--untracked-files=no")
    stamp = {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "tree_sha256": tree_hash(),
        "available_cpu_count": usable,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "notes": [],
    }
    if usable < 2:
        stamp["notes"].append(
            f"time-sliced: {usable} usable CPU, so parallel numbers "
            "measure time-slicing, not scaling"
        )
    return stamp


def provenance(args) -> dict:
    """:func:`machine_provenance` plus the engine run's scale."""
    return dict(
        machine_provenance(),
        scale={
            "columns": args.columns,
            "groups_per_size": args.groups,
            "trials": args.trials,
            "seed": args.seed,
            "jobs": args.jobs,
            "campaign_trials": args.campaign_trials if args.campaign else None,
            "planner_max_trials": (
                args.planner_max_trials if args.planner else None
            ),
        },
    )


def _jobs_value(text: str):
    if text.strip().lower() == "auto":
        return available_cpu_count()
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--columns", type=int, default=256)
    parser.add_argument("--groups", type=int, default=2)
    parser.add_argument("--trials", type=int, default=32)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--jobs", type=_jobs_value, default=None,
        help="worker count for parallel executors (an integer, or "
        "'auto' for the usable cgroup-aware CPU count)",
    )
    parser.add_argument(
        "--executors", nargs="+", default=list(DEFAULT_EXECUTORS),
        choices=DEFAULT_EXECUTORS,
    )
    parser.add_argument(
        "--scaling-jobs", type=int, nargs="*", default=[1, 2, 4],
        help="worker counts for the parallel scaling curve (empty to skip)",
    )
    parser.add_argument(
        "--campaign", action="store_true",
        help="also time a multi-figure campaign sequentially vs pipelined "
        "(adds the 'campaign' speedup the floors file can gate on)",
    )
    parser.add_argument(
        "--campaign-trials", type=int, default=16,
        help="trials per test for the campaign benchmark",
    )
    parser.add_argument(
        "--planner", action="store_true",
        help="also compare a fixed-budget fig9 cliff sweep against the "
        "adaptive planner at the same trial ceiling (adds the 'planner' "
        "trial-reduction ratio the floors file can gate on)",
    )
    parser.add_argument(
        "--planner-ci-target", type=float, default=0.02,
        help="CI half-width target for the planner benchmark",
    )
    parser.add_argument(
        "--planner-max-trials", type=int, default=32,
        help="per-cell trial ceiling (and the fixed-budget baseline) "
        "for the planner benchmark",
    )
    parser.add_argument(
        "--floors", type=Path, default=None,
        help="perf_floors.json path; fail on speedups below floor*tolerance",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_engine.json")
    )
    args = parser.parse_args(argv)

    report = run_engine_benchmark(
        columns=args.columns,
        groups_per_size=args.groups,
        trials=args.trials,
        seed=args.seed,
        executors=args.executors,
        jobs=args.jobs,
        scaling_jobs=tuple(args.scaling_jobs),
    )
    if args.campaign:
        report.campaign = run_campaign_benchmark(
            columns=args.columns,
            groups_per_size=args.groups,
            trials=args.campaign_trials,
            seed=args.seed,
            jobs=args.jobs,
        )
        report.speedup["campaign"] = report.campaign["speedup"]
    if args.planner:
        report.planner = run_planner_benchmark(
            seed=args.seed,
            ci_target=args.planner_ci_target,
            max_trials=args.planner_max_trials,
        )
        # The planner floor gates the trial-reduction ratio, not a
        # wall-time speedup: trial counts are exactly reproducible, so
        # no CPU gating or timing tolerance is needed.
        report.speedup["planner"] = report.planner["trial_reduction"]
    report.provenance = provenance(args)
    path = write_benchmark_json(report, Path(args.output))
    for line in report.summary_lines():
        print(line)
    print(f"wrote {path}")
    if not report.identical:
        return 1
    if report.campaign is not None and not report.campaign["identical"]:
        return 1
    if report.planner is not None and not (
        report.planner["converged"] and report.planner["identical"]
    ):
        return 1
    if args.floors is not None:
        if check_floors(report, args.floors):
            return 1
        return 0
    faster = any(
        report.speedup.get(name, 0.0) > 1.0
        for name in ("fused", "fused-parallel")
        if name in report.wall_s
    )
    return 0 if faster or len(report.wall_s) < 2 else 1


if __name__ == "__main__":
    sys.exit(main())
