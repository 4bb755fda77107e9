#!/usr/bin/env python3
"""End-to-end benchmark: a paper campaign to audited artifacts and served figures.

Each workload repeats the user path in fresh interpreters (``rep.py``):
set up, commit all eleven figures through ``Campaign.run``, audit the
store with ``audit_store``, and cold-start the real ``simra-dram
serve`` on it.  One ``serve`` process on the first repetition's store
answers a burst of closed-loop reads after every full repetition,
beside an open-loop writer on the ``serve-readwrite`` workload.  Every
output is checked: artifact digests agree across repetitions (and with
``reference_digests.json`` at seed 2024), the audit passes, and every
served figure carries its stored ETag and a body the service renders
for it.  Times are scaled
to a reference host speed measured while each phase runs
(``common.SpeedProbe``); the stopwatch values stay in the result JSON.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload paper-campaign --seed 7 --seconds 30
    python3 benchmarks/e2e/run.py --workloads paper-campaign serve-readwrite --trace --out DIR

With ``--trace`` (or ``--trace 1``) each workload instead runs once
untraced and once with span wrappers on every layer, and reports the
per-layer metrics of ``BENCHMARK.json``; the trace itself is written
to ``DIR/<workload>.trace.jsonl``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exit status is 0 when every check passed, 1 when any failed, and 2 on
a usage error or when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    COLD_START_FIGURE,
    DEFAULT_OUT,
    FIGURES,
    HERE,
    MAX_REPS,
    MIN_REPS,
    REFERENCE_DIGESTS,
    ROOT,
    SCALES,
    SETUP_ONLY_REPS,
    WORK_ROOT,
    WORKLOADS,
    SpeedProbe,
    Workload,
    benchmark_spec,
    beyond,
    child_env,
    ensure_source,
    median,
    percentile,
    provenance,
    usable_cpus,
)

RUN_DEADLINE_S = 170.0
"""Every process of one workload run is reaped within this budget."""

REFERENCE_SEED = 2024
IMPORT_SPAWNS = 3
BURST_REQUESTS = 1000
"""So each burst's p99 has ten requests beyond it."""


class Checks:
    """Attempted operations and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(problem)
        return ok

    def fail_all(self, problems: List[str], attempted: int) -> None:
        self.attempted += attempted
        self.failures.extend(problems)


def _reap(process: subprocess.Popen, deadline: float) -> tuple:
    """Wait for ``process``; ``(exit code, peak RSS of its tree in MiB)``.

    ``os.wait4`` reports the largest resident set among the process
    and every descendant it reaped (pool workers, cold-started
    servers).  Past ``deadline`` the process is killed.
    """
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            process.kill()
            pid, status, usage = os.wait4(process.pid, 0)
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage.ru_maxrss / 1024.0
        time.sleep(0.05)


def scaled(report: Dict[str, Any], phase: str) -> float:
    """A repetition's stopwatch time of ``phase`` at the reference speed."""
    return report[phase] * report["speed"][phase]


class ReadLoad:
    """Closed-loop read bursts against one server (beside the writer on churn workloads).

    The server runs on one CPU, the client and the writer on the other
    -- the writer's cost is the program's.  A speed probe runs on the
    server's CPU, and each request's latency is scaled by the speed
    around it.  (Scaling by the client's CPU as well made ten runs'
    spread wider, not narrower: the server's work is nearly all of a
    request.)
    """

    def __init__(self, workload: Workload, store: Path, work: Path,
                 address: Tuple[str, int], server_pid: int, checks: Checks):
        from serveload import ci_figures, expected_bodies, pin_process, placement

        self.workload = workload
        self.store = store
        self.address = address
        self.checks = checks
        self.renderings = expected_bodies(store, work / "columnar", FIGURES)
        self.ci_names = ci_figures(store, FIGURES)
        self.cpus = placement()
        if self.cpus:
            pin_process(server_pid, self.cpus[1])
        self.bursts: List[Dict[str, Any]] = []
        self.lateness_s: List[float] = []

    def burst(self) -> None:
        """One burst of at least :data:`BURST_REQUESTS` requests."""
        from serveload import Writer, read_phase

        started = time.monotonic()
        writer = Writer(self.store) if self.workload.churn else None
        saved = os.sched_getaffinity(0) if self.cpus else None
        try:
            if self.cpus:
                os.sched_setaffinity(0, {self.cpus[0]})
            with SpeedProbe(self.cpus[1:] if self.cpus else None) as probe:
                if writer is not None:
                    writer.start()
                try:
                    result = read_phase(
                        *self.address, self.workload.read_burst_s, self.renderings,
                        self.ci_names, min_requests=BURST_REQUESTS,
                    )
                finally:
                    if writer is not None:
                        writer.stop()
        finally:
            if saved is not None:
                os.sched_setaffinity(0, saved)
        self.checks.fail_all(result.failures, result.attempted)
        if writer is not None:
            self.checks.fail_all(writer.failures, len(writer.lateness_s) + len(writer.failures))
            self.lateness_s += writer.lateness_s
        latency_ms = [
            1000.0 * seconds * probe.factor(ended - seconds, ended)
            for ended, seconds in result.latencies
        ]
        if not latency_ms:
            return
        elapsed_s = result.ended - result.started
        factor = probe.factor(result.started, result.ended)
        self.bursts.append({
            "p50_ms": median(latency_ms),
            "p99_ms": percentile(latency_ms, 0.99),
            "p99_beyond": beyond(len(latency_ms), 0.99),
            "rps": len(latency_ms) / (elapsed_s * factor),
            "raw_rps": len(latency_ms) / elapsed_s,
            "requests": len(latency_ms),
            "speed": factor,
            "wall_s": time.monotonic() - started,
        })

    def lag_ms(self) -> float:
        """p99 lateness of the writer against its schedule."""
        return 1000.0 * percentile(self.lateness_s, 0.99) if self.lateness_s else 0.0


class WorkloadRun:
    """One ``--workload`` invocation: repetitions, read bursts, checks."""

    def __init__(self, workload: Workload, seed: int, seconds: float, scale: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale_name = scale
        self.scale = SCALES[scale]
        self.checks = Checks()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = WORK_ROOT / "work" / f"{workload.name}-{os.getpid()}-{time.time_ns()}"
        self.work.mkdir(parents=True)
        self.cpus = usable_cpus()
        self.reps_run = 0
        self.digests: Dict[str, str] = {}
        self.planner_trials_run: Optional[int] = None
        self.samples: Dict[str, List[float]] = {}
        self.raw: Dict[str, Any] = {}
        """Stopwatch values before scaling to the reference speed."""

    def spec(self, store: Path, **overrides: Any) -> Dict[str, Any]:
        workload = self.workload
        spec = {
            "workload": workload.name,
            "seed": self.seed,
            "columns": self.scale["columns"],
            "groups": self.scale["groups"],
            "trials": workload.trials(self.scale),
            "executor": workload.executor,
            "jobs": workload.jobs,
            "adaptive": self.scale["adaptive"] if workload.adaptive else None,
            "store": str(store),
            "cold_starts": workload.cold_starts,
            "cpu": None,
            "setup_only": False,
            "trace": False,
            "trace_file": None,
        }
        spec.update(overrides)
        return spec

    def spawn(self, spec: Dict[str, Any], interactive: bool = False):
        self.reps_run += 1
        label = f"rep-{self.reps_run}"
        spec = dict(spec, report=str(self.work / f"{label}.json"))
        if len(self.cpus) >= 2:
            # Where a repetition is one process it stays on one CPU, so
            # the probe beside it measures the CPU it runs on.
            spec["cpu"] = self.cpus[self.reps_run % len(self.cpus)]
        log = open(self.work / f"{label}.log", "wb")
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec), repr(spawned)],
            stdin=subprocess.PIPE if interactive else subprocess.DEVNULL,
            stdout=subprocess.PIPE if interactive else log,
            stderr=log,
            env=child_env(),
            cwd=ROOT,
        )
        log.close()
        return process, spec

    def finish(self, process: subprocess.Popen, spec: Dict[str, Any], started: float) -> Optional[Dict[str, Any]]:
        code, rss_mb = _reap(process, self.deadline)
        report_path = Path(spec["report"])
        if code != 0 or not report_path.exists():
            log = (self.work / f"{report_path.stem}.log").read_text(errors="replace")
            self.checks.expect(False, f"repetition exited {code}: {log[-2000:]}")
            return None
        report = json.loads(report_path.read_text())
        report["rss_mb"] = rss_mb
        report["wall_s"] = time.monotonic() - started
        if not spec["setup_only"]:
            self.checks.fail_all(report["failures"], report["experiments"] + 1)
        else:
            self.checks.expect(True, "")
        return report

    def rep(self, store: Path, **overrides: Any) -> Optional[Dict[str, Any]]:
        started = time.monotonic()
        process, spec = self.spawn(self.spec(store, **overrides))
        return self.finish(process, spec, started)

    # -- checks -------------------------------------------------------------------

    def check_digests(self, reports: List[Dict[str, Any]]) -> Dict[str, str]:
        digests = reports[0]["digests"]
        for report in reports[1:]:
            self.checks.expect(
                report["digests"] == digests,
                "artifact digests differ between runs of one seed "
                "(repetitions, or traced against untraced)",
            )
        if self.seed != REFERENCE_SEED:
            return digests
        pinned = (
            json.loads(REFERENCE_DIGESTS.read_text())
            if REFERENCE_DIGESTS.exists()
            else {}
        )
        reference = pinned.get(self.scale_name, {}).get(self.workload.name)
        if reference is None:
            self.checks.expect(False, f"no pinned digests for {self.workload.name}")
            return digests
        self.checks.expect(
            digests == reference["digests"],
            "artifact digests differ from reference_digests.json",
        )
        if "planner_trials_run" in reference:
            for report in reports:
                self.checks.expect(
                    report.get("planner_trials_run") == reference["planner_trials_run"],
                    f"planner.trials_run {report.get('planner_trials_run')} != "
                    f"pinned {reference['planner_trials_run']}",
                )
        return digests

    @staticmethod
    def cold_start_rendering(store: Path) -> Tuple[str, str]:
        """``(ETag, body SHA-256)`` the service renders for the cold-start figure."""
        import hashlib

        from repro.characterization.reader import ResultReader
        from repro.service import ResultService

        response = ResultService(ResultReader(store)).handle(
            "GET", f"/figures/{COLD_START_FIGURE}"
        )
        return response.headers.get("ETag", ""), hashlib.sha256(response.body).hexdigest()

    def check_cold_starts(self, reports, rendering: Tuple[str, str]) -> List[float]:
        """Cold starts must serve the stored figure; their times, in ms."""
        etag, expected = rendering
        samples = []
        for report in reports:
            for index, (millis, status, served_etag, digest, code) in enumerate(
                report["cold_starts"]
            ):
                ok = self.checks.expect(
                    status == 200 and served_etag == etag and digest == expected,
                    f"cold start served HTTP {status} etag {served_etag}",
                )
                self.checks.expect(code == 3, f"serve drained with exit {code}")
                if ok:
                    samples.append(millis * report["speed"][f"cold_start_{index}"])
        return samples

    # -- the two modes ----------------------------------------------------------------

    def untraced(self) -> Dict[str, Any]:
        """Repetitions, with a read burst after each full one.

        The first repetition's store is served for the whole run, so the
        bursts spread across the run's time: a stretch of heavy host
        contention spoils one burst, and the reported read metrics are
        medians over the bursts.
        """
        from serveload import spawn_server, stop_server

        end = time.monotonic() + self.seconds
        served = self.work / "store-0"
        first = self.rep(served)
        if first is None:
            return {}
        rendering = self.cold_start_rendering(served)
        process, host, port, _ = spawn_server(served)
        try:
            reads = ReadLoad(
                self.workload, served, self.work, (host, port), process.pid, self.checks
            )
            reads.burst()
            setups = []
            for index in range(SETUP_ONLY_REPS):
                report = self.rep(self.work / f"setup-{index}", setup_only=True)
                if report is not None:
                    setups.append(report)
            reports = [first]
            while len(reports) < MAX_REPS:
                estimate = median([r["wall_s"] for r in reports]) + median(
                    [b["wall_s"] for b in reads.bursts]
                )
                if len(reports) >= MIN_REPS and time.monotonic() + estimate > end:
                    break
                store = self.work / f"store-{len(reports)}"
                report = self.rep(store)
                shutil.rmtree(store, ignore_errors=True)
                if report is None:
                    return {}
                reports.append(report)
                reads.burst()
        finally:
            code = stop_server(process)
        self.checks.expect(code == 3, f"read-phase serve drained with exit {code}")
        self.digests = self.check_digests(reports)
        self.planner_trials_run = reports[0].get("planner_trials_run")
        first_bytes = self.check_cold_starts(reports, rendering)
        if not reads.bursts or not first_bytes:
            return {}
        self.samples = {
            "setup_s": [scaled(r, "setup_s") for r in setups + reports],
            "campaign_s": [scaled(r, "campaign_s") for r in reports],
            "audit_s": [scaled(r, "audit_s") for r in reports],
            "first_byte_ms": first_bytes,
            "peak_rss_mb": [r["rss_mb"] for r in reports],
            "read_bursts": [b["requests"] for b in reads.bursts],
        }
        self.raw = {
            "setup_s": [r["setup_s"] for r in setups + reports],
            "campaign_s": [r["campaign_s"] for r in reports],
            "audit_s": [r["audit_s"] for r in reports],
            "speed": [r["speed"] for r in setups + reports],
            "read_bursts": reads.bursts,
        }
        return {
            "setup_s": median(self.samples["setup_s"]),
            "campaign_s": median(self.samples["campaign_s"]),
            "audit_s": median(self.samples["audit_s"]),
            "first_byte_ms": median(first_bytes),
            "read_p50_ms": median([b["p50_ms"] for b in reads.bursts]),
            "read_p99_ms": median([b["p99_ms"] for b in reads.bursts]),
            "read_rps": median([b["rps"] for b in reads.bursts]),
            "peak_rss_mb": median(self.samples["peak_rss_mb"]),
        }

    def traced(self, out: Path) -> Dict[str, Any]:
        import tracing

        workload = self.workload
        plain = self.rep(self.work / "store-plain", cold_starts=0)
        if plain is None:
            return {}
        trace_file = self.work / "trace.jsonl"
        started = time.monotonic()
        process, spec = self.spawn(
            self.spec(
                self.work / "store-traced", cold_starts=0, trace=True,
                trace_file=str(trace_file),
            ),
            interactive=True,
        )
        lag_ms = 0.0
        try:
            address = None
            for line in process.stdout:
                try:
                    address = json.loads(line)
                    break
                except ValueError:
                    continue
            if address is not None:
                reads = ReadLoad(
                    workload, Path(spec["store"]), self.work,
                    (address["host"], address["port"]), process.pid, self.checks,
                )
                reads.burst()
                lag_ms = reads.lag_ms()
        finally:
            # The traced repetition stops serving once its stdin closes.
            process.stdin.close()
            traced = self.finish(process, spec, started)
            process.stdout.close()
        if traced is None:
            return {}
        self.digests = self.check_digests([plain, traced])
        self.planner_trials_run = plain.get("planner_trials_run")
        meta, spans = tracing.read_trace(trace_file)
        meta.update(
            import_ms=self.import_ms(),
            writer_lag_ms=lag_ms,
            overhead_frac=scaled(traced, "campaign_s") / scaled(plain, "campaign_s") - 1.0,
        )
        out.mkdir(parents=True, exist_ok=True)
        tracing.write_trace(out / f"{workload.name}.trace.jsonl", meta, spans)
        return tracing.layer_metrics(meta, spans)

    def import_ms(self) -> float:
        samples = []
        for _ in range(IMPORT_SPAWNS):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", "import repro.cli"],
                env=child_env(), cwd=ROOT, timeout=60,
            )
            samples.append(1000.0 * (time.perf_counter() - started))
            self.checks.expect(done.returncode == 0, "import repro.cli failed")
        return median(samples)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, scale: str, trace: bool, out: Path) -> Dict[str, Any]:
    """Run one workload; returns its result document."""
    run = WorkloadRun(WORKLOADS[name], seed, seconds, scale)
    started = time.monotonic()
    try:
        values = run.traced(out) if trace else run.untraced()
    except Exception:  # noqa: BLE001 -- a crashed run is a failed run
        run.checks.expect(False, traceback.format_exc(limit=8))
        values = {}
    finally:
        run.close()
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"])
        if value is None:
            run.checks.expect(False, f"metric {metric['name']} was not measured")
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    failed = len(run.checks.failures)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "wall_s": time.monotonic() - started,
        "provenance": provenance(seed, scale),
        "correct": failed == 0,
        "attempted": max(1, run.checks.attempted),
        "failed": failed,
        "failures": run.checks.failures[:50],
        "metrics": metrics,
        "samples": {key: len(values) for key, values in run.samples.items()},
        "raw": run.raw,
        "digests": run.digests,
        "planner_trials_run": run.planner_trials_run,
    }


def update_reference(results: List[Dict[str, Any]], scale: str) -> None:
    """Pin the digests these runs committed (seed 2024 only)."""
    pinned = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.exists() else {}
    for result in results:
        if result["seed"] != REFERENCE_SEED or not result["digests"]:
            continue
        entry = {"digests": result["digests"]}
        if result["planner_trials_run"] is not None:
            entry["planner_trials_run"] = result["planner_trials_run"]
        pinned.setdefault(scale, {})[result["workload"]] = entry
    REFERENCE_DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable)")
    parser.add_argument("--workloads", nargs="+", default=[],
                        help="workloads to run, in order")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report per-layer metrics")
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result JSON and traces")
    parser.add_argument("--update-reference", action="store_true",
                        help="pin this seed-2024 run's digests in "
                             "reference_digests.json")
    args = parser.parse_args(argv)
    args.names = args.workload + args.workloads
    if not args.names:
        parser.error("name at least one --workload")
    unknown = [name for name in args.names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ensure_source()
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    results = []
    for name in args.names:
        result = run_workload(
            name, args.seed, args.seconds, args.scale, bool(args.trace), args.out
        )
        results.append(result)
        args.out.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = args.out / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
        path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        for metric, record in result["metrics"].items():
            print(f"{name} {metric} {record['value']:.6g} {record['unit']}")
        for failure in result["failures"]:
            print(f"{name} FAILED: {failure}", file=sys.stderr)
    digest_sets = {
        result["workload"]: result["digests"]
        for result in results
        if result["workload"] in ("paper-campaign", "pipelined-campaign")
    }
    cross = Checks()
    if len(digest_sets) == 2:
        cross.expect(
            len(set(json.dumps(d, sort_keys=True) for d in digest_sets.values())) == 1,
            "paper-campaign and pipelined-campaign committed different artifacts",
        )
        for failure in cross.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
    if args.update_reference:
        update_reference(results, args.scale)
    failed = sum(result["failed"] for result in results) + len(cross.failures)
    summary = {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results) + cross.attempted,
        "failed": failed,
        "metrics": (
            results[0]["metrics"]
            if len(results) == 1
            else {
                f"{result['workload']}/{metric}": record
                for result in results
                for metric, record in result["metrics"].items()
            }
        ),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
