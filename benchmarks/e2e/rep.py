"""One repetition of a workload, in a fresh interpreter.

``run.py`` spawns ``python rep.py SPEC_JSON SPAWNED_AT`` so every
repetition starts from cold imports and memo caches, exactly like a
``simra-dram campaign`` invocation.  ``SPAWNED_AT`` is the parent's
``time.monotonic()`` just before the spawn; ``setup_s`` runs from it
to *ready*: imports, ``CharacterizationScope.build``, executor start
and store open.

A full repetition then commits all eleven figures through
``Campaign.run``, audits the store with ``audit_store``, and
cold-starts the real ``serve`` on it.  The report goes to the JSON
file the spec names: each phase's stopwatch time, and under ``speed``
the factor that scales it to the reference host speed, from a
:class:`common.SpeedProbe` on the CPUs the phase runs on.  A
one-process repetition runs on the spec's ``cpu`` throughout; one with
pool workers (``jobs``) sets up and runs its campaign on every CPU,
then moves to ``cpu`` for the rest.  With ``"trace": true`` the layer
wrappers are installed before the scope is built, the cold starts are
skipped, and the store is served in-process on a background
event-loop thread until the parent writes a line to stdin; the spans
then go to ``spec["trace_file"]``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _serve_in_process(store: Path, figure: str):
    """Host ``ResultServer`` with the CLI defaults on a loop thread."""
    import asyncio
    import threading

    from repro.characterization.reader import ResultReader
    from repro.service import HotFigureCache, ResultServer, ResultService
    from repro.service.resilience import ResiliencePolicy
    from serveload import first_byte

    reader = ResultReader(store)
    service = ResultService(reader, cache=HotFigureCache(reader, capacity=32))
    server = ResultServer(service, port=0, policy=ResiliencePolicy())
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="e2e-serve", daemon=True)
    thread.start()
    started = time.perf_counter()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=60)
    host, port = server.address
    arrived, status, _, _ = first_byte(host, port, f"/figures/{figure}")
    first_response_ms = 1000.0 * (arrived - started)
    print(json.dumps({"host": host, "port": port}), flush=True)
    sys.stdin.readline()
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    loop.close()
    return {
        "first_response_ms": first_response_ms,
        "first_response_status": status,
        "cache": service.cache.stats(),
        "digest_recomputes": reader.digest_recomputes,
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    spawned = float(argv[2])
    if spec["cpu"] is not None and spec["jobs"] is None:
        os.sched_setaffinity(0, {spec["cpu"]})
    from common import SpeedProbe, usable_cpus

    with SpeedProbe(usable_cpus()) as probe:
        windows = {}
        report = repetition(spec, spawned, windows)
    report["speed"] = {name: probe.factor(*window) for name, window in windows.items()}
    Path(spec["report"]).write_text(json.dumps(report, sort_keys=True))
    return 0


def repetition(spec, spawned, windows):
    """Run the phases.

    ``windows`` gets each timed phase's ``(start, end, CPU)``: its
    monotonic span, and the CPU it ran on (``None``: every CPU).
    """
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    import repro.health as health
    from repro.characterization.campaign import Campaign
    from repro.characterization.experiment import CharacterizationScope
    from repro.characterization.store import ResultStore
    from repro.config import SimulationConfig
    from repro.dram.vendor import TESTED_MODULES
    from repro.engine import AdaptiveConfig, make_executor

    from common import AUDIT_SAMPLE, AUDIT_SEED, COLD_START_FIGURE, FIGURES

    seed = spec["seed"]
    scope = CharacterizationScope.build(
        config=SimulationConfig(seed=seed, columns_per_row=spec["columns"]),
        specs=TESTED_MODULES,
        modules_per_spec=1,
        groups_per_size=spec["groups"],
        trials=spec["trials"],
    )
    adaptive = (
        AdaptiveConfig(seed=seed, **spec["adaptive"]) if spec["adaptive"] else None
    )
    report = {"failures": []}
    executor = make_executor(spec["executor"], jobs=spec["jobs"])
    with executor:
        store = ResultStore(Path(spec["store"]))
        ready = time.monotonic()
        report["setup_s"] = ready - spawned
        windows["setup_s"] = (spawned, ready, None)
        if spec["setup_only"]:
            return report
        campaign = Campaign(scope, store=store, executor=executor, adaptive=adaptive)
        started = time.monotonic()
        result = campaign.run(FIGURES)
        ended = time.monotonic()
        report["campaign_s"] = ended - started
        windows["campaign_s"] = (started, ended, None)
    cpu = spec["cpu"]
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # the pool is gone; one process from here
    if not result.succeeded or sorted(result.completed) != sorted(FIGURES):
        report["failures"].extend(
            f"campaign {failure.experiment}: {failure.reason} {failure.error}"
            for failure in result.failures
        )
        report["failures"].extend(
            f"campaign {name}: not completed"
            for name in FIGURES
            if name not in result.completed
            and name not in {failure.experiment for failure in result.failures}
        )
    report["experiments"] = len(FIGURES)
    report["engine_stats"] = result.engine_stats
    reader = store.reader
    report["digests"] = {name: reader.content_digest(name) for name in FIGURES if reader.has(name)}
    if adaptive is not None:
        report["planner_trials_run"] = sum(
            reader.metadata(name)["quality"]["planner"]["trials_run"]
            for name in FIGURES
            if reader.has(name)
        )

    started = time.monotonic()
    audit = health.audit_store(store, sample=AUDIT_SAMPLE, seed=AUDIT_SEED)
    ended = time.monotonic()
    report["audit_s"] = ended - started
    windows["audit_s"] = (started, ended, cpu)
    if not audit.passed or audit.figures_recomputed != AUDIT_SAMPLE:
        report["failures"].append(
            f"audit: {audit.mismatches} mismatch(es), "
            f"{audit.figures_recomputed} figure(s) recomputed"
        )

    if tracer is None:
        from serveload import cold_start

        # The server inherits this process's CPU, and so its probe.
        report["cold_starts"] = []
        for index in range(spec["cold_starts"]):
            started = time.monotonic()
            report["cold_starts"].append(cold_start(store.directory, COLD_START_FIGURE))
            windows[f"cold_start_{index}"] = (started, time.monotonic(), cpu)
        return report

    report.update(_serve_in_process(store.directory, COLD_START_FIGURE))
    tracer.uninstall()
    if report["first_response_status"] != 200:
        report["failures"].append(
            f"in-process serve answered HTTP {report['first_response_status']}"
        )
    report["failures"].extend(
        f"wrapper recorded no calls: {name}"
        for name in tracer.missed(spec["workload"])
    )
    tracing.write_trace(
        Path(spec["trace_file"]),
        {
            "engine_stats": result.engine_stats,
            "planner_trials_run": report.get("planner_trials_run"),
            "cache": report["cache"],
            "digest_recomputes": report["digest_recomputes"],
            "first_response_ms": report["first_response_ms"],
            "campaign_s": report["campaign_s"],
        },
        tracer.spans(),
    )
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv))
