#!/usr/bin/env python
"""Result-service load benchmark: thousands of concurrent readers.

Starts the asyncio HTTP query service in-process over a stored
campaign (``campaign_results/`` by default, a git-ignored store that
CI builds with ``campaign --executor fused --experiments fig3 fig7
fig10``), opens ``--readers`` concurrent keep-alive connections, and
drives ``--requests-per-reader`` GETs per connection across a
representative endpoint mix (hot figures, the inventory, bootstrap
CIs, and ETag revalidations).  Readers hold all their sockets open but
keep at most the server's admission budget of requests in flight, the
way a client pool honours a service's concurrency limit; a request
the server still sheds with ``503`` is counted as ``shed``, not
served.  Writes ``BENCH_service.json`` at the repository root (the CI
artifact): served request count, RPS and p50/p95/p99 latency over the
answered (200/304) requests, the shed count, cache and
digest-memoization counters, and the provenance of the run (git sha,
usable CPUs, Python and numpy versions).

With ``--floors benchmarks/service_floors.json`` the run additionally
acts as a perf-regression gate: it fails when the measured RPS drops
below the stored floor times the tolerance, when p99 latency exceeds
its ceiling divided by the tolerance, or when fewer concurrent
readers were actually served than the floor requires.

Usage::

    PYTHONPATH=src python benchmarks/run_service_benchmark.py
    PYTHONPATH=src python benchmarks/run_service_benchmark.py --readers 2000
    PYTHONPATH=src python benchmarks/run_service_benchmark.py --floors benchmarks/service_floors.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.characterization.reader import ResultReader  # noqa: E402
from repro.service import (  # noqa: E402
    HotFigureCache,
    ResultServer,
    ResultService,
)
from repro.service.api import _summary_means  # noqa: E402

from run_benchmarks import machine_provenance  # noqa: E402


def _stamped(path: Path) -> str:
    """``path`` as the report records it: relative to the repository
    root when it lies inside, so a report names no checkout's path."""
    try:
        return str(path.resolve().relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def _raise_fd_limit(wanted: int) -> int:
    """Best-effort RLIMIT_NOFILE bump (N readers need ~2N+ fds)."""
    try:
        import resource
    except ImportError:  # non-POSIX
        return wanted
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= wanted:
        return soft
    target = min(wanted, hard) if hard != resource.RLIM_INFINITY else wanted
    try:
        resource.setrlimit(resource.RLIMIT_NOFILE, (target, hard))
    except (ValueError, OSError):
        return soft
    return target


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


async def _read_response(reader: asyncio.StreamReader) -> int:
    """Consume one HTTP response; returns its status code."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        key, _, value = line.decode("latin1").partition(":")
        if key.strip().lower() == "content-length":
            content_length = int(value.strip())
    if content_length:
        await reader.readexactly(content_length)
    return status


async def _reader_session(
    host: str,
    port: int,
    requests: List[str],
    latencies: List[float],
    shed: List[str],
    errors: List[str],
    barrier: asyncio.Barrier,
    in_flight: asyncio.Semaphore,
    etags: Dict[str, str],
) -> None:
    """One concurrent reader: connect, sync on the barrier, hammer.

    Each request waits for an ``in_flight`` slot; its latency runs
    from that wait's start to the last response byte, so the time a
    reader queues for a slot counts.
    """
    try:
        stream_reader, writer = await asyncio.open_connection(host, port)
    except OSError as exc:
        errors.append(f"connect: {exc}")
        await barrier.wait()  # never strand the synchronized start
        return
    try:
        await barrier.wait()
        for target in requests:
            conditional = etags.get(target)
            head = f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
            if conditional:
                head += f"If-None-Match: {conditional}\r\n"
            head += "\r\n"
            started = time.perf_counter()
            async with in_flight:
                writer.write(head.encode("latin1"))
                await writer.drain()
                status = await _read_response(stream_reader)
            if status in (200, 304):
                latencies.append(time.perf_counter() - started)
            elif status == 503:
                shed.append(target)
            else:
                errors.append(f"{target}: HTTP {status}")
    except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
        errors.append(f"session: {exc}")
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_service_benchmark(
    results_dir: Path,
    readers: int,
    requests_per_reader: int,
    cache_size: int,
) -> Dict[str, object]:
    """Serve ``readers`` concurrent connections and measure latency/RPS."""
    store_reader = ResultReader(results_dir)
    names = [
        n
        for n in store_reader.names()
        if n not in ("engine-stats", "audit-report")
    ]
    if not names:
        raise SystemExit(f"no stored figures under {results_dir}/")
    service = ResultService(
        store_reader, cache=HotFigureCache(store_reader, capacity=cache_size)
    )
    # A generous keep-alive (a loaded CI host can stall the loop past
    # the default 30 s reaper) and a backlog sized to the connection
    # burst, so the kernel never RSTs the synchronized connect storm.
    server = ResultServer(
        service, keepalive_s=300.0, backlog=max(1024, readers)
    )
    await server.start()
    host, port = server.address

    # Endpoint mix per reader: mostly hot single figures (the "million
    # readers" shape), plus inventory, fleet summary, and a bootstrap
    # CI; every reader revalidates its hottest figure with an ETag.
    etags: Dict[str, str] = {}
    for name in names:
        etags[f"/figures/{name}?revalidate=1"] = (
            f'"sha256:{store_reader.content_digest(name)}"'
        )
    # /ci/ only makes sense for figures that actually carry
    # distribution summaries (the service 400s the rest by design).
    ci_names = [
        name for name in names if _summary_means(store_reader.load(name))
    ]
    request_plans: List[List[str]] = []
    for index in range(readers):
        hot = names[index % len(names)]
        ci_hot = ci_names[index % len(ci_names)] if ci_names else None
        plan = []
        for turn in range(requests_per_reader):
            cycle = turn % 4
            if cycle == 0:
                plan.append(f"/figures/{hot}")
            elif cycle == 1:
                plan.append(f"/figures/{hot}?revalidate=1")  # 304 path
            elif cycle == 2:
                plan.append("/figures")
            elif ci_hot is not None:
                plan.append(f"/ci/{ci_hot}?resamples=200&seed={index % 7}")
            else:
                plan.append("/fleet/summary")
        request_plans.append(plan)

    latencies: List[float] = []
    shed: List[str] = []
    errors: List[str] = []
    barrier = asyncio.Barrier(readers + 1)
    # The server sheds what exceeds its admission budget instead of
    # queueing it, so readers queue for the budget on their side.
    in_flight = asyncio.Semaphore(server.policy.max_concurrent_requests)
    tasks = [
        asyncio.create_task(
            _reader_session(
                host, port, plan, latencies, shed, errors, barrier,
                in_flight, etags,
            )
        )
        for plan in request_plans
    ]
    # All connections are established before any request is sent, so
    # the server genuinely holds `readers` concurrent sockets.
    await barrier.wait()
    started = time.perf_counter()
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - started
    await server.stop()

    latencies.sort()
    served = len(latencies)
    report: Dict[str, object] = {
        "results_dir": _stamped(results_dir),
        "figures": names,
        "concurrent_readers": readers,
        "requests_per_reader": requests_per_reader,
        "in_flight_limit": server.policy.max_concurrent_requests,
        "requests_served": served,
        "shed": len(shed),
        "errors": len(errors),
        "error_samples": errors[:5],
        "elapsed_s": elapsed,
        "rps": served / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": 1000.0 * _percentile(latencies, 0.50),
            "p95": 1000.0 * _percentile(latencies, 0.95),
            "p99": 1000.0 * _percentile(latencies, 0.99),
            "max": 1000.0 * (latencies[-1] if latencies else 0.0),
        },
        "not_modified": service.not_modified,
        "cache": service.cache.stats(),
        "digest_recomputes": store_reader.digest_recomputes,
        "digest_reuses": store_reader.digest_reuses,
    }
    return report


def check_floors(report: Dict[str, object], floors_path: Path) -> int:
    """Compare the measured service numbers against the stored floors.

    Returns the number of violations.  RPS floors scale with the
    tolerance (like the engine speedup floors); the p99 ceiling is
    divided by it, so a 0.5 tolerance halves the required RPS and
    doubles the allowed latency -- CI machines are noisy, regressions
    are not subtle.
    """
    floors = json.loads(floors_path.read_text())
    tolerance = float(floors.get("tolerance", 0.5))
    violations = 0

    wanted_readers = int(floors.get("min_concurrent_readers", 0))
    served_readers = int(report["concurrent_readers"])
    verdict = "ok" if served_readers >= wanted_readers else "REGRESSION"
    print(
        f"floor check: concurrent readers {served_readers} vs floor "
        f"{wanted_readers}: {verdict}"
    )
    if served_readers < wanted_readers:
        violations += 1

    if int(report["errors"]):
        print(f"floor check: {report['errors']} request error(s): REGRESSION")
        violations += 1

    min_rps = float(floors.get("min_rps", 0.0))
    threshold = min_rps * tolerance
    measured_rps = float(report["rps"])
    verdict = "ok" if measured_rps >= threshold else "REGRESSION"
    print(
        f"floor check: rps {measured_rps:.0f} vs floor {min_rps:.0f} "
        f"(tolerance {tolerance:.0%} -> threshold {threshold:.0f}): {verdict}"
    )
    if measured_rps < threshold:
        violations += 1

    max_p99 = float(floors.get("max_p99_ms", float("inf")))
    ceiling = max_p99 / tolerance
    measured_p99 = float(report["latency_ms"]["p99"])
    verdict = "ok" if measured_p99 <= ceiling else "REGRESSION"
    print(
        f"floor check: p99 {measured_p99:.1f} ms vs ceiling {max_p99:.1f} ms "
        f"(tolerance {tolerance:.0%} -> threshold {ceiling:.1f} ms): {verdict}"
    )
    if measured_p99 > ceiling:
        violations += 1
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", default=str(REPO_ROOT / "campaign_results"),
                        help="stored campaign to serve (default campaign_results)")
    parser.add_argument("--readers", type=int, default=1000,
                        help="concurrent keep-alive connections (default 1000)")
    parser.add_argument("--requests-per-reader", type=int, default=20,
                        help="GETs per connection (default 20)")
    parser.add_argument("--cache-size", type=int, default=32,
                        help="hot-figure cache capacity (default 32)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_service.json"),
                        help="where to write the benchmark JSON")
    parser.add_argument("--floors", type=Path, default=None,
                        help="service_floors.json to gate against")
    args = parser.parse_args(argv)

    limit = _raise_fd_limit(2 * args.readers + 64)
    if limit < 2 * args.readers + 64:
        print(
            f"warning: fd limit {limit} may be too low for "
            f"{args.readers} concurrent readers",
            file=sys.stderr,
        )

    report = asyncio.run(
        run_service_benchmark(
            Path(args.results_dir),
            readers=args.readers,
            requests_per_reader=args.requests_per_reader,
            cache_size=args.cache_size,
        )
    )
    output = Path(args.output)
    payload: Dict[str, object] = dict(report, provenance=machine_provenance())
    if output.exists():
        # The overload benchmark merges its section into the same
        # artifact; a steady-state rerun must not wipe it.
        try:
            previous = json.loads(output.read_text())
        except (ValueError, OSError):
            previous = {}
        if isinstance(previous, dict) and "overload" in previous:
            payload["overload"] = previous["overload"]
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    latency = report["latency_ms"]
    print(
        f"served {report['requests_served']} requests from "
        f"{report['concurrent_readers']} concurrent readers in "
        f"{report['elapsed_s']:.2f} s"
    )
    print(
        f"  {report['shed']} shed with 503 at the admission budget "
        f"({report['in_flight_limit']} in flight)"
    )
    print(
        f"  rps {report['rps']:.0f}  p50 {latency['p50']:.2f} ms  "
        f"p95 {latency['p95']:.2f} ms  p99 {latency['p99']:.2f} ms"
    )
    print(
        f"  304 revalidations {report['not_modified']}  "
        f"cache {report['cache']['hits']}h/{report['cache']['misses']}m  "
        f"digest reuses {report['digest_reuses']}"
    )
    print(f"wrote {output}")
    if report["errors"]:
        print(f"{report['errors']} request error(s); first: "
              f"{report['error_samples']}", file=sys.stderr)
        return 1
    if args.floors is not None:
        violations = check_floors(report, args.floors)
        if violations:
            print(f"{violations} service floor violation(s)", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
