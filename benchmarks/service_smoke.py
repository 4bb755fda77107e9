#!/usr/bin/env python
"""End-to-end smoke test for ``simra-dram serve`` (the push CI gate).

Starts the CLI server as a real subprocess over a stored campaign,
parses the bound address off its startup line, GETs every documented
endpoint asserting ``200`` (and an ``ETag`` where the API promises
one), revalidates a figure with ``If-None-Match`` asserting ``304``,
probes ``/healthz``/``/readyz``/``/metrics``, then SIGTERMs the
server and asserts the graceful-drain exit code ``3`` (the repo-wide
"interrupted, resumable" convention -- the same code a SIGTERMed
campaign exits with).

With ``--chaos`` the run becomes the degradation smoke (the nightly
gate): the server starts with every store read failing digest
verification (``--chaos-digest-mismatch-rate 1.0``, capped), and the
smoke asserts the full breaker choreography over real sockets --
figure reads answer ``409`` then ``503`` once the breaker opens,
``/readyz`` flips to not-ready while ``/healthz`` stays alive, the
5xx responses all carry ``Retry-After``, and once the injected fault
budget is exhausted the half-open probe closes the breaker again:
``/readyz`` recovers and figures answer ``200``.  SIGTERM must still
drain cleanly to exit ``3``.

Unlike the load benchmark this goes through the full production
stack -- argparse, signal handling, the printed address -- so a broken
console entry point or regressed startup line fails CI even when the
in-process service tests pass.

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py
    PYTHONPATH=src python benchmarks/service_smoke.py --chaos
    PYTHONPATH=src python benchmarks/service_smoke.py --results-dir my_results
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

_ADDRESS_RE = re.compile(
    r"serving \d+ stored result\(s\) from .+ on http://([^:]+):(\d+)"
)


def _get(url: str, headers: dict = None):
    """``(status, headers, parsed-JSON body)`` for one GET."""
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read() or b"null"),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read() or b"null")


def _check(label: str, ok: bool, detail: str) -> int:
    print(f"{'ok  ' if ok else 'FAIL'}: {label} ({detail})")
    return 0 if ok else 1


def _start_server(
    results_dir: Path, extra_args: List[str]
) -> Tuple[subprocess.Popen, Optional[str]]:
    """Launch ``simra-dram serve`` and parse the bound address.

    The startup banner may carry lines before the address (the chaos
    arming notice), so scan a few lines for the stable ``serving ...``
    shape instead of assuming it comes first.
    """
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--results-dir",
            str(results_dir),
            "--port",
            "0",  # pick a free port; we parse it off the startup line
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(REPO_ROOT),
    )
    for _ in range(5):
        line = process.stdout.readline()
        if not line:
            break
        print(f"server: {line.strip()}")
        match = _ADDRESS_RE.search(line)
        if match:
            return process, f"http://{match.group(1)}:{match.group(2)}"
    return process, None


def _stop_and_check_drain(process: subprocess.Popen) -> int:
    """SIGTERM the server; a graceful drain exits with code 3."""
    process.send_signal(signal.SIGTERM)
    try:
        exit_code = process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        exit_code = process.wait()
    tail = process.stdout.read() or ""
    for line in tail.splitlines():
        print(f"server: {line.strip()}")
    failures = _check(
        "graceful SIGTERM drain (exit 3)",
        exit_code == 3,
        f"exit code {exit_code}",
    )
    failures += _check(
        "drain-complete notice",
        "drain complete" in tail,
        repr(tail.strip().splitlines()[-1:]),
    )
    return failures


def run_smoke(results_dir: Path) -> int:
    """Returns the number of failed checks (0 == smoke passed)."""
    process, base = _start_server(results_dir, [])
    failures = 0
    try:
        if base is None:
            print("FAIL: no parseable startup line")
            return 1

        status, headers, index = _get(f"{base}/")
        _check("GET /", status == 200, f"HTTP {status}")
        figure_names = []
        if status == 200:
            status, headers, listing = _get(f"{base}/figures")
            _check(
                "GET /figures",
                status == 200 and "ETag" in headers,
                f"HTTP {status}, ETag {headers.get('ETag')!r}",
            )
            figure_names = [f["name"] for f in listing.get("figures", [])]
        if not figure_names:
            print("FAIL: store served no figures")
            return 1

        etag = None
        for name in figure_names:
            status, headers, _body = _get(f"{base}/figures/{name}")
            ok = status == 200 and headers.get("ETag", "").startswith(
                '"sha256:'
            )
            failures += _check(
                f"GET /figures/{name}",
                ok,
                f"HTTP {status}, ETag {headers.get('ETag')!r}",
            )
            if ok and etag is None:
                etag = (name, headers["ETag"])

        for endpoint in ("/fleet/summary", "/audit/status"):
            status, headers, _body = _get(f"{base}{endpoint}")
            failures += _check(
                f"GET {endpoint}",
                status == 200 and "ETag" in headers,
                f"HTTP {status}, ETag {headers.get('ETag')!r}",
            )

        # The degradation-signal endpoints: alive, ready, measurable.
        status, _headers, body = _get(f"{base}/healthz")
        failures += _check(
            "GET /healthz",
            status == 200 and body.get("status") == "alive",
            f"HTTP {status}, {body}",
        )
        status, _headers, body = _get(f"{base}/readyz")
        failures += _check(
            "GET /readyz",
            status == 200
            and body.get("ready") is True
            and body.get("checks", {}).get("breaker") == "closed",
            f"HTTP {status}, {body}",
        )
        status, _headers, body = _get(f"{base}/metrics")
        failures += _check(
            "GET /metrics",
            status == 200
            and "server" in body
            and "admission" in body
            and "breaker" in body,
            f"HTTP {status}, keys {sorted(body) if body else body}",
        )

        # A CI endpoint for some summary-bearing figure must answer
        # 200; figures without summaries answer 400 by design.
        ci_statuses = {
            name: _get(f"{base}/ci/{name}?resamples=100")[0]
            for name in figure_names
        }
        failures += _check(
            "GET /ci/{name}",
            200 in ci_statuses.values()
            and set(ci_statuses.values()) <= {200, 400},
            f"statuses {ci_statuses}",
        )

        # Conditional revalidation: If-None-Match with the served ETag
        # must short-circuit to 304.
        name, value = etag
        status, headers, _body = _get(
            f"{base}/figures/{name}", headers={"If-None-Match": value}
        )
        failures += _check(
            f"revalidate /figures/{name}",
            status == 304 and headers.get("ETag") == value,
            f"HTTP {status}",
        )

        status, _headers, _body = _get(f"{base}/figures/no-such-figure")
        failures += _check("404 for unknown figure", status == 404,
                           f"HTTP {status}")
    finally:
        failures += _stop_and_check_drain(process)
    return failures


def run_chaos_smoke(results_dir: Path) -> int:
    """The degradation smoke: breaker flip, recovery, clean drain.

    Every store read fails digest verification until the injected
    fault budget runs out; a threshold of 3 consecutive faults opens
    the breaker and a 5-consultation cooldown paces the half-open
    probes, so the whole open -> probe -> recover arc takes a few dozen
    requests.  The first ``/figures`` listing reads every artifact
    through the faulted path (its rows list them as ``mismatch``), so
    the budget is one fault per artifact plus the 6 the figure reads
    need to open the breaker and fail its first probes.
    """
    artifacts = sum(
        1
        for path in results_dir.glob("*.json")
        if path.name != "campaign-manifest.json"
    )
    process, base = _start_server(
        results_dir,
        [
            "--cache-size", "1",  # force every figure read to disk
            "--chaos-digest-mismatch-rate", "1.0",
            "--chaos-max-faults", str(artifacts + 6),
            "--breaker-threshold", "3",
            "--breaker-cooldown", "5",
        ],
    )
    failures = 0
    try:
        if base is None:
            print("FAIL: no parseable startup line")
            return 1
        status, _headers, listing = _get(f"{base}/figures")
        names = [f["name"] for f in listing.get("figures", [])]
        if status != 200 or not names:
            print(f"FAIL: figure listing unusable (HTTP {status})")
            return 1
        target = f"{base}/figures/{names[0]}"

        statuses: List[int] = []
        saw_not_ready = False
        saw_breaker_open = False
        bad_5xx_headers = 0
        recovered_at = None
        for attempt in range(80):
            status, headers, _body = _get(target)
            statuses.append(status)
            if status >= 500 and not headers.get("Retry-After"):
                bad_5xx_headers += 1
            ready_status, _h, ready = _get(f"{base}/readyz")
            if ready_status == 503 and ready.get("ready") is False:
                saw_not_ready = True
                if ready.get("checks", {}).get("breaker") == "open":
                    saw_breaker_open = True
            if saw_not_ready and status == 200 and ready_status == 200:
                recovered_at = attempt
                break

        failures += _check(
            "faults surface then shed",
            409 in statuses and 503 in statuses,
            f"statuses {sorted(set(statuses))}",
        )
        failures += _check(
            "/readyz flips while the breaker is open",
            saw_not_ready and saw_breaker_open,
            f"not_ready={saw_not_ready} breaker_open={saw_breaker_open}",
        )
        failures += _check(
            "breaker recovers once faults exhaust",
            recovered_at is not None,
            f"recovered after {recovered_at} request(s)"
            if recovered_at is not None
            else f"no recovery in {len(statuses)} requests",
        )
        failures += _check(
            "5xx budget: only expected degraded statuses",
            set(statuses) <= {200, 409, 503},
            f"statuses {sorted(set(statuses))}",
        )
        failures += _check(
            "every 5xx carries Retry-After",
            bad_5xx_headers == 0,
            f"{bad_5xx_headers} missing",
        )
        status, _headers, body = _get(f"{base}/healthz")
        failures += _check(
            "/healthz stays alive throughout",
            status == 200 and body.get("status") == "alive",
            f"HTTP {status}",
        )
        status, _headers, metrics = _get(f"{base}/metrics")
        breaker = metrics.get("breaker", {}) if metrics else {}
        failures += _check(
            "/metrics records the trips",
            status == 200 and int(breaker.get("trips", 0)) >= 1,
            f"breaker {breaker}",
        )
    finally:
        failures += _stop_and_check_drain(process)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results-dir",
        default=str(REPO_ROOT / "campaign_results"),
        help="stored campaign to serve (default campaign_results)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run the degradation smoke (reader faults, breaker flip "
             "and recovery) instead of the endpoint sweep",
    )
    args = parser.parse_args(argv)
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        print(f"no stored campaign at {results_dir}/", file=sys.stderr)
        return 2
    started = time.perf_counter()
    if args.chaos:
        failures = run_chaos_smoke(results_dir)
    else:
        failures = run_smoke(results_dir)
    elapsed = time.perf_counter() - started
    label = "service chaos smoke" if args.chaos else "service smoke"
    if failures:
        print(f"{label}: {failures} failure(s) in {elapsed:.1f} s",
              file=sys.stderr)
        return 1
    print(f"{label} passed in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
