"""Serve-side load: cold starts, closed-loop readers, an open-loop writer.

Everything here talks to the real ``simra-dram serve`` (or, in the
traced run, an in-process ``ResultServer``) over HTTP/1.1 on
localhost.  Readers are a *closed* loop: two keep-alive connections
from one asyncio process, each sending its next request only after
the previous response arrived.  The writer is an *open* loop: one
thread committing on a fixed schedule, timed against when each commit
was due.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from common import CHURN_FIGURES, FIGURES, child_env, usable_cpus

CONNECTIONS = 2
WRITER_RATE_HZ = 20.0
CI_QUERY = "resamples=200"
_SERVING = re.compile(rb"on http://([^:\s]+):(\d+)")


# -- servers --------------------------------------------------------------------


def spawn_server(store: Path, timeout_s: float = 60.0) -> Tuple[subprocess.Popen, str, int, float]:
    """Start ``python -m repro.cli serve --port 0`` on ``store``.

    Returns the process, its address, and the spawn time
    (``time.perf_counter``) so callers can time a cold start.
    """
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--results-dir", str(store), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(),
    )
    deadline = time.monotonic() + timeout_s
    while True:
        line = process.stdout.readline()
        match = _SERVING.search(line)
        if match:
            return process, match.group(1).decode(), int(match.group(2)), spawned
        if not line or time.monotonic() > deadline:
            stop_server(process)
            raise RuntimeError(f"serve on {store} never reported its address")


def stop_server(process: subprocess.Popen, timeout_s: float = 30.0) -> Optional[int]:
    """SIGTERM (graceful drain), then SIGKILL if the drain overruns."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout_s)
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode


def _request(path: str, extra: str = "") -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n{extra}\r\n".encode("latin1")


def first_byte(host: str, port: int, path: str, timeout_s: float = 30.0) -> Tuple[float, int, Dict[str, str], bytes]:
    """One blocking GET: ``(time of the first body byte, status, headers, body)``."""
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(_request(path, "Connection: close\r\n"))
        buffer = b""
        first: Optional[float] = None
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed before the response head")
            buffer += chunk
        head, _, body = buffer.partition(b"\r\n\r\n")
        if body:
            first = time.perf_counter()
        status, headers = _parse_head(head)
        length = int(headers.get("content-length", "0"))
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            if first is None:
                first = time.perf_counter()
            body += chunk
    return (first if first is not None else time.perf_counter()), status, headers, body


def cold_start(store: Path, figure: str) -> Tuple[float, int, str, str, Optional[int]]:
    """Spawn ``serve``, time spawn to the first body byte of ``figure``.

    Returns ``(milliseconds, status, etag, body sha256, exit code)``;
    the server is drained and reaped before returning.
    """
    process, host, port, spawned = spawn_server(store)
    try:
        arrived, status, headers, body = first_byte(host, port, f"/figures/{figure}")
    finally:
        code = stop_server(process)
    return (
        1000.0 * (arrived - spawned),
        status,
        headers.get("etag", ""),
        hashlib.sha256(body).hexdigest(),
        code,
    )


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    lines = head.decode("latin1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers


def placement() -> Optional[Tuple[int, int]]:
    """``(client CPU, server CPU)``, or ``None`` with fewer than two CPUs.

    Left to the scheduler, client and server sometimes share a CPU and
    sometimes not, which alone moves read throughput by a third from
    one run to the next; pinning them apart removes that.
    """
    cpus = usable_cpus()
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def pin_process(pid: int, cpu: int) -> None:
    """Pin every current thread of ``pid`` to ``cpu``; later threads inherit it."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), {cpu})
        except ProcessLookupError:
            continue  # the thread exited meanwhile


# -- expected bodies --------------------------------------------------------------


Renderings = Dict[str, Tuple[str, FrozenSet[bytes]]]
"""``{figure: (etag, every body the service may validly send)}``."""


def _saved_versions(store: Path, names: Sequence[str]) -> List[Tuple[str, Any, Dict[str, Any]]]:
    """``(name, decoded payload, header)`` of each named artifact."""
    from repro.characterization.reader import ResultReader

    reader = ResultReader(store)
    return [(name, reader.load(name), reader.metadata(name)) for name in names]


def _save(store, name: str, data: Any, meta: Dict[str, Any], columnar: bool) -> None:
    store.save(
        name, data, config=meta["config"], notes=meta["notes"],
        quality=meta["quality"], columnar=columnar,
    )


def expected_bodies(store: Path, scratch: Path, names: Sequence[str]) -> Renderings:
    """What ``/figures/{name}`` may answer while the writer runs.

    Rendered in-process through the public ``ResultService.handle``,
    once from ``store`` and once from a columnar re-save of the churned
    figures under ``scratch``: the two encodings share one content
    digest (so one ETag) and differ only in ``format_version``.  A
    served body equal to neither is torn or wrong.
    """
    from repro.characterization.reader import ResultReader
    from repro.characterization.store import ResultStore
    from repro.service import ResultService

    columnar = ResultStore(scratch, columnar=True)
    for name, data, meta in _saved_versions(store, CHURN_FIGURES):
        _save(columnar, name, data, meta, columnar=True)
    renderings: Dict[str, Tuple[str, set]] = {}
    for directory in (store, scratch):
        service = ResultService(ResultReader(directory))
        for name in names:
            if not (directory / f"{name}.json").exists():
                continue
            response = service.handle("GET", f"/figures/{name}")
            etag = response.headers.get("ETag", "")
            known = renderings.setdefault(name, (etag, set()))
            if response.status != 200 or etag != known[0]:
                raise RuntimeError(
                    f"{directory}/{name} renders HTTP {response.status} {etag}"
                )
            known[1].add(response.body)
    return {name: (etag, frozenset(bodies)) for name, (etag, bodies) in renderings.items()}


def ci_figures(store: Path, names: Sequence[str]) -> List[str]:
    """Figures whose ``/ci`` endpoint answers (those carrying summaries)."""
    from repro.characterization.reader import ResultReader
    from repro.service import ResultService

    service = ResultService(ResultReader(store))
    return [
        name for name in names
        if service.handle("GET", f"/ci/{name}?{CI_QUERY}&seed=0").status == 200
    ]


# -- the closed-loop read mix ----------------------------------------------------


@dataclass
class ReadResult:
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    """``(time.monotonic() at the response, seconds)`` per request."""
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    started: float = 0.0
    ended: float = 0.0
    """``time.monotonic()`` span of the phase."""


def request_mix(renderings: Renderings, ci_names: Sequence[str]) -> List[Tuple[str, str, str, str]]:
    """The cycle of ``(kind, figure, path, extra headers)`` readers send.

    Four kinds in turn: a figure, the same figure revalidated with its
    ETag (a 304), the inventory, and a bootstrap CI over a figure that
    carries summaries.
    """
    mix = []
    for index, name in enumerate(FIGURES):
        ci_name = ci_names[index % len(ci_names)]
        mix.append(("figure", name, f"/figures/{name}", ""))
        mix.append(
            ("revalidate", name, f"/figures/{name}",
             f"If-None-Match: {renderings[name][0]}\r\n")
        )
        mix.append(("list", "", "/figures", ""))
        mix.append(
            ("ci", ci_name, f"/ci/{ci_name}?{CI_QUERY}&seed={index}", "")
        )
    return mix


def _check(kind: str, name: str, status: int, headers: Dict[str, str], body: bytes,
           renderings: Renderings) -> Optional[str]:
    expected = status == 304 if kind == "revalidate" else status == 200
    if not expected:
        return f"{kind} {name}: HTTP {status}"
    if kind in ("figure", "revalidate"):
        etag, bodies = renderings[name]
        if headers.get("etag") != etag:
            return f"{name}: etag {headers.get('etag')!r}, stored {etag}"
        if kind == "figure" and body not in bodies:
            return f"{name}: body matches no stored rendering (torn)"
    return None


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    status, headers = _parse_head(head[:-4])
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class _Connection:
    """One keep-alive reader, walking the request cycle from its offset."""

    def __init__(self, host: str, port: int, mix, offset: int, renderings: Renderings):
        self._address = (host, port)
        self._mix = mix
        self._index = offset * len(mix) // CONNECTIONS
        self._renderings = renderings
        self._stream: Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = None

    async def run_until(self, done: Callable[[], bool], result: ReadResult) -> None:
        while not done():
            kind, name, path, extra = self._mix[self._index % len(self._mix)]
            self._index += 1
            result.attempted += 1
            try:
                if self._stream is None:
                    self._stream = await asyncio.open_connection(*self._address)
                reader, writer = self._stream
                started = time.monotonic()
                writer.write(_request(path, extra))
                await writer.drain()
                status, headers, body = await _read_response(reader)
                ended = time.monotonic()
                result.latencies.append((ended, ended - started))
            except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
                result.failures.append(f"{path}: connection error {exc!r}")
                await self.close()
                continue
            problem = _check(kind, name, status, headers, body, self._renderings)
            if problem is not None:
                result.failures.append(problem)

    async def close(self) -> None:
        stream, self._stream = self._stream, None
        if stream is not None:
            stream[1].close()
            try:
                await stream[1].wait_closed()
            except OSError:
                pass


def read_phase(host: str, port: int, seconds: float, renderings: Renderings,
               ci_names: Sequence[str], min_requests: int = 0) -> ReadResult:
    """Run the closed loop over :data:`CONNECTIONS` sockets.

    It runs for ``seconds``, and on until ``min_requests`` were sent,
    but never past three times ``seconds``.
    """
    mix = request_mix(renderings, ci_names)
    result = ReadResult()

    def done() -> bool:
        elapsed = time.monotonic() - result.started
        return elapsed >= 3 * seconds or (
            elapsed >= seconds and result.attempted >= min_requests
        )

    async def main() -> None:
        connections = [
            _Connection(host, port, mix, offset, renderings)
            for offset in range(CONNECTIONS)
        ]
        result.started = time.monotonic()
        try:
            await asyncio.gather(*(
                connection.run_until(done, result) for connection in connections
            ))
        finally:
            result.ended = time.monotonic()
            for connection in connections:
                await connection.close()

    asyncio.run(main())
    return result


# -- the open-loop writer ------------------------------------------------------------


class Writer(threading.Thread):
    """Re-commits churned figures at :data:`WRITER_RATE_HZ`.

    Commit ``i`` is due at ``start + i / rate``.  It re-saves
    ``CHURN_FIGURES[i % 3]`` through ``ResultStore.save`` under the
    store's writer lock, in the columnar encoding on even rounds and
    the plain one on odd rounds.  Content (and so every ETag) never
    changes, but every commit replaces the files and sidecars readers
    are using.  Lateness is when the commit started minus when it was
    due.
    """

    def __init__(self, store: Path):
        super().__init__(name="e2e-writer", daemon=True)
        self._store = store
        self._halt = threading.Event()
        self._versions = _saved_versions(store, CHURN_FIGURES)
        self.lateness_s: List[float] = []
        self.failures: List[str] = []

    def run(self) -> None:
        from repro.characterization.store import ResultStore

        store = ResultStore(self._store)
        try:
            with store.locked():
                started = time.perf_counter()
                commit = 0
                while True:
                    due = started + commit / WRITER_RATE_HZ
                    if self._halt.wait(max(0.0, due - time.perf_counter())):
                        break
                    self.lateness_s.append(max(0.0, time.perf_counter() - due))
                    name, data, meta = self._versions[commit % len(self._versions)]
                    columnar = (commit // len(self._versions)) % 2 == 0
                    _save(store, name, data, meta, columnar)
                    commit += 1
        except Exception as exc:  # noqa: BLE001 -- reported as a failed run
            self.failures.append(f"writer: {exc!r}")

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=60)
        if self.is_alive():
            self.failures.append("writer did not stop")
