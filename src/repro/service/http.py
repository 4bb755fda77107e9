"""Stdlib-asyncio HTTP/1.1 transport for the result query service.

One :class:`ResultServer` wraps a :class:`~repro.service.api.
ResultService` behind ``asyncio.start_server``: thousands of
concurrent keep-alive connections multiplex onto one event loop.
Store-backed requests are offloaded to a small thread pool with a
per-request deadline, so one slow or faulted disk read occupies one
pool thread instead of freezing every connection, and the event loop
itself only ever touches sockets, counters, and the admission gate.

Production posture (PR 8) -- the transport enforces the budgets in
:class:`~repro.service.resilience.ResiliencePolicy`:

- **admission control**: at most ``max_concurrent_requests`` offloaded
  requests in flight; excess requests get an immediate
  ``503 + Retry-After`` (counted as shed) instead of queueing
  unboundedly.  ``max_connections`` bounds the socket count the same
  way.
- **request deadlines**: an offloaded read past ``request_timeout_s``
  answers ``504`` and the connection closes; the worker thread
  finishes into the void but keeps its admission slot until it does,
  so a stalled disk cannot admit unbounded work behind itself.
- **bounded writes**: ``writer.drain()`` is capped by
  ``write_timeout_s``; a client that stops reading gets aborted
  instead of pinning its connection task forever.
- **graceful drain**: :meth:`ResultServer.drain` stops accepting,
  lets every in-flight request finish within ``drain_timeout_s``
  (responses during a drain carry ``Connection: close``), and only
  then cancels stragglers.  ``/healthz``, ``/readyz``, and
  ``/metrics`` are answered inline on the loop -- never admitted,
  never offloaded -- so health probes keep working while the store
  path is saturated or broken.

Protocol scope (deliberately minimal -- this is a results API, not a
general web server): ``GET``/``HEAD`` only, no request bodies, no TLS,
no chunked encoding; responses always carry ``Content-Length`` and
honor ``Connection: close``.  Malformed requests get a ``400`` and the
connection is closed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Set, Tuple

from .api import CONTROL_PATHS, ResultService, ServiceResponse
from .resilience import ResiliencePolicy, ResilienceState

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINES = 100
_DEFAULT_KEEPALIVE_S = 30.0

_DRAINING = object()
"""Sentinel: the drain began while this connection sat idle."""


def _overload_response(message: str) -> ServiceResponse:
    """A fast ``503 + Retry-After`` the loop can emit without routing."""
    return ServiceResponse(
        status=503,
        headers={
            "Content-Type": "application/json; charset=utf-8",
            "Retry-After": "1",
        },
        body=json.dumps({"error": message}).encode("utf-8"),
    )


def _timeout_response(seconds: float) -> ServiceResponse:
    """The ``504`` an offloaded read that misses its deadline gets."""
    return ServiceResponse(
        status=504,
        headers={
            "Content-Type": "application/json; charset=utf-8",
            "Retry-After": "1",
        },
        body=json.dumps(
            {"error": f"store read exceeded the {seconds:g}s deadline"}
        ).encode("utf-8"),
    )


class ResultServer:
    """Asyncio HTTP server over one :class:`ResultService`."""

    def __init__(
        self,
        service: ResultService,
        host: str = "127.0.0.1",
        port: int = 0,
        keepalive_s: float = _DEFAULT_KEEPALIVE_S,
        backlog: int = 1024,
        policy: Optional[ResiliencePolicy] = None,
    ):
        self._service = service
        self._host = host
        self._port = port
        self._keepalive_s = keepalive_s
        self._backlog = backlog
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._drain_event: Optional[asyncio.Event] = None
        self.resilience = ResilienceState(policy)
        # The routing layer serves /readyz and /metrics off the same
        # state the transport enforces.
        service.bind_resilience(self.resilience)
        self.connections = 0
        self.requests = 0

    @property
    def service(self) -> ResultService:
        """The routing layer this transport serves."""
        return self._service

    @property
    def policy(self) -> ResiliencePolicy:
        """The resilience budgets in force."""
        return self.resilience.policy

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves on start)."""
        if self._server is None or not self._server.sockets:
            return (self._host, self._port)
        sock = self._server.sockets[0]
        name = sock.getsockname()
        return (name[0], name[1])

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._drain_event = asyncio.Event()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.policy.read_workers,
                thread_name_prefix="simra-read",
            )
        # The default backlog (100) RSTs connection bursts bigger than
        # the accept queue -- a thousand readers arriving together is
        # exactly this service's design load, so ask for more (the
        # kernel still clamps to net.core.somaxconn).
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self._host,
            port=self._port,
            backlog=self._backlog,
        )

    async def drain(self) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight work.

        Closes the listener, flips :attr:`ResilienceState.draining`
        (``/readyz`` answers ``503`` from here on), nudges idle
        keep-alive connections closed, and waits up to
        ``drain_timeout_s`` for every connection task to finish its
        in-flight response.  Returns ``True`` when every task finished
        inside the budget; stragglers past it are cancelled and the
        drain reports unclean.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.resilience.begin_drain()
        if self._drain_event is not None:
            self._drain_event.set()
        clean = True
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                set(self._conn_tasks),
                timeout=self.policy.drain_timeout_s,
            )
            if pending:
                clean = False
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
        self._conn_tasks.clear()
        return clean

    async def stop(self) -> None:
        """Stop accepting, then close idle keep-alive connections.

        The abrupt path (tests, benchmark teardown): in-flight
        connection tasks are cancelled, not drained.  Use
        :meth:`drain` first for the graceful choreography.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Keep-alive handlers otherwise linger until their read times
        # out; cancelling here lets asyncio.run() exit without noise.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    async def serve_forever(self) -> None:
        """Run until cancelled (what ``simra-dram serve`` awaits)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        stats = self.resilience.stats
        self.connections += 1
        stats.connection_opened()
        try:
            if stats.connections_active > self.policy.max_connections:
                stats.count("shed_connections")
                await self._write_response(
                    writer,
                    "GET",
                    _overload_response("connection budget exhausted"),
                    close=True,
                )
                return
            await self._serve_requests(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown.  Exit normally instead of cancelled:
            # the stdlib stream protocol's done-callback calls
            # task.exception() unguarded, which re-raises for tasks
            # that finish cancelled and spams the loop's error log.
            pass
        finally:
            stats.connection_closed()
            writer.close()
            with contextlib.suppress(
                ConnectionError, OSError, asyncio.CancelledError
            ):
                await writer.wait_closed()

    async def _serve_requests(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """The keep-alive request loop of one connection."""
        stats = self.resilience.stats
        while True:
            try:
                request = await asyncio.wait_for(
                    self._read_request_or_drain(reader),
                    timeout=self._keepalive_s,
                )
            except asyncio.TimeoutError:
                break
            if request is _DRAINING or request is None:
                break
            method, target, headers, malformed = request
            if malformed:
                # The parsed method governs the body: a malformed HEAD
                # must not receive one (HTTP/1.1), only the 400 head.
                await self._write_response(
                    writer,
                    method,
                    ServiceResponse(
                        status=400,
                        headers={"Content-Type": "text/plain"},
                        body=b"malformed request",
                    ),
                    close=True,
                )
                stats.record_response(400)
                break
            self.requests += 1
            close = headers.get("connection", "").lower() == "close"
            path = target.partition("?")[0]
            if path in CONTROL_PATHS:
                # Health probes and metrics answer inline on the loop:
                # cheap, never admitted, never offloaded -- they must
                # work precisely when the store path does not.
                response = self._service.handle(method, target, headers)
                stats.record_response(response.status)
            elif not self.resilience.admission.try_acquire():
                response = _overload_response(
                    "server at capacity; request shed"
                )
                stats.count("shed_requests")
                stats.record_response(response.status)
            else:
                response, close_after = await self._offloaded_handle(
                    method, target, headers
                )
                close = close or close_after
            close = close or self._draining
            await self._write_response(writer, method, response, close=close)
            if close:
                break

    @property
    def _draining(self) -> bool:
        return self._drain_event is not None and self._drain_event.is_set()

    async def _offloaded_handle(
        self, method: str, target: str, headers: dict
    ) -> Tuple[ServiceResponse, bool]:
        """Run one admitted request on the read pool with a deadline.

        Returns ``(response, close_connection)``.  The admission slot
        is released by the pool future's done callback -- i.e. when
        the worker thread actually finishes -- so a timed-out read
        keeps holding its slot while it grinds, which is what bounds
        the total work behind a stalled disk.
        """
        stats = self.resilience.stats
        pool = self._pool
        if pool is None:  # stopped mid-request
            return _overload_response("server is shutting down"), True
        started = time.perf_counter()
        future = pool.submit(self._service.handle, method, target, headers)
        future.add_done_callback(
            lambda _f: self.resilience.admission.release()
        )
        try:
            response = await asyncio.wait_for(
                asyncio.wrap_future(future),
                timeout=self.policy.request_timeout_s,
            )
        except asyncio.TimeoutError:
            stats.count("deadline_timeouts")
            response = _timeout_response(self.policy.request_timeout_s)
            stats.record_response(response.status)
            return response, True
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # handle() never raises; a bug did
            response = ServiceResponse(
                status=500,
                headers={"Content-Type": "application/json; charset=utf-8"},
                body=json.dumps({"error": f"internal error: {exc}"}).encode(
                    "utf-8"
                ),
            )
            stats.record_response(response.status)
            return response, True
        stats.record_response(
            response.status, time.perf_counter() - started
        )
        return response, False

    async def _read_request_or_drain(self, reader: asyncio.StreamReader):
        """One request head, or :data:`_DRAINING` if the drain begins
        while the connection is idle.

        A request already on the wire when the drain starts gets a
        short grace (``drain_grace_s``) to finish arriving -- it will
        be served with ``Connection: close`` -- so a drain never
        drops a request the client believes it sent.  The grace also
        covers a connection whose keep-alive response went out while
        the drain began: its client may already be sending the next
        request, and closing the socket over unread bytes would reset
        the connection instead of answering it.
        """
        read = asyncio.ensure_future(self._read_request(reader))
        assert self._drain_event is not None
        if not self._drain_event.is_set():
            drain_wait = asyncio.ensure_future(self._drain_event.wait())
            try:
                done, _pending = await asyncio.wait(
                    {read, drain_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
            except asyncio.CancelledError:
                read.cancel()
                drain_wait.cancel()
                raise
            finally:
                if not drain_wait.done():
                    drain_wait.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await drain_wait
            if read in done:
                return read.result()
        try:
            return await asyncio.wait_for(
                asyncio.shield(read), timeout=self.policy.drain_grace_s
            )
        except asyncio.TimeoutError:
            read.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await read
            return _DRAINING

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, dict, bool]]:
        """Parse one request head; ``None`` on clean EOF.

        Returns ``(method, target, headers, malformed)``.  The method
        is reported even for malformed requests whenever the request
        line parsed, so the 400 path can honor HEAD semantics.
        """
        line = await reader.readline()
        if not line:
            return None
        if len(line) > _MAX_REQUEST_LINE:
            return ("GET", "/", {}, True)
        parts = line.decode("latin1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            method = parts[0] if parts and parts[0].isalpha() else "GET"
            return (method, "/", {}, True)
        method, target, _version = parts
        headers = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if not line:
                return None
            text = line.decode("latin1").strip()
            if not text:
                break
            key, sep, value = text.partition(":")
            if not sep:
                return (method, target, headers, True)
            headers[key.strip().lower()] = value.strip()
        else:
            return (method, target, headers, True)
        # GET/HEAD carry no body; anything that declares one is out of
        # protocol scope for this read-only API.
        if headers.get("content-length", "0") not in ("", "0"):
            return (method, target, headers, True)
        return (method, target, headers, False)

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        response: ServiceResponse,
        close: bool,
    ) -> None:
        body = b"" if method.upper() == "HEAD" else response.body
        head = [f"HTTP/1.1 {response.status} {response.reason}"]
        headers = dict(response.headers)
        headers["Content-Length"] = str(
            0 if response.status == 304 else len(response.body)
        )
        headers["Connection"] = "close" if close else "keep-alive"
        for key, value in headers.items():
            head.append(f"{key}: {value}")
        payload = ("\r\n".join(head) + "\r\n\r\n").encode("latin1")
        if response.status != 304:
            payload += body
        writer.write(payload)
        try:
            await asyncio.wait_for(
                writer.drain(), timeout=self.policy.write_timeout_s
            )
        except asyncio.TimeoutError:
            # A client that stopped reading: abort rather than let it
            # pin this connection task (and its buffers) forever.
            self.resilience.stats.count("slow_client_aborts")
            writer.transport.abort()
            raise ConnectionError("client stalled reading the response")
