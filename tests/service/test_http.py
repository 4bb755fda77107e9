"""End-to-end tests of the asyncio HTTP transport (raw sockets)."""

import asyncio
import json
import threading
import time

import pytest

from repro.characterization.reader import ResultReader
from repro.characterization.stats import summarize
from repro.characterization.store import ResultStore
from repro.errors import ChecksumMismatchError
from repro.health.breaker import BreakerPolicy
from repro.service.api import ResultService
from repro.service.cache import HotFigureCache
from repro.service.http import ResultServer
from repro.service.resilience import ResiliencePolicy


@pytest.fixture()
def store(tmp_path):
    store = ResultStore(tmp_path / "results")
    store.save("fig3", {"rows": {"8": summarize([0.99, 0.98, 0.97])}})
    return store


def _serve(store, session):
    """Run ``session(host, port, service)`` against a live server."""

    async def _run():
        service = ResultService(ResultReader(store.directory))
        server = ResultServer(service)
        await server.start()
        try:
            host, port = server.address
            return await session(host, port, service)
        finally:
            await server.stop()

    return asyncio.run(_run())


async def _request(reader, writer, target, headers=()):
    head = f"GET {target} HTTP/1.1\r\nHost: t\r\n"
    for key, value in headers:
        head += f"{key}: {value}\r\n"
    writer.write((head + "\r\n").encode("latin1"))
    await writer.drain()
    return await _response(reader)


async def _response(reader, head=False):
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        key, _, value = line.decode("latin1").partition(":")
        headers[key.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", "0") or "0")
    if length and not head:  # HEAD: Content-Length describes the
        body = await reader.readexactly(length)  # suppressed body
    return status, headers, body


class TestHttpEndToEnd:
    def test_keepalive_pipeline_and_304(self, store):
        async def session(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # Three requests on ONE connection.
                status, headers, body = await _request(
                    reader, writer, "/figures/fig3"
                )
                assert status == 200
                assert headers["connection"] == "keep-alive"
                etag = headers["etag"]
                payload = json.loads(body)
                assert payload["name"] == "fig3"

                status, headers, body = await _request(
                    reader, writer, "/figures"
                )
                assert status == 200

                status, headers, body = await _request(
                    reader,
                    writer,
                    "/figures/fig3",
                    headers=[("If-None-Match", etag)],
                )
                assert status == 304
                assert headers["etag"] == etag
                assert headers["content-length"] == "0"
                assert body == b""
            finally:
                writer.close()
                await writer.wait_closed()
            assert service.requests == 3
            assert service.not_modified == 1

        _serve(store, session)

    def test_connection_close_honored(self, store):
        async def session(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            status, headers, _body = await _request(
                reader, writer, "/", headers=[("Connection", "close")]
            )
            assert status == 200
            assert headers["connection"] == "close"
            assert await reader.read() == b""  # server closed
            writer.close()
            await writer.wait_closed()

        _serve(store, session)

    def test_head_sends_headers_only(self, store):
        async def session(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"HEAD /figures/fig3 HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            status, headers, body = await _response(reader, head=True)
            assert status == 200
            assert body == b""
            assert int(headers["content-length"]) > 0
            # The connection stays usable: Content-Length described
            # the suppressed body, nothing more is in flight.
            status, _headers, body = await _request(
                reader, writer, "/figures/fig3"
            )
            assert status == 200 and body
            writer.close()
            await writer.wait_closed()

        _serve(store, session)

    def test_malformed_request_is_400_and_close(self, store):
        async def session(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"NOT-HTTP\r\n\r\n")
            await writer.drain()
            status, _headers, _body = await _response(reader)
            assert status == 400
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()

        _serve(store, session)

    def test_request_body_rejected(self, store):
        async def session(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"GET / HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"
            )
            await writer.drain()
            status, _headers, _body = await _response(reader)
            assert status == 400
            writer.close()
            await writer.wait_closed()

        _serve(store, session)

    def test_post_is_405(self, store):
        async def session(host, port, service):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /figures HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            status, headers, _body = await _response(reader)
            assert status == 405
            assert headers["allow"] == "GET, HEAD"
            writer.close()
            await writer.wait_closed()

        _serve(store, session)

    def test_concurrent_connections(self, store):
        async def session(host, port, service):
            async def one(index):
                reader, writer = await asyncio.open_connection(host, port)
                try:
                    status, _headers, _body = await _request(
                        reader, writer, "/figures/fig3"
                    )
                    return status
                finally:
                    writer.close()
                    await writer.wait_closed()

            statuses = await asyncio.gather(*(one(i) for i in range(50)))
            assert statuses == [200] * 50

        _serve(store, session)

    def test_stop_closes_idle_keepalive_connections(self, store):
        async def _run():
            service = ResultService(ResultReader(store.directory))
            server = ResultServer(service)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            status, _headers, _body = await _request(reader, writer, "/")
            assert status == 200
            await server.stop()  # must not hang on the idle connection
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()

        asyncio.run(_run())


class _FaultableReader:
    """Delegating reader whose ``load_version`` can block, stall, or raise.

    ``load_version`` is the one method that pulls the bytes (``load``
    is built on it, and the hot-figure cache's miss path calls it), so
    faults injected there reach every store read.

    Mutable knobs so one test can flip behaviour mid-flight: ``gate``
    (a :class:`threading.Event` the load waits for), ``delay_s`` (a
    plain sleep), and ``error`` (an exception *instance factory* raised
    instead of loading).
    """

    def __init__(self, reader):
        self._reader = reader
        self.gate = None
        self.delay_s = 0.0
        self.error = None
        self.loads = 0

    def __getattr__(self, name):
        return getattr(self._reader, name)

    def load_version(self, name, verify=True):
        self.loads += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never opened"
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.error is not None:
            raise self.error()
        return self._reader.load_version(name, verify=verify)

    def load(self, name, verify=True):
        return self.load_version(name, verify=verify).payload


def _serve_resilient(store, policy, session, keepalive_s=30.0):
    """Run ``session(host, port, server, faultable)`` against a live
    server with a controllable reader underneath (cache capacity 1, so
    every distinct-figure read goes to "disk")."""

    async def _run():
        faultable = _FaultableReader(ResultReader(store.directory))
        service = ResultService(
            faultable, cache=HotFigureCache(faultable, capacity=1)
        )
        server = ResultServer(service, policy=policy,
                              keepalive_s=keepalive_s)
        await server.start()
        try:
            host, port = server.address
            return await session(host, port, server, faultable)
        finally:
            await server.stop()

    return asyncio.run(_run())


class TestResilienceTransport:
    def test_malformed_head_request_gets_no_body(self, store):
        """Satellite fix: the 400 path honors the *parsed* method."""

        async def session(host, port, server, faultable):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"HEAD\r\n\r\n")  # malformed, but clearly HEAD
            await writer.drain()
            status, headers, _ = await _response(reader, head=True)
            assert status == 400
            assert int(headers["content-length"]) > 0
            # No body follows the head: the connection closes clean.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()

        _serve_resilient(store, ResiliencePolicy(), session)

    def test_admission_full_sheds_with_retry_after(self, store):
        async def session(host, port, server, faultable):
            gate = threading.Event()
            faultable.gate = gate
            slow_reader, slow_writer = await asyncio.open_connection(
                host, port
            )
            slow_writer.write(
                b"GET /figures/fig3 HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            await slow_writer.drain()
            # Wait until the slow read occupies the only slot.
            for _ in range(100):
                if server.resilience.admission.active >= 1:
                    break
                await asyncio.sleep(0.01)
            assert server.resilience.admission.active == 1

            shed_reader, shed_writer = await asyncio.open_connection(
                host, port
            )
            status, headers, body = await _request(
                shed_reader, shed_writer, "/figures/fig3"
            )
            assert status == 503
            assert headers["retry-after"] == "1"
            assert b"shed" in body
            # Control paths are never admitted: they answer while the
            # store path is saturated.
            status, _h, health = await _request(
                shed_reader, shed_writer, "/healthz"
            )
            assert status == 200
            assert json.loads(health)["status"] == "alive"

            gate.set()
            status, _headers, _body = await _response(slow_reader)
            assert status == 200
            stats = server.resilience.stats.as_dict()
            assert stats["shed_requests"] == 1
            for writer in (slow_writer, shed_writer):
                writer.close()
                await writer.wait_closed()

        _serve_resilient(
            store,
            ResiliencePolicy(max_concurrent_requests=1, read_workers=2),
            session,
        )

    def test_connection_budget_sheds_new_sockets(self, store):
        async def session(host, port, server, faultable):
            keep_reader, keep_writer = await asyncio.open_connection(
                host, port
            )
            status, _h, _b = await _request(keep_reader, keep_writer, "/")
            assert status == 200
            shed_reader, shed_writer = await asyncio.open_connection(
                host, port
            )
            status, headers, _body = await _response(shed_reader)
            assert status == 503
            assert headers["connection"] == "close"
            assert await shed_reader.read() == b""
            assert server.resilience.stats.as_dict()["shed_connections"] == 1
            for writer in (keep_writer, shed_writer):
                writer.close()
                await writer.wait_closed()

        _serve_resilient(
            store, ResiliencePolicy(max_connections=1), session
        )

    def test_deadline_answers_504_and_closes(self, store):
        async def session(host, port, server, faultable):
            faultable.delay_s = 0.5
            reader, writer = await asyncio.open_connection(host, port)
            status, headers, body = await _request(
                reader, writer, "/figures/fig3"
            )
            assert status == 504
            assert headers["retry-after"] == "1"
            assert b"deadline" in body
            assert await reader.read() == b""  # connection closed
            stats = server.resilience.stats.as_dict()
            assert stats["deadline_timeouts"] == 1
            # The slot stays held until the worker thread finishes.
            assert server.resilience.admission.active == 1
            for _ in range(100):
                if server.resilience.admission.active == 0:
                    break
                await asyncio.sleep(0.02)
            assert server.resilience.admission.active == 0
            writer.close()
            await writer.wait_closed()

        _serve_resilient(
            store,
            ResiliencePolicy(request_timeout_s=0.1, read_workers=1),
            session,
        )

    def test_drain_finishes_in_flight_request(self, store):
        """A request mid-read when the drain starts completes, with
        ``Connection: close``, and the drain reports clean."""

        async def _run():
            faultable = _FaultableReader(ResultReader(store.directory))
            service = ResultService(
                faultable, cache=HotFigureCache(faultable, capacity=1)
            )
            server = ResultServer(service, policy=ResiliencePolicy())
            await server.start()
            host, port = server.address
            gate = threading.Event()
            faultable.gate = gate
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /figures/fig3 HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            for _ in range(100):
                if server.resilience.admission.active >= 1:
                    break
                await asyncio.sleep(0.01)

            drain_task = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.05)
            assert server.resilience.draining
            assert not drain_task.done()  # waiting on the in-flight read
            gate.set()
            assert await drain_task is True

            status, headers, body = await _response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert json.loads(body)["name"] == "fig3"
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(_run())

    def test_drain_closes_idle_keepalive_connections(self, store):
        async def _run():
            service = ResultService(ResultReader(store.directory))
            server = ResultServer(service)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            status, _h, _b = await _request(reader, writer, "/")
            assert status == 200
            # Idle keep-alive connection: the drain must not wait out
            # the 30 s keepalive timer, just the short grace window.
            started = time.perf_counter()
            assert await server.drain() is True
            assert time.perf_counter() - started < 5.0
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(_run())

    def test_drain_serves_a_request_sent_after_a_keepalive_response(
        self, store
    ):
        """The drain begins just after a keep-alive response went out:
        the client's next request, sent at once, is answered with
        ``Connection: close`` instead of meeting a closed socket."""

        async def _run():
            service = ResultService(ResultReader(store.directory))
            server = ResultServer(service)
            await server.start()
            host, port = server.address
            write_response = server._write_response
            drains = []

            async def respond_then_drain(*args, **kwargs):
                await write_response(*args, **kwargs)
                if not drains:
                    drains.append(asyncio.ensure_future(server.drain()))
                    while not server.resilience.draining:
                        await asyncio.sleep(0.005)
                    await asyncio.sleep(0.05)  # the next request lands

            server._write_response = respond_then_drain
            reader, writer = await asyncio.open_connection(host, port)
            status, headers, _b = await _request(reader, writer, "/figures/fig3")
            assert (status, headers["connection"]) == (200, "keep-alive")
            status, headers, body = await _request(
                reader, writer, "/figures/fig3"
            )
            assert (status, headers["connection"]) == (200, "close")
            assert json.loads(body)["name"] == "fig3"
            assert await drains[0] is True
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(_run())

    def test_drain_timeout_cancels_stragglers_unclean(self, store):
        async def _run():
            faultable = _FaultableReader(ResultReader(store.directory))
            service = ResultService(
                faultable, cache=HotFigureCache(faultable, capacity=1)
            )
            policy = ResiliencePolicy(
                drain_timeout_s=0.2, request_timeout_s=30.0
            )
            server = ResultServer(service, policy=policy)
            await server.start()
            host, port = server.address
            gate = threading.Event()
            faultable.gate = gate
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /figures/fig3 HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            for _ in range(100):
                if server.resilience.admission.active >= 1:
                    break
                await asyncio.sleep(0.01)
            try:
                assert await server.drain() is False  # budget exceeded
            finally:
                gate.set()  # let the pool thread go
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(_run())

    def test_keepalive_churn_counters(self, store):
        """Legacy and stats counters agree across connection churn."""

        async def session(host, port, server, faultable):
            for _ in range(3):
                reader, writer = await asyncio.open_connection(host, port)
                status, _h, _b = await _request(
                    reader, writer, "/figures/fig3"
                )
                assert status == 200
                writer.close()
                await writer.wait_closed()
            # A fourth connection idles out on the keepalive timer.
            reader, writer = await asyncio.open_connection(host, port)
            status, _h, _b = await _request(reader, writer, "/")
            assert status == 200
            assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            writer.close()
            await writer.wait_closed()

            for _ in range(100):
                if server.resilience.stats.connections_active == 0:
                    break
                await asyncio.sleep(0.02)
            stats = server.resilience.stats.as_dict()
            assert stats["connections_total"] == 4
            assert stats["connections_active"] == 0
            assert stats["requests_total"] == 4
            assert server.connections == 4  # legacy counters still fed
            assert server.requests == 4

        _serve_resilient(
            store, ResiliencePolicy(), session, keepalive_s=0.1
        )

    def test_breaker_flip_and_recovery_over_sockets(self, store):
        async def session(host, port, server, faultable):
            faultable.error = lambda: ChecksumMismatchError(
                "injected digest mismatch"
            )
            reader, writer = await asyncio.open_connection(host, port)
            statuses = []
            for _ in range(3):
                status, headers, _b = await _request(
                    reader, writer, "/figures/fig3"
                )
                statuses.append(status)
                if status >= 500:
                    assert headers["retry-after"] == "1"
            # threshold 2: two 409 faults, then the open breaker sheds.
            assert statuses == [409, 409, 503]

            status, _h, body = await _request(reader, writer, "/readyz")
            assert status == 503
            ready = json.loads(body)
            assert ready["ready"] is False
            assert ready["checks"]["breaker"] == "open"
            status, _h, _b = await _request(reader, writer, "/healthz")
            assert status == 200

            faultable.error = None  # the "disk" heals
            statuses = []
            for _ in range(10):
                status, _h, _b = await _request(
                    reader, writer, "/figures/fig3"
                )
                statuses.append(status)
                if status == 200:
                    break
            assert statuses[-1] == 200  # half-open probe recovered
            status, _h, body = await _request(reader, writer, "/readyz")
            assert status == 200
            assert json.loads(body)["checks"]["breaker"] == "closed"
            assert server.resilience.breaker.trips == 1
            metrics = json.loads(
                (await _request(reader, writer, "/metrics"))[2]
            )
            assert metrics["breaker"]["trips"] == 1
            assert metrics["server"]["requests_total"] > 0
            writer.close()
            await writer.wait_closed()

        _serve_resilient(
            store,
            ResiliencePolicy(
                breaker=BreakerPolicy(failure_threshold=2, cooldown_probes=2)
            ),
            session,
        )
