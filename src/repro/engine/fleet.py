"""Multi-process / multi-host campaign fleet.

The third scheduling tier, above the in-plan executors and the
single-pool :class:`~repro.engine.scheduler.CampaignScheduler`::

    CampaignScheduler          one pool, plans pipelined
        FleetDispatcher        whole programs across workers/hosts
            host workers       ``simra-dram worker`` processes

A :class:`FleetDispatcher` distributes whole experiment programs
(figure id + scope recipe) across *fleet workers* -- separate
processes on this host or ``simra-dram worker`` processes on other
hosts -- over a length-prefixed columnar socket protocol.  Each frame
is an 8-byte length, a JSON header, and zero or more raw numpy array
segments: exactly the serialization of
:func:`~repro.engine.columnar.columns_to_arrays`, so task-spec and
outcome columns travel the wire in the same form the process-pool
executor ships them through pickle.

Supervision matches the single-pool tier:

- **worker-death recovery**: a dead connection's in-flight item is
  re-issued to another worker (or run locally when none remain) --
  re-running an item lands on the same bits, so a death needs no
  other remedy;
- **deterministic commit order**: results are delivered strictly in
  item order regardless of which worker finished first;
- **bit-identical artifacts**: workers rebuild the scope from its
  recipe and group sampling / measurement noise are serial-keyed,
  so a fleet campaign commits exactly the bytes the serial reference
  would.

Because the simulated fleet is a pure function of
(spec, instance, config), :func:`fleet_scope` can sample instances
*beyond* the paper's physical module counts -- scaling a campaign from
the 120 tested chips to thousands of vendor-profile chips without new
catalog data.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExperimentError
from .columnar import columns_from_arrays, columns_to_arrays
from .metrics import EngineMetrics

MAX_FRAME_BYTES = 1 << 30
"""Refuse frames above this size: a corrupt length prefix should fail
loudly, not allocate the machine away."""

SPAWN_TIMEOUT_S = 60.0
"""How long :class:`LocalFleet` waits for its workers to dial in."""

_LENGTH = struct.Struct(">Q")
_HEADER_LENGTH = struct.Struct(">I")


# -- frame protocol --------------------------------------------------------


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise EOFError(
                "peer closed mid-frame"
                if chunks
                else "peer closed the connection"
            )
        chunks.extend(chunk)
    return bytes(chunks)


def send_frame(
    sock: socket.socket,
    header: Dict[str, Any],
    arrays: Sequence[np.ndarray] = (),
) -> None:
    """Ship one length-prefixed frame: JSON header + raw array segments.

    The header must be JSON-serializable; arrays travel as contiguous
    bytes described (dtype, shape) in the header, in order -- the wire
    twin of :func:`~repro.engine.columnar.columns_to_arrays`.
    """
    specs: List[Dict[str, Any]] = []
    segments: List[bytes] = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
        segments.append(array.tobytes())
    head = dict(header)
    head["arrays"] = specs
    head_bytes = json.dumps(head, sort_keys=True).encode("utf-8")
    payload = b"".join(
        [_HEADER_LENGTH.pack(len(head_bytes)), head_bytes, *segments]
    )
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def recv_frame(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    """Receive one frame; raises :class:`EOFError` on a closed peer."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ExperimentError(
            f"fleet frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit (corrupt stream?)"
        )
    payload = _recv_exact(sock, length)
    (head_len,) = _HEADER_LENGTH.unpack(payload[: _HEADER_LENGTH.size])
    cursor = _HEADER_LENGTH.size + head_len
    header = json.loads(payload[_HEADER_LENGTH.size:cursor].decode("utf-8"))
    arrays: List[np.ndarray] = []
    for spec in header.pop("arrays", []):
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(dim) for dim in spec["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        arrays.append(
            np.frombuffer(payload[cursor:cursor + nbytes], dtype=dtype)
            .reshape(shape)
            .copy()
        )
        cursor += nbytes
    if cursor != len(payload):
        raise ExperimentError(
            f"fleet frame misdeclared its segments: {len(payload) - cursor} "
            "trailing bytes"
        )
    return header, arrays


def send_columns(
    sock: socket.socket, header: Dict[str, Any], columns
) -> None:
    """Ship a columns record (task or outcome) as one frame."""
    column_header, arrays = columns_to_arrays(columns)
    merged = dict(header)
    merged["columns"] = column_header
    send_frame(sock, merged, arrays)


def recv_columns(sock: socket.socket) -> Tuple[Dict[str, Any], Any]:
    """Receive a frame and rebuild its columns record (or ``None``)."""
    header, arrays = recv_frame(sock)
    column_header = header.get("columns")
    if column_header is None:
        return header, None
    return header, columns_from_arrays(column_header, arrays)


# -- scope recipes ---------------------------------------------------------


def scope_to_spec(scope) -> Dict[str, Any]:
    """A JSON-safe recipe a worker can rebuild the scope from.

    Benches must be catalog-built (serial ``identifier#instance``);
    the recipe is pure data, so shipping it to another host yields a
    bit-identical fleet there.
    """
    modules: List[List[Any]] = []
    for bench in scope.benches:
        serial = bench.module.serial
        identifier, sep, instance = serial.rpartition("#")
        if not sep:
            raise ExperimentError(
                "fleet dispatch requires catalog-built benches; "
                f"module {serial!r} has no instance-tagged serial"
            )
        modules.append([identifier, int(instance)])
    return {
        "config": asdict(scope.benches[0].module.config),
        "modules": modules,
        "banks": list(scope.banks),
        "subarrays": list(scope.subarrays),
        "groups_per_size": scope.groups_per_size,
        "trials": scope.trials,
    }


def scope_from_spec(spec: Dict[str, Any]):
    """Rebuild a :class:`CharacterizationScope` from its recipe."""
    # Imported lazily: characterization sits above the engine in the
    # package graph.
    from ..bender.testbench import TestBench
    from ..characterization.experiment import CharacterizationScope
    from ..config import SimulationConfig
    from ..dram.vendor import TESTED_MODULES

    config = SimulationConfig(**spec["config"])
    specs_by_identifier = {
        module.module_identifier: module for module in TESTED_MODULES
    }
    benches = []
    for identifier, instance in spec["modules"]:
        module_spec = specs_by_identifier.get(identifier)
        if module_spec is None:
            raise ExperimentError(
                f"scope recipe names unknown module {identifier!r}"
            )
        benches.append(
            TestBench.for_spec(module_spec, int(instance), config=config)
        )
    return CharacterizationScope(
        benches=benches,
        banks=tuple(spec["banks"]),
        subarrays=tuple(spec["subarrays"]),
        groups_per_size=int(spec["groups_per_size"]),
        trials=int(spec["trials"]),
    )


def fleet_scope(
    chips: int,
    config=None,
    banks: Sequence[int] = (0,),
    subarrays: Sequence[int] = (0,),
    groups_per_size: int = 2,
    trials: int = 4,
):
    """A sampled vendor-profile fleet of ``chips`` modules.

    Instances round-robin across the catalog's specs with *unbounded*
    instance indices: the simulated fleet is a pure function of
    (spec, instance, config), so instance indices beyond the paper's
    physical ``n_modules`` sample fresh chips from the same vendor
    process-variation envelope.  This is how a campaign scales from
    the paper's 120 tested chips to thousands.
    """
    from ..bender.testbench import TestBench
    from ..characterization.experiment import CharacterizationScope
    from ..config import SimulationConfig
    from ..dram.vendor import TESTED_MODULES

    if chips < 1:
        raise ExperimentError("fleet needs at least one chip")
    if config is None:
        config = SimulationConfig.quick()
    benches = [
        TestBench.for_spec(
            TESTED_MODULES[index % len(TESTED_MODULES)],
            index // len(TESTED_MODULES),
            config=config,
        )
        for index in range(chips)
    ]
    return CharacterizationScope(
        benches=benches,
        banks=tuple(banks),
        subarrays=tuple(subarrays),
        groups_per_size=groups_per_size,
        trials=trials,
    )


# -- worker side -----------------------------------------------------------


def serve_connection(
    sock: socket.socket,
    executor_name: str = "serial",
    jobs: Optional[int] = None,
) -> int:
    """Serve one dispatcher connection until shutdown or EOF.

    Items arrive as ``run`` frames naming a figure and a scope recipe;
    the worker rebuilds the scope (cached across items, so a campaign
    pays the bench builds once), runs the figure's experiment program
    on its local executor, and replies with the result in the store's
    encoded form -- the exact JSON-safe bytes-determining form the
    dispatcher will commit, so fleet artifacts are byte-equal to the
    serial reference.  Returns the number of items served.
    """
    from ..characterization.campaign import EXPERIMENT_PROGRAMS
    from ..characterization.reader import _encode, storable
    from .executors import make_executor

    send_frame(
        sock,
        {"type": "hello", "pid": os.getpid(), "executor": executor_name},
    )
    served = 0
    scope_cache: Dict[str, Any] = {}
    executor = make_executor(executor_name, jobs=jobs)
    try:
        while True:
            try:
                header, _ = recv_frame(sock)
            except (EOFError, OSError):
                return served
            kind = header.get("type")
            if kind == "shutdown":
                return served
            if kind == "ping":
                send_frame(sock, {"type": "pong"})
                continue
            if kind != "run":
                send_frame(
                    sock,
                    {"type": "error", "error": f"unknown frame {kind!r}"},
                )
                continue
            started = time.perf_counter()
            reply: Dict[str, Any] = {
                "type": "result",
                "item": header["item"],
                "figure": header["figure"],
            }
            try:
                key = json.dumps(header["scope"], sort_keys=True)
                scope = scope_cache.get(key)
                if scope is None:
                    # One fleet's benches at a time: a new recipe
                    # replaces the cache instead of growing it.
                    scope_cache.clear()
                    scope = scope_from_spec(header["scope"])
                    scope_cache[key] = scope
                program = EXPERIMENT_PROGRAMS[header["figure"]](scope)
                data = program.run(executor)
                reply["status"] = "ok"
                reply["data"] = _encode(storable(data))
            except Exception as exc:  # noqa: BLE001 -- travels as data
                reply["status"] = "error"
                reply["error"] = f"{type(exc).__name__}: {exc}"
            reply["elapsed_s"] = time.perf_counter() - started
            send_frame(sock, reply)
            served += 1
    finally:
        executor.close()


def run_worker(
    connect: str,
    executor_name: str = "serial",
    jobs: Optional[int] = None,
) -> int:
    """CLI entry: dial the dispatcher and serve until shutdown."""
    host, sep, port = connect.rpartition(":")
    if not sep or not host:
        raise ExperimentError(
            f"worker --connect wants HOST:PORT, got {connect!r}"
        )
    sock = socket.create_connection((host, int(port)))
    with contextlib.closing(sock):
        serve_connection(sock, executor_name=executor_name, jobs=jobs)
    return 0


# -- dispatcher side -------------------------------------------------------


@dataclass(frozen=True)
class FleetItem:
    """One unit of fleet work: a figure over a scope recipe."""

    index: int
    figure: str
    scope_spec: Dict[str, Any]


@dataclass
class FleetOutcome:
    """One settled fleet item."""

    figure: str
    status: str
    """``"ok"`` or ``"error"``."""
    data: Any = None
    """Decoded figure data (``status == "ok"``)."""
    error: Optional[str] = None
    worker: str = ""
    """Which worker ran the item (``"local"`` for the fallback path)."""
    elapsed_s: float = 0.0


class _WorkerHandle:
    """Dispatcher-side state for one fleet worker connection."""

    def __init__(self, name: str, sock: socket.socket) -> None:
        self.name = name
        self.sock = sock
        self.alive = True
        self.greeted = False
        """Whether the worker's ``hello`` has been read."""
        self.item: Optional[int] = None


class FleetDispatcher:
    """Distributes whole experiment programs across fleet workers.

    ``connections`` are ``(name, socket)`` pairs whose peers speak the
    worker protocol (:func:`serve_connection`) -- subprocesses from
    :class:`LocalFleet`, or ``simra-dram worker`` processes dialed in
    from other hosts.  :meth:`run` drives a batch of
    :class:`FleetItem` to completion with the supervision semantics
    described in the module docstring, and accounts everything on
    ``metrics`` (``fleet_items`` / ``fleet_reissued`` /
    ``fleet_worker_deaths`` plus the shared busy/wall counters).
    """

    def __init__(
        self, connections: Sequence[Tuple[str, socket.socket]]
    ) -> None:
        self.metrics = EngineMetrics(executor="fleet")
        self._workers = [
            _WorkerHandle(name, sock) for name, sock in connections
        ]
        self.metrics.workers = max(1, len(self._workers))

    @property
    def workers(self) -> List[str]:
        """Names of the workers still alive."""
        return [w.name for w in self._workers if w.alive]

    def close(self) -> None:
        """Send shutdown to every live worker and close the sockets."""
        for worker in self._workers:
            if worker.alive:
                with contextlib.suppress(OSError):
                    send_frame(worker.sock, {"type": "shutdown"})
            worker.alive = False
            with contextlib.suppress(OSError):
                worker.sock.close()

    def __enter__(self) -> "FleetDispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- internals ---------------------------------------------------------

    def _handshake(self, worker: _WorkerHandle) -> None:
        header, _ = recv_frame(worker.sock)
        if header.get("type") != "hello":
            raise ExperimentError(
                f"worker {worker.name} opened with {header.get('type')!r}, "
                "expected hello"
            )

    def _mark_dead(self, worker: _WorkerHandle, queue: List[int]) -> None:
        """Bury one worker and re-queue its in-flight item."""
        worker.alive = False
        self.metrics.fleet_worker_deaths += 1
        with contextlib.suppress(OSError):
            worker.sock.close()
        item, worker.item = worker.item, None
        if item is not None:
            queue.insert(0, item)
            self.metrics.fleet_reissued += 1

    def _issue(self, worker: _WorkerHandle, item: FleetItem) -> bool:
        try:
            send_frame(
                worker.sock,
                {
                    "type": "run",
                    "item": item.index,
                    "figure": item.figure,
                    "scope": item.scope_spec,
                },
            )
        except OSError:
            return False
        worker.item = item.index
        return True

    def _run_local(self, item: FleetItem) -> FleetOutcome:
        """Last-resort in-process execution (every worker gone)."""
        from ..characterization.campaign import EXPERIMENT_PROGRAMS

        started = time.perf_counter()
        try:
            scope = scope_from_spec(item.scope_spec)
            data = EXPERIMENT_PROGRAMS[item.figure](scope).run()
        except Exception as exc:  # noqa: BLE001 -- isolate items
            return FleetOutcome(
                figure=item.figure,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                worker="local",
                elapsed_s=time.perf_counter() - started,
            )
        from ..characterization.reader import canonical_data

        return FleetOutcome(
            figure=item.figure,
            status="ok",
            data=canonical_data(data),
            worker="local",
            elapsed_s=time.perf_counter() - started,
        )

    def run(
        self,
        items: Sequence[FleetItem],
        on_result: Optional[Callable[[int, FleetOutcome], None]] = None,
    ) -> List[FleetOutcome]:
        """Drive every item to a settled outcome, supervised.

        ``on_result`` streams ``(index, outcome)`` strictly in item
        order -- the hook fleet campaigns commit through, mirroring
        :meth:`~repro.engine.executors.ExecutorBase.run_many`.
        Exceptions it raises propagate (in-flight items are abandoned).
        """
        from ..characterization.reader import _decode

        started = time.perf_counter()
        for worker in self._workers:
            if worker.alive and not worker.greeted:
                worker.greeted = True
                try:
                    self._handshake(worker)
                except (EOFError, OSError, ExperimentError):
                    worker.alive = False
                    self.metrics.fleet_worker_deaths += 1
        queue: List[int] = [item.index for item in items]
        by_index = {item.index: item for item in items}
        if len(by_index) != len(items):
            raise ExperimentError("fleet items must have unique indices")
        results: Dict[int, FleetOutcome] = {}
        emit_order = sorted(by_index)

        def deliver() -> None:
            while emit_order and emit_order[0] in results:
                index = emit_order.pop(0)
                if on_result is not None:
                    on_result(index, results[index])

        while len(results) < len(items):
            available = [
                w for w in self._workers if w.alive and w.item is None
            ]
            # Fill idle workers from the queue, in item order.
            while queue and available:
                index = queue.pop(0)
                worker = available.pop(0)
                if not self._issue(worker, by_index[index]):
                    self._mark_dead(worker, queue)
                    queue.insert(0, index)
            busy = [w for w in self._workers if w.alive and w.item is not None]
            if not busy:
                # Nothing in flight and nothing issuable: the fleet is
                # gone.  Preserve the campaign by finishing the
                # remainder in-process -- bit-identical by the usual
                # serial-keying argument.
                for index in sorted(by_index):
                    if index not in results:
                        results[index] = self._run_local(by_index[index])
                        self.metrics.fleet_items += 1
                        self.metrics.busy_s += results[index].elapsed_s
                        deliver()
                break
            readable, _, _ = select.select([w.sock for w in busy], [], [])
            ready = {id(sock) for sock in readable}
            for worker in list(busy):
                if id(worker.sock) not in ready:
                    continue
                try:
                    header, _ = recv_frame(worker.sock)
                except (EOFError, OSError):
                    self._mark_dead(worker, queue)
                    continue
                if header.get("type") != "result":
                    continue
                index = int(header["item"])
                worker.item = None
                elapsed = float(header.get("elapsed_s", 0.0))
                ok = header.get("status") == "ok"
                results[index] = FleetOutcome(
                    figure=header["figure"],
                    status="ok" if ok else "error",
                    data=_decode(header["data"]) if ok else None,
                    error=None if ok else str(header.get("error")),
                    worker=worker.name,
                    elapsed_s=elapsed,
                )
                self.metrics.fleet_items += 1
                self.metrics.busy_s += elapsed
                deliver()
        deliver()
        self.metrics.wall_s += time.perf_counter() - started
        return [results[item.index] for item in items]


# -- localhost backend -----------------------------------------------------


class LocalFleet:
    """Spawn localhost worker subprocesses speaking the fleet protocol.

    The test/CI backend: a listener on ``127.0.0.1`` accepts one
    dial-in per spawned ``python -m repro.cli worker`` subprocess.
    Context-manager exit shuts the workers down; :meth:`kill_worker`
    SIGKILLs one mid-run to exercise the dispatcher's death recovery.
    """

    def __init__(
        self,
        workers: int = 2,
        executor_name: str = "serial",
        jobs: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError("fleet needs at least one worker")
        self.worker_count = workers
        self.executor_name = executor_name
        self.jobs = jobs
        self.connections: List[Tuple[str, socket.socket]] = []
        self.processes: List[subprocess.Popen] = []
        self._listener: Optional[socket.socket] = None

    def start(self) -> "LocalFleet":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.worker_count)
        listener.settimeout(SPAWN_TIMEOUT_S)
        self._listener = listener
        port = listener.getsockname()[1]
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        src_root = os.path.dirname(src_root)  # .../src
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--executor",
            self.executor_name,
        ]
        if self.jobs is not None:
            command += ["--jobs", str(self.jobs)]
        try:
            for index in range(self.worker_count):
                self.processes.append(
                    subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL)
                )
            for index in range(self.worker_count):
                conn, _ = listener.accept()
                self.connections.append((f"worker-{index}", conn))
        except (socket.timeout, OSError) as exc:
            self.close()
            raise ExperimentError(
                f"fleet workers failed to dial in: {exc}"
            ) from exc
        return self

    def dispatcher(self) -> FleetDispatcher:
        """A dispatcher over this fleet's live connections."""
        return FleetDispatcher(self.connections)

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker process (chaos for death-recovery tests)."""
        process = self.processes[index]
        process.kill()
        process.wait(timeout=30)
        return process.pid

    def close(self) -> None:
        for _, conn in self.connections:
            with contextlib.suppress(OSError):
                send_frame(conn, {"type": "shutdown"})
            with contextlib.suppress(OSError):
                conn.close()
        self.connections = []
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None
        for process in self.processes:
            with contextlib.suppress(Exception):
                process.wait(timeout=10)
        for process in self.processes:
            if process.poll() is None:
                with contextlib.suppress(Exception):
                    process.kill()
                    process.wait(timeout=10)
        self.processes = []

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
