"""The one transport between the fused-parallel executor and its workers.

:class:`~repro.engine.executors.ProcessPoolExecutor` (``fused-parallel``)
cuts each plan into slices and ships every slice to a worker as one
``run-slice`` frame; the worker replies with one ``slice-result``
frame.  A frame is an 8-byte length, a JSON header, and zero or more
raw numpy array segments -- exactly the serialization of
:func:`~repro.engine.columnar.columns_to_arrays`, so task specs travel
down as :class:`~repro.engine.columnar.TaskColumns` and outcomes come
back as :class:`~repro.engine.columnar.OutcomeColumns` with packed
masks.  Everything else a slice needs travels as a JSON-safe *spec*:
the kernel, the :class:`OperatingPoint`, each bench's serial,
:class:`~repro.config.SimulationConfig` and
:class:`~repro.chaos.ChaosConfig` (the wire codec below).  Errors
come back as data too, so the dispatcher credits the faults a slice
injected before it re-raises.

Where the workers come from is the only thing that differs:

- ``--jobs N`` forks N local workers, each serving one end of a
  socketpair (:meth:`ProcessPoolExecutor._launch`);
- ``--fleet N`` (:class:`LocalFleet`) is the same executor over N
  ``simra-dram worker --connect`` subprocesses that dial in over TCP.

Because the simulated fleet is a pure function of
(spec, instance, config), :func:`fleet_scope` can sample instances
*beyond* the paper's physical module counts -- scaling a campaign from
the 120 tested chips to thousands of vendor-profile chips without new
catalog data.
"""

from __future__ import annotations

import builtins
import contextlib
import json
import os
import socket
import struct
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import errors
from ..bender.testbench import TestBench
from ..chaos import ChaosConfig, ChaosHarness
from ..config import SimulationConfig
from ..core.patterns import DataPattern
from ..dram.vendor import TESTED_MODULES
from ..errors import ExperimentError
from .columnar import (
    OutcomeColumns,
    TaskColumns,
    columns_from_arrays,
    columns_to_arrays,
    pack_outcomes,
    unpack_tasks,
)
from .executors import ProcessPoolExecutor, _Worker, run_tasks_fused
from .kernels import (
    ActivationKernel,
    DisturbanceKernel,
    MajXKernel,
    MultiRowCopyKernel,
    TrialKernel,
)
from .metrics import EngineMetrics
from .plan import TaskOutcome, TrialTask

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


def _json_scalar(value: Any) -> Any:
    """numpy scalars (an ``np.int64`` bank, a timing off a linspace)
    encode as the Python number they equal."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


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
    head_bytes = json.dumps(
        head, sort_keys=True, default=_json_scalar
    ).encode("utf-8")
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
    """Ship a header with an optional columns record as one frame."""
    if columns is None:
        send_frame(sock, header)
        return
    column_header, arrays = columns_to_arrays(columns)
    merged = dict(header)
    merged["columns"] = column_header
    send_frame(sock, merged, arrays)


def recv_columns(sock: socket.socket) -> Tuple[Dict[str, Any], Any]:
    """Receive a frame and rebuild its columns record (or ``None``)."""
    header, arrays = recv_frame(sock)
    column_header = header.pop("columns", None)
    if column_header is None:
        return header, None
    return header, columns_from_arrays(column_header, arrays)


# -- wire codec ------------------------------------------------------------

_KERNELS = {
    kind.op_name: kind
    for kind in (
        ActivationKernel, MajXKernel, MultiRowCopyKernel, DisturbanceKernel
    )
}
_CATALOG = {spec.module_identifier: spec for spec in TESTED_MODULES}


def _pattern_to_spec(pattern: DataPattern) -> Dict[str, Any]:
    pair = pattern.byte_pair
    return {
        "kind": pattern.kind,
        "byte_pair": None if pair is None else list(pair),
    }


def _pattern_from_spec(spec: Dict[str, Any]) -> DataPattern:
    pair = spec["byte_pair"]
    return DataPattern(spec["kind"], None if pair is None else tuple(pair))


def kernel_to_spec(kernel: TrialKernel) -> Dict[str, Any]:
    """JSON-safe recipe of one of the engine's four kernels."""
    if _KERNELS.get(kernel.op_name) is not type(kernel):
        raise ExperimentError(
            f"kernel {type(kernel).__name__} has no wire spec; the "
            "fused-parallel executor ships only the engine's kernels"
        )
    spec: Dict[str, Any] = {"op": kernel.op_name}
    if isinstance(kernel, MajXKernel):
        spec.update(x=kernel.x, replicas=kernel.replicas)
    elif isinstance(kernel, DisturbanceKernel):
        spec.update(
            pattern=_pattern_to_spec(kernel.pattern),
            bystanders=list(kernel.bystanders),
        )
    return spec


def kernel_from_spec(spec: Dict[str, Any]) -> TrialKernel:
    """Rebuild a kernel from :func:`kernel_to_spec`."""
    args = dict(spec)
    kind = _KERNELS[args.pop("op")]
    if "pattern" in args:
        args["pattern"] = _pattern_from_spec(args["pattern"])
    return kind(**args)


def point_to_spec(point) -> Dict[str, Any]:
    """JSON-safe form of an :class:`OperatingPoint`."""
    return {
        "t1_ns": point.t1_ns,
        "t2_ns": point.t2_ns,
        "temperature_c": point.temperature_c,
        "vpp": point.vpp,
        "pattern": _pattern_to_spec(point.pattern),
    }


def point_from_spec(spec: Dict[str, Any]):
    """Rebuild an :class:`OperatingPoint` from :func:`point_to_spec`."""
    # Imported here: characterization sits above the engine.
    from ..characterization.experiment import OperatingPoint

    return OperatingPoint(
        **dict(spec, pattern=_pattern_from_spec(spec["pattern"]))
    )


def config_to_spec(config: SimulationConfig) -> Dict[str, Any]:
    """JSON-safe form of a :class:`SimulationConfig`."""
    return asdict(config)


def config_from_spec(spec: Dict[str, Any]) -> SimulationConfig:
    return SimulationConfig(**spec)


def chaos_to_spec(chaos: ChaosConfig) -> Dict[str, Any]:
    """JSON-safe form of a :class:`ChaosConfig` (name tuples as lists)."""
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in asdict(chaos).items()
    }


def chaos_from_spec(spec: Dict[str, Any]) -> ChaosConfig:
    return ChaosConfig(
        **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in spec.items()
        }
    )


def error_to_spec(error: Exception) -> List[str]:
    return [type(error).__name__, str(error)]


def error_from_spec(spec: Sequence[str]) -> Exception:
    """The exception a worker reported, rebuilt by class name.

    The library's errors (and builtins) keep their type, so the
    campaign still retries a transient fault and quarantines a bench
    that failed persistently; anything else becomes an
    :class:`~repro.errors.ExperimentError` naming it.
    """
    name, message = spec
    kind = getattr(errors, name, None) or getattr(builtins, name, None)
    if isinstance(kind, type) and issubclass(kind, Exception):
        with contextlib.suppress(Exception):
            return kind(message)
    return ExperimentError(f"{name}: {message}")


# -- worker side -----------------------------------------------------------

_BENCH_CACHE: Dict[Tuple[str, SimulationConfig], TestBench] = {}
"""Worker-local benches keyed by (module serial, simulation config).

Rebuilding a bench from its catalog spec costs more than most slices;
a worker sees the same modules over and over, so benches are cached
for the process lifetime.  A cached bench is reset to the baseline
environment before reuse, which -- because the thermal controller
settles exactly and all trial noise is keyed by measurement context,
never execution history -- makes it indistinguishable from a freshly
built one.
"""

_BENCH_CACHE_LIMIT = 32


def _bench_for_section(section: Dict[str, Any]) -> Tuple[TestBench, bool]:
    """A (possibly cached) bench for one slice section; True when reused."""
    config = config_from_spec(section["config"])
    key = (section["serial"], config)
    bench = _BENCH_CACHE.get(key)
    if bench is not None:
        # Same starting point as a fresh build: baseline environment,
        # applied before any chaos harness goes in (a fresh bench's
        # constructor drives the same settings pre-harness).
        bench.reset_environment()
        return bench, True
    identifier, _, instance = section["serial"].rpartition("#")
    spec = _CATALOG.get(identifier)
    if spec is None:
        raise ExperimentError(f"slice names unknown module {identifier!r}")
    bench = TestBench.for_spec(spec, int(instance), config=config)
    while len(_BENCH_CACHE) >= _BENCH_CACHE_LIMIT:
        _BENCH_CACHE.pop(next(iter(_BENCH_CACHE)))
    _BENCH_CACHE[key] = bench
    return bench, False


def serve_slice(
    header: Dict[str, Any], columns: TaskColumns
) -> Tuple[Dict[str, Any], Optional[OutcomeColumns]]:
    """Run one ``run-slice`` frame; the ``slice-result`` reply.

    A slice spans one or more bench *sections* (serial, config and
    chaos per bench); its tasks reference sections by slot, so each
    bench is rebuilt or fetched, and its chaos harness installed, once
    per slice.  Each bench's tasks run fused
    (:func:`~repro.engine.executors.run_tasks_fused`).  The reply
    carries a stats dict (busy time, worker-side APA programs, stage
    timings, bench reuses, tasks run), the per-kind faults the local
    harnesses injected, and the error the slice died of, if any, as
    data: the dispatcher credits the injected faults to its
    ``max_faults_per_kind`` ledger before it re-raises, or a chaotic
    campaign would retry against an undiminished fault budget forever.
    """
    if header.get("kill_worker"):
        # Chaos proof load: this slice's worker dies abruptly, the way
        # an OOM kill or segfault would -- no exception, no cleanup.
        os._exit(86)
    started = time.perf_counter()
    stats: Dict[str, Any] = {
        "apa_programs": 0, "stages": {}, "bench_reuses": 0, "tasks_run": 0,
    }
    injected: Dict[str, int] = {}
    outcomes: List[TaskOutcome] = []
    error: Optional[Exception] = None
    try:
        sections: List[Dict[str, Any]] = header["sections"]
        kernel = kernel_from_spec(header["kernel"])
        point = point_from_spec(header["point"])
        by_slot: Dict[int, List[TrialTask]] = {}
        for task in unpack_tasks(columns, [s["serial"] for s in sections]):
            by_slot.setdefault(task.bench_index, []).append(task)
        for slot in sorted(by_slot):
            section = sections[slot]
            bench, reused = _bench_for_section(section)
            stats["bench_reuses"] += int(reused)
            harness: Optional[ChaosHarness] = None
            if section["chaos"] is not None:
                harness = ChaosHarness(chaos_from_spec(section["chaos"]))
                harness.install(bench)
            try:
                if header["apply_environment"]:
                    bench.set_temperature(point.temperature_c)
                    bench.set_vpp(point.vpp)
                scratch = EngineMetrics(executor="slice")
                outcomes.extend(
                    run_tasks_fused(
                        kernel, point, header["checkpoints"], bench,
                        by_slot[slot], scratch,
                    )
                )
            finally:
                if harness is not None:
                    for kind, count in harness.engine.stats.injected.items():
                        if count:
                            injected[kind] = injected.get(kind, 0) + count
                    harness.uninstall()
            stats["apa_programs"] += scratch.apa_programs
            for stage, seconds in scratch.stages.items():
                stages = stats["stages"]
                stages[stage] = stages.get(stage, 0.0) + seconds
            stats["tasks_run"] += len(by_slot[slot])
    except Exception as exc:  # noqa: BLE001 -- travels back as data
        error = exc
    stats["busy_s"] = time.perf_counter() - started
    reply = {
        "type": "slice-result",
        "stats": stats,
        "injected": injected,
        "error": None if error is None else error_to_spec(error),
    }
    return reply, None if error is not None else pack_outcomes(outcomes)


def serve_connection(sock: socket.socket) -> int:
    """Serve one dispatcher connection until shutdown or EOF.

    Greets with ``hello`` (carrying the worker's pid), then answers
    every ``run-slice`` frame with its ``slice-result``
    (:func:`serve_slice`).  Returns the number of slices served.
    """
    send_frame(sock, {"type": "hello", "pid": os.getpid()})
    served = 0
    while True:
        try:
            header, columns = recv_columns(sock)
        except (EOFError, OSError):
            return served
        if header.get("type") != "run-slice":
            return served  # shutdown
        send_columns(sock, *serve_slice(header, columns))
        served += 1


def run_worker(connect: str) -> int:
    """CLI entry: dial the dispatcher and serve until shutdown."""
    host, sep, port = connect.rpartition(":")
    if not sep or not host:
        raise ExperimentError(
            f"worker --connect wants HOST:PORT, got {connect!r}"
        )
    sock = socket.create_connection((host, int(port)))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    with contextlib.closing(sock):
        serve_connection(sock)
    return 0


# -- dial-in workers -------------------------------------------------------


class LocalFleet(ProcessPoolExecutor):
    """The fused-parallel executor over dial-in worker subprocesses.

    Each worker is a ``python -m repro.cli worker --connect`` process
    that dials a listener on ``127.0.0.1`` -- the path a worker on
    another host would take.  Dispatch, supervision and the
    bit-identity contract are :class:`ProcessPoolExecutor`'s; only
    where the workers come from differs.  :meth:`kill_worker` SIGKILLs
    one to exercise the worker-death recovery.
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ExperimentError("fleet needs at least one worker")
        super().__init__(jobs=workers)
        self.processes: List[subprocess.Popen] = []

    def _launch(self, count: int) -> List[_Worker]:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(count)
        listener.settimeout(SPAWN_TIMEOUT_S)
        port = listener.getsockname()[1]
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        command = [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", f"127.0.0.1:{port}",
        ]
        spawned = {}
        workers: List[_Worker] = []
        with contextlib.closing(listener):
            try:
                for _ in range(count):
                    process = subprocess.Popen(
                        command, env=env, stdin=subprocess.DEVNULL
                    )
                    spawned[process.pid] = process
                    self.processes.append(process)
                for _ in range(count):
                    conn, _ = listener.accept()
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    workers.append(_Worker(conn, spawned[self._greet(conn)]))
            except Exception as exc:  # a timeout, EOF, a stranger's hello
                for worker in workers:
                    worker.sock.close()
                for process in spawned.values():
                    self._reap(process, 0.0)
                raise ExperimentError(
                    f"fleet workers failed to dial in: {exc}"
                ) from exc
        return workers

    @staticmethod
    def _reap(process: subprocess.Popen, timeout: float) -> None:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def kill_worker(self, index: int) -> int:
        """SIGKILL one worker process (chaos for death-recovery tests)."""
        process = self.processes[index]
        process.kill()
        process.wait(timeout=30)
        return process.pid


# -- sampled fleets --------------------------------------------------------


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
    from ..characterization.experiment import CharacterizationScope

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
