"""The one transport between the fused-parallel executor and its workers.

:class:`~repro.engine.executors.ProcessPoolExecutor` (``fused-parallel``)
cuts a batch's task stream into slices and ships every slice to a
worker as one ``run-slice`` frame; the worker replies with one
``slice-result`` frame.  A frame is an 8-byte length, a JSON header,
and zero or more raw numpy array segments -- exactly the serialization
of :func:`~repro.engine.columnar.columns_to_arrays`.  A slice may span
plan boundaries, so a frame carries a list of per-plan *segments*:
each ``run-slice`` segment is one plan's header (kernel, operating
point, checkpoints, bench sections) with its tasks as
:class:`~repro.engine.columnar.TaskColumns`, and each ``slice-result``
segment answers it with stats, an error and the outcomes as
:class:`~repro.engine.columnar.OutcomeColumns` with packed masks.
Everything else a segment needs travels as a JSON-safe *spec*: the
kernel, the :class:`OperatingPoint`, and each bench's serial and
:class:`~repro.config.SimulationConfig` (the wire codec below).
Errors come back as data too, so an error in one plan's segment leaves
the frame's other segments intact.

Workers inject no chaos: the dispatcher decides every rig fault of a
plan before the plan ships, so a segment only ever runs clean benches.
The one chaos fault a worker sees is ``kill_worker``, which ends it.

The workers are forked by the executor (``--jobs N``,
:meth:`ProcessPoolExecutor._launch`), each serving one end of a
socketpair with :func:`serve_connection`.

Because the simulated fleet is a pure function of
(spec, instance, config), :func:`fleet_scope` can sample instances
*beyond* the paper's physical module counts (``campaign --chips N``)
-- scaling a campaign from the 120 tested chips to thousands of
vendor-profile chips without new catalog data.
"""

from __future__ import annotations

import builtins
import contextlib
import json
import os
import socket
import struct
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import errors
from ..bender.testbench import TestBench
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
from .executors import run_tasks_fused
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
    sock: socket.socket,
    header: Dict[str, Any],
    segments: Sequence[Tuple[Dict[str, Any], Any]],
) -> None:
    """Ship ``header`` and its segments as one frame.

    ``segments`` lists (segment header, columns record or ``None``)
    pairs; every record's arrays follow the JSON header in segment
    order.
    """
    heads: List[Dict[str, Any]] = []
    arrays: List[np.ndarray] = []
    for head, columns in segments:
        head = dict(head)
        if columns is not None:
            head["columns"], record_arrays = columns_to_arrays(columns)
            arrays.extend(record_arrays)
        heads.append(head)
    send_frame(sock, dict(header, segments=heads), arrays)


def recv_columns(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], List[Tuple[Dict[str, Any], Any]]]:
    """Receive a frame; its header and rebuilt (header, columns) segments."""
    header, arrays = recv_frame(sock)
    segments: List[Tuple[Dict[str, Any], Any]] = []
    cursor = 0
    for head in header.pop("segments", []):
        column_header = head.pop("columns", None)
        columns = None
        if column_header is not None:
            count = len(column_header["fields"])
            columns = columns_from_arrays(
                column_header, arrays[cursor:cursor + count]
            )
            cursor += count
        segments.append((head, columns))
    if cursor != len(arrays):
        raise ExperimentError(
            f"fleet frame carries {len(arrays) - cursor} arrays no segment "
            "claims"
        )
    return header, segments


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
        # Same starting point as a fresh build: baseline environment.
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
    """Run one ``run-slice`` segment; its ``slice-result`` reply.

    A segment spans one or more bench *sections* (serial and config
    per bench); its tasks reference sections by slot, so each bench is
    rebuilt or fetched once per segment.  Each bench's tasks run fused
    (:func:`~repro.engine.executors.run_tasks_fused`).  The reply
    carries a stats dict (busy time, worker-side APA programs, stage
    timings, bench reuses, tasks run) and the error the segment died
    of, if any, as data.
    """
    if header.get("kill_worker"):
        # Chaos proof load: this segment's worker dies abruptly, the way
        # an OOM kill or segfault would -- no exception, no cleanup.
        os._exit(86)
    started = time.perf_counter()
    stats: Dict[str, Any] = {
        "apa_programs": 0, "stages": {}, "bench_reuses": 0, "tasks_run": 0,
    }
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
        "error": None if error is None else error_to_spec(error),
    }
    return reply, None if error is not None else pack_outcomes(outcomes)


def serve_connection(sock: socket.socket) -> int:
    """Serve one dispatcher connection until shutdown or EOF.

    Greets with ``hello``, then answers every ``run-slice`` frame with
    one ``slice-result`` frame holding a reply per segment
    (:func:`serve_slice`).  Returns the number of frames served.
    """
    send_frame(sock, {"type": "hello"})
    served = 0
    while True:
        try:
            header, segments = recv_columns(sock)
        except (EOFError, OSError):
            return served
        if header.get("type") != "run-slice":
            return served  # shutdown
        replies = [serve_slice(head, columns) for head, columns in segments]
        send_columns(sock, {"type": "slice-result"}, replies)
        served += 1


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
        raise ExperimentError(f"a scope needs at least one chip, got {chips}")
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
