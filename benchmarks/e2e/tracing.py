"""Span tracing installed from outside the program, and per-layer metrics.

The traced run wraps public functions of each layer on the attribute
its caller actually looks up -- a module global such as
``executors.run_task_serial`` or a class attribute such as
``TestBench.run`` -- so no file of the program changes.  Each call
records one span (name, start, end, parent span, thread, and an
optional work size) on a per-thread stack.  Spans stay in memory until
the run ends and are then written as JSON lines.

A span's *self time* is its duration minus the durations of its child
spans; every per-layer time below is a self time unless its definition
says *subtree*, which is the whole duration of the matching spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from common import WORKLOADS

Size = Optional[Callable[[tuple, dict], float]]

ALL_WORKLOADS = frozenset(WORKLOADS)
FUSED_IN_PROCESS = frozenset(
    name for name, workload in WORKLOADS.items() if workload.executor == "fused"
)
PIPELINED = ALL_WORKLOADS - FUSED_IN_PROCESS
ADAPTIVE = frozenset(name for name, workload in WORKLOADS.items() if workload.adaptive)
NOT_ADAPTIVE = ALL_WORKLOADS - ADAPTIVE


def _tasks_arg(position: int) -> Size:
    return lambda args, kwargs: len(args[position])


def _bit_count(args: tuple, kwargs: dict) -> float:
    seeds, n_bits = args[0], args[1]
    return float(getattr(seeds, "size", len(seeds))) * int(n_bits)


# (module, class or None, attribute, workloads that must call it, size)
WRAPPED: Tuple[Tuple[str, Optional[str], str, FrozenSet[str], Size], ...] = (
    ("repro.characterization.campaign", "Campaign", "run", ALL_WORKLOADS, None),
    ("repro.health", None, "audit_store", ALL_WORKLOADS, None),
    ("repro.characterization.experiment", "CharacterizationScope", "build",
     ALL_WORKLOADS, None),
    ("repro.engine.executors", "ExecutorBase", "run", ALL_WORKLOADS, None),
    ("repro.engine.executors", "ProcessPoolExecutor", "start", PIPELINED, None),
    ("repro.engine.executors", "ProcessPoolExecutor", "run_many", PIPELINED,
     None),
    ("repro.engine.executors", None, "run_tasks_fused", FUSED_IN_PROCESS,
     _tasks_arg(4)),
    ("repro.engine.executors", None, "run_task_serial", ALL_WORKLOADS, None),
    ("repro.engine.executors", None, "pack_tasks", PIPELINED, None),
    ("repro.engine.executors", None, "unpack_outcomes", PIPELINED, None),
    ("repro.engine.scheduler", "ExperimentProgram", "run", NOT_ADAPTIVE, None),
    ("repro.engine.scheduler", "CampaignScheduler", "run", PIPELINED, None),
    ("repro.bender.testbench", "TestBench", "run", ALL_WORKLOADS, None),
    ("repro.bender.testbench", "TestBench", "set_temperature", ALL_WORKLOADS,
     None),
    ("repro.bender.testbench", "TestBench", "set_vpp", ALL_WORKLOADS, None),
    ("repro.engine.kernels", "TrialKernel", "setup", ALL_WORKLOADS, None),
    ("repro.engine.kernels", "ActivationKernel", "run_slice", FUSED_IN_PROCESS,
     _tasks_arg(2)),
    ("repro.engine.kernels", "MajXKernel", "run_slice", FUSED_IN_PROCESS,
     _tasks_arg(2)),
    ("repro.engine.kernels", "MultiRowCopyKernel", "run_slice",
     FUSED_IN_PROCESS, _tasks_arg(2)),
    ("repro.dram.behavior", "ReliabilityModel", "context_noise_block",
     FUSED_IN_PROCESS, None),
    ("repro.core.patterns", "DataPattern", "row_bits_block", FUSED_IN_PROCESS,
     None),
    ("repro.rngblock", None, "uniform_bit_block", FUSED_IN_PROCESS,
     _bit_count),
    ("repro.engine.bitplane", None, "pack_matrix", FUSED_IN_PROCESS, None),
    ("repro.engine.bitplane", None, "and_accumulate", FUSED_IN_PROCESS, None),
    ("repro.engine.bitplane", None, "unpack_mask", ALL_WORKLOADS, None),
    ("repro.engine.bitplane", None, "rate", FUSED_IN_PROCESS, None),
    ("repro.engine.planner", None, "allocate_round", ADAPTIVE, None),
    ("repro.engine.planner", None, "slice_plan", ADAPTIVE, None),
    ("repro.engine.planner", None, "merge_outcomes", ADAPTIVE, None),
    ("repro.characterization.stats", "StreamingBootstrap", "extend", ADAPTIVE,
     None),
    ("repro.characterization.stats", "StreamingBootstrap", "ci", ADAPTIVE,
     None),
    ("repro.characterization.store", "ResultStore", "save", ALL_WORKLOADS,
     None),
    ("repro.characterization.store", "ResultStore", "journal_append",
     ALL_WORKLOADS, None),
    ("repro.characterization.store", "ResultStore", "save_manifest",
     ALL_WORKLOADS, None),
    ("repro.characterization.reader", "ResultReader", "verify", ALL_WORKLOADS,
     None),
    ("repro.characterization.reader", "ResultReader", "load", ALL_WORKLOADS,
     None),
    ("repro.characterization.reader", "ResultReader", "content_digest",
     ALL_WORKLOADS, None),
    ("repro.service.api", "ResultService", "handle", ALL_WORKLOADS, None),
    ("repro.service.cache", "HotFigureCache", "get", ALL_WORKLOADS, None),
    ("repro.service.api", None, "bootstrap_mean_ci", ALL_WORKLOADS, None),
)


def span_name(module: str, owner: Optional[str], attribute: str) -> str:
    """``<last module component>[.<class>].<attribute>``."""
    short = module.rsplit(".", 1)[-1]
    return ".".join(part for part in (short, owner, attribute) if part)


CAMPAIGN_ROOT = span_name("repro.characterization.campaign", "Campaign", "run")
AUDIT_ROOT = span_name("repro.health", None, "audit_store")
HANDLE = span_name("repro.service.api", "ResultService", "handle")
FUSED = span_name("repro.engine.executors", None, "run_tasks_fused")
SERIAL = span_name("repro.engine.executors", None, "run_task_serial")


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = True
        self._spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []
        self._names: Dict[str, FrozenSet[str]] = {}
        ref = weakref.ref(self)

        def _forked() -> None:
            tracer = ref()
            if tracer is not None:
                tracer._disable_in_child()

        # Pool workers forked from a traced process inherit the
        # wrappers; they must neither pay for nor keep spans nobody
        # reads.
        os.register_at_fork(after_in_child=_forked)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self._spans = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function: Callable, name: str, size: Size = None) -> Callable:
        """``function`` recording one span per call."""
        spans = self._spans
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    span_id, parent, name, start, end,
                    threading.get_ident(),
                    size(args, kwargs) if size is not None else None,
                ))

        return traced

    def install(self) -> None:
        """Wrap every entry of :data:`WRAPPED` in place."""
        if self._installed:
            raise RuntimeError("tracer wrappers are already installed")
        for module_name, owner_name, attribute, users, size in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = (
                owner.__dict__[attribute]
                if owner_name
                else getattr(module, attribute)
            )
            name = span_name(module_name, owner_name, attribute)
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(
                    self.wrap(raw.__func__, name, size)
                )
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self.wrap(raw.__func__, name, size))
            else:
                replacement = self.wrap(raw, name, size)
            setattr(owner, attribute, replacement)
            self._installed.append((owner, attribute, raw))
            self._names[name] = users

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    def missed(self, workload: str) -> List[str]:
        """Wrappers the workload should have called but never did.

        A wrapper bound to a name no caller looks up records nothing;
        this turns that silent gap into a failed run.
        """
        called = {span[2] for span in self._spans}
        return sorted(
            name
            for name, users in self._names.items()
            if workload in users and name not in called
        )

    def spans(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "thread": thread, "size": size,
            }
            for span_id, parent, name, start, end, thread, size in self._spans
        ]


def write_trace(path: Path, meta: Dict[str, Any], spans: Iterable[Dict[str, Any]]) -> None:
    """One ``meta`` line, then one line per span."""
    with open(path, "w") as handle:
        handle.write(json.dumps(dict(meta, kind="meta"), sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(dict(span, kind="span")) + "\n")


def read_trace(path: Path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            kind = record.pop("kind", "span")
            if kind == "meta":
                meta = record
            else:
                spans.append(record)
    return meta, spans


class SpanIndex:
    """Self times and ancestry over one trace."""

    def __init__(self, spans: List[Dict[str, Any]]):
        self.spans = spans
        self.by_id = {span["id"]: span for span in spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"]:
                child_time[span["parent"]] += span["end"] - span["start"]
        self.self_time = {
            span["id"]: span["end"] - span["start"] - child_time[span["id"]]
            for span in spans
        }
        self._ancestors: Dict[int, FrozenSet[str]] = {}

    def ancestors(self, span: Dict[str, Any]) -> FrozenSet[str]:
        """Names of every enclosing span."""
        known = self._ancestors.get(span["id"])
        if known is not None:
            return known
        parent = self.by_id.get(span["parent"])
        names = (
            frozenset()
            if parent is None
            else self.ancestors(parent) | {parent["name"]}
        )
        self._ancestors[span["id"]] = names
        return names

    def select(
        self,
        names: Iterable[str],
        parent: Optional[str] = None,
        under: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        wanted = set(names)
        chosen = []
        for span in self.spans:
            if span["name"] not in wanted:
                continue
            if parent is not None:
                enclosing = self.by_id.get(span["parent"])
                if enclosing is None or enclosing["name"] != parent:
                    continue
            if under is not None and under not in self.ancestors(span):
                continue
            chosen.append(span)
        return chosen

    def self_s(self, spans: List[Dict[str, Any]]) -> float:
        return sum(self.self_time[span["id"]] for span in spans)

    @staticmethod
    def total_s(spans: List[Dict[str, Any]]) -> float:
        return sum(span["end"] - span["start"] for span in spans)

    @staticmethod
    def size(spans: List[Dict[str, Any]]) -> float:
        return sum(span["size"] or 0 for span in spans)

    def coverage(self, root: str) -> float:
        """Share of the root spans' time spent inside child spans."""
        roots = self.select([root])
        total = self.total_s(roots)
        return 1.0 - self.self_s(roots) / total if total else 0.0


RUN_SLICE = [
    span_name("repro.engine.kernels", kernel, "run_slice")
    for kernel in ("ActivationKernel", "MajXKernel", "MultiRowCopyKernel")
]
BITPLANE = [
    span_name("repro.engine.bitplane", None, name)
    for name in ("pack_matrix", "and_accumulate", "unpack_mask", "rate")
]


def layer_metrics(meta: Dict[str, Any], spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from one trace.

    ``meta`` carries what spans cannot: the executor's own
    ``metrics.as_dict()`` (worker-side stages and dispatch counters,
    since workers run outside the wrappers), the served cache and
    reader counters, and the timings the orchestrator measured.
    """
    index = SpanIndex(spans)
    name = span_name
    stats = meta.get("engine_stats") or {}
    cache = meta.get("cache") or {}

    def self_of(*names: str, **where: str) -> float:
        return index.self_s(index.select(names, **where))

    probes = index.select(
        [name("repro.bender.testbench", "TestBench", "run"),
         name("repro.engine.kernels", "TrialKernel", "setup")],
        parent=FUSED,
    )
    fused_tasks = index.size(index.select([FUSED]))
    pipeline_wall = float(stats.get("pipeline_wall_s", 0.0))
    return {
        "executors.fallback_s": index.total_s(index.select([SERIAL], parent=FUSED)),
        "executors.probe_s": index.total_s(probes),
        "executors.fused_task_fraction": (
            index.size(index.select(RUN_SLICE)) / fused_tasks if fused_tasks else 0.0
        ),
        "executors.reference_s": index.total_s(index.select([SERIAL], under=AUDIT_ROOT)),
        "kernels.math_s": self_of(*RUN_SLICE),
        "behavior.seed_hash_s": self_of(
            name("repro.dram.behavior", "ReliabilityModel", "context_noise_block"),
            name("repro.core.patterns", "DataPattern", "row_bits_block"),
        ),
        "rngblock.bits_s": self_of(name("repro.rngblock", None, "uniform_bit_block")),
        "rngblock.bits": index.size(
            index.select([name("repro.rngblock", None, "uniform_bit_block")])
        ),
        "bitplane.reduce_s": self_of(*BITPLANE),
        "testbench.apa_programs": float(
            len(index.select([name("repro.bender.testbench", "TestBench", "run")]))
        ),
        "testbench.environment_s": self_of(
            name("repro.bender.testbench", "TestBench", "set_temperature"),
            name("repro.bender.testbench", "TestBench", "set_vpp"),
        ),
        "experiment.scope_build_s": index.total_s(index.select(
            [name("repro.characterization.experiment", "CharacterizationScope", "build")]
        )),
        "executors.pool_start_s": index.total_s(index.select(
            [name("repro.engine.executors", "ProcessPoolExecutor", "start")]
        )),
        "columnar.pack_s": self_of(name("repro.engine.executors", None, "pack_tasks")),
        "columnar.unpack_s": self_of(
            name("repro.engine.executors", None, "unpack_outcomes")
        ),
        "executors.dispatches": float(stats.get("dispatches", 0)),
        "executors.bytes_down": float(stats.get("bytes_shipped_down", 0)),
        "executors.bytes_up": float(stats.get("bytes_shipped", 0)),
        "scheduler.idle_s": pipeline_wall
        * (1.0 - float(stats.get("pipeline_occupancy", 0.0)))
        if pipeline_wall
        else 0.0,
        "executors.worker_fuse_s": float(stats.get("stage_fuse_s", 0.0)),
        "executors.worker_probe_s": float(stats.get("stage_probe_s", 0.0)),
        "executors.worker_fallback_s": float(stats.get("stage_fallback_s", 0.0)),
        "planner.allocate_s": self_of(name("repro.engine.planner", None, "allocate_round")),
        "planner.rounds": float(stats.get("rounds", 0)),
        "planner.trials_run": float(meta.get("planner_trials_run") or 0),
        "stats.bootstrap_s": self_of(
            name("repro.characterization.stats", "StreamingBootstrap", "extend"),
            name("repro.characterization.stats", "StreamingBootstrap", "ci"),
        ),
        "plan.slice_merge_s": self_of(
            name("repro.engine.planner", None, "slice_plan"),
            name("repro.engine.planner", None, "merge_outcomes"),
        ),
        "store.save_s": self_of(name("repro.characterization.store", "ResultStore", "save")),
        "store.saves": float(len(index.select(
            [name("repro.characterization.store", "ResultStore", "save")]
        ))),
        "store.journal_s": self_of(
            name("repro.characterization.store", "ResultStore", "journal_append")
        ),
        "store.journal_appends": float(len(index.select(
            [name("repro.characterization.store", "ResultStore", "journal_append")]
        ))),
        "store.manifest_s": self_of(
            name("repro.characterization.store", "ResultStore", "save_manifest")
        ),
        "audit.verify_s": self_of(
            name("repro.characterization.reader", "ResultReader", "verify"),
            under=AUDIT_ROOT,
        ),
        "api.handle_self_s": self_of(HANDLE),
        "cache.get_s": self_of(name("repro.service.cache", "HotFigureCache", "get")),
        "cache.hits": float(cache.get("hits", 0)),
        "cache.misses": float(cache.get("misses", 0)),
        "cache.invalidations": float(cache.get("invalidations", 0)),
        "reader.load_s": self_of(
            name("repro.characterization.reader", "ResultReader", "load"),
            under=HANDLE,
        ),
        "reader.digest_s": self_of(
            name("repro.characterization.reader", "ResultReader", "content_digest"),
            under=HANDLE,
        ),
        "reader.digest_recomputes": float(meta.get("digest_recomputes", 0)),
        "stats.ci_s": self_of(
            name("repro.service.api", None, "bootstrap_mean_ci"), under=HANDLE
        ),
        "serve.import_ms": float(meta.get("import_ms", 0.0)),
        "serve.first_response_ms": float(meta.get("first_response_ms", 0.0)),
        "writer.lag_ms": float(meta.get("writer_lag_ms", 0.0)),
        "trace.overhead_frac": float(meta.get("overhead_frac", 0.0)),
        "trace.campaign_coverage": index.coverage(CAMPAIGN_ROOT),
    }
