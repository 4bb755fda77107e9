"""Shared definitions of the end-to-end benchmark.

Paths, scales, the four workloads, the small statistics every report
uses, and the provenance stamp.  Metric names, units, directions and
bounds are not repeated here: ``BENCHMARK.json`` at the repository
root is their single source, read through :func:`benchmark_spec`.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
REFERENCE_DIGESTS = HERE / "reference_digests.json"
WORK_ROOT = ROOT / ".bench_e2e"
DEFAULT_OUT = WORK_ROOT / "results"

FIGURES = (
    "fig3", "fig4a", "fig4b", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12a", "fig12b",
)
"""The paper's section 4-6 sweeps: every campaign commits all eleven."""

CHURN_FIGURES = ("fig3", "fig7", "fig10")
"""Figures the serve workload's writer keeps re-committing."""

COLD_START_FIGURE = "fig7"
AUDIT_SAMPLE = 2
AUDIT_SEED = 0
"""``audit_store(sample=2, seed=0)`` recomputes fig9 and fig11."""

MIN_REPS = 2
MAX_REPS = 12
SETUP_ONLY_REPS = 1
"""Extra spawn-to-ready repetitions per run, so ``setup_s`` is the
median of at least three set-ups."""

SCALES: Dict[str, Dict[str, Any]] = {
    "default": {
        "columns": 256,
        "groups": 1,
        "trials": 4,
        "serve_trials": 2,
        # At ci_target 0.02 fig9 and fig10 converge after a seed-dependent
        # number of rounds, so the work itself varies by a third between
        # seeds; at 0.05 it stays within 3% and still takes 13 rounds.
        "adaptive": {"ci_target": 0.05, "round_trials": 4, "max_trials": 32},
    },
    "smoke": {
        "columns": 64,
        "groups": 1,
        "trials": 2,
        "serve_trials": 2,
        "adaptive": {"ci_target": 0.02, "round_trials": 2, "max_trials": 4},
    },
}


@dataclass(frozen=True)
class Workload:
    """How one workload drives the system.

    Every workload runs the same user path -- set up, commit a
    campaign, audit it, cold-start ``serve`` on it, then read from the
    server -- and differs in the executor, the planner, and whether a
    writer commits beside the readers.
    """

    name: str
    executor: str
    """``make_executor`` name the campaign runs on."""
    jobs: Optional[int] = None
    adaptive: bool = False
    churn: bool = False
    """Re-commit figures from a writer thread during the read phase."""
    cold_starts: int = 2
    """Cold ``serve`` spawns per repetition."""
    read_burst_s: float = 1.5
    """Length of the closed-loop read burst after each repetition."""

    def trials(self, scale: Dict[str, Any]) -> int:
        return scale["serve_trials"] if self.churn else scale["trials"]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("paper-campaign", executor="fused"),
        Workload("pipelined-campaign", executor="fused-parallel", jobs=2),
        Workload("adaptive-campaign", executor="fused", adaptive=True),
        Workload(
            "serve-readwrite",
            executor="fused",
            churn=True,
            cold_starts=3,
            read_burst_s=3.0,
        ),
    )
}


def ensure_source() -> None:
    """Exit 2 without a result when the program under test is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {SRC / 'repro'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for interpreters the benchmark spawns."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def usable_cpus() -> List[int]:
    """CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric definitions and bounds."""
    return json.loads(BENCHMARK_JSON.read_text())


# -- host-speed probe -----------------------------------------------------------

PROBE_PERIOD_S = 0.02
PROBE_REFERENCE_S = 0.00075
"""What :func:`probe_unit` takes on the reference box (2 vCPUs) in its fast state."""
PROBE_INTERRUPTED = 3.0
"""A unit slower than this multiple of its CPU's fastest decile was
preempted, not slowed down, and tells nothing about the host's speed.
(In busy hours whole stretches run 2x slower, so a tighter cut would
drop exactly the units that show the slowdown.)"""
PROBE_MIN_SAMPLES = 5
PROBE_SENSITIVITY = 1.4
"""How much more the program slows than the probe unit when the host does.

Over about 200 repetitions on the reference box, log(phase time)
against log(mean unit time) had a slope of 1.3-1.45 for campaigns and
audits and 1.2 for set-up, with correlation 0.95-0.99; one exponent
for every phase left ten runs' spreads at 2-7% in quiet and in busy
hours, where an exponent of 1 left up to 14%."""
_PROBE_PAYLOAD = bytes(range(256)) * 4


def probe_unit() -> None:
    """A fixed slice of pure-Python work that holds the GIL throughout.

    Dict building, JSON encoding, sorting and BLAKE2b hashing of inputs
    under 2 KiB (larger ones would release the GIL and let the unit be
    interleaved with the caller's threads).  It uses none of the
    program's code, so a change to the program cannot make it faster.
    """
    table = {str(i): (i, i * 3.0) for i in range(250)}
    text = json.dumps(table)
    for _ in range(8):
        hashlib.blake2b(_PROBE_PAYLOAD).digest()
    sorted(text)


class SpeedProbe:
    """The host's speed on some CPUs, sampled while timed phases run.

    On a shared machine each vCPU flips between a fast and a slow state,
    about 1.4-1.7x apart, for tenths of a second to seconds at a time,
    independently of the other vCPU.  Calibrations before and after a
    phase miss most of those flips.  So, while a phase runs, one daemon
    thread per CPU, pinned to it, times :func:`probe_unit` every
    :data:`PROBE_PERIOD_S` -- about 4% of that CPU.  A phase's time is
    then reported at the reference speed: ``raw * factor(start, end)``,
    where the factor is ``(reference / observed unit time) **``
    :data:`PROBE_SENSITIVITY`.
    Used as a context manager; windows are ``time.monotonic()`` values.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None):
        self._cpus: List[Optional[int]] = list(cpus) if cpus else [None]
        self._samples: List[Tuple[float, float, Optional[int]]] = []
        """``(time.monotonic() at the end, duration, CPU)`` per unit."""
        self._halt = threading.Event()
        self._threads: List[threading.Thread] = []
        self._steady: Optional[Dict[Optional[int], Tuple[List[float], List[float]]]] = None

    def __enter__(self) -> "SpeedProbe":
        for cpu in self._cpus:
            thread = threading.Thread(
                target=self._sample, args=(cpu,), name=f"speed-probe-{cpu}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._halt.set()
        for thread in self._threads:
            thread.join(timeout=10)

    def _sample(self, cpu: Optional[int]) -> None:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._halt.wait(PROBE_PERIOD_S):
            started = time.perf_counter()
            probe_unit()
            duration = time.perf_counter() - started
            self._samples.append((time.monotonic(), duration, cpu))

    def _units(self) -> Dict[Optional[int], Tuple[List[float], List[float]]]:
        """Per CPU, the times and durations of the units not preempted."""
        if self._steady is None:
            steady = {}
            for cpu in {sample[2] for sample in self._samples}:
                own = sorted(sample[:2] for sample in self._samples if sample[2] == cpu)
                fastest = sorted(duration for _, duration in own)[len(own) // 10]
                own = [unit for unit in own if unit[1] <= PROBE_INTERRUPTED * fastest]
                steady[cpu] = ([unit[0] for unit in own], [unit[1] for unit in own])
            self._steady = steady
        return self._steady

    def factor(self, start: float, end: float, cpu: Optional[int] = None) -> float:
        """Reference over the mean unit time between ``start`` and ``end``,
        to the power :data:`PROBE_SENSITIVITY`.

        Units from ``cpu`` only, or from every probed CPU; a window too
        short to hold :data:`PROBE_MIN_SAMPLES` units takes the nearest
        ones.  Call it once the probe has stopped.
        """
        if self._threads and not self._halt.is_set():
            raise RuntimeError("stop the speed probe before asking for factors")
        durations: List[float] = []
        for probed, (times, units) in self._units().items():
            if cpu is not None and probed != cpu:
                continue
            low, high = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
            if high - low < PROBE_MIN_SAMPLES:
                middle = bisect.bisect_left(times, (start + end) / 2.0)
                low = max(0, min(middle - PROBE_MIN_SAMPLES // 2, len(times) - PROBE_MIN_SAMPLES))
                high = low + PROBE_MIN_SAMPLES
            durations += units[low:high]
        if not durations:
            raise RuntimeError("the speed probe took no samples")
        return (PROBE_REFERENCE_S / statistics.fmean(durations)) ** PROBE_SENSITIVITY


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0])
        return [value, value, value]
    return [float(q) for q in statistics.quantiles(values, n=4)]


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, fraction: float) -> int:
    """Samples strictly beyond the nearest-rank ``fraction`` percentile."""
    return count - math.ceil(fraction * count)


# -- provenance -----------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    # The ceiling keeps git from walking above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, scale_name: str, workers: int = 2) -> Dict[str, Any]:
    """Machine and code identity stamped into every result JSON."""
    import numpy

    from repro.engine import available_cpu_count

    usable = available_cpu_count()
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    stamp: Dict[str, Any] = {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "available_cpu_count": usable,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "scale": dict(SCALES[scale_name], name=scale_name),
        "notes": [],
    }
    if usable < workers:
        stamp["notes"].append(
            f"time-sliced: {usable} usable CPU(s) for {workers} worker "
            "processes, so parallel numbers measure time-slicing"
        )
    return stamp
