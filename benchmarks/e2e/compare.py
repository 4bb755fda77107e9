#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

Usage (each argument a directory of result JSON written by ``run.py
--out``, or one such file)::

    python3 benchmarks/e2e/compare.py BASE_DIR NEW_DIR

For every workload and end-to-end metric it prints each side's median
and quartiles with the sample count, the ratio of the medians with its
base, and one verdict:

- ``better``: the new side wins at least nine tenths of the run pairs
  (paired by seed when the sides share seeds, else in order; ties
  count for neither), and the medians differ by more than the base's
  inter-quartile distance -- and no more operations failed;
- ``worse``: the new median is worse than the base by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved``: either side's inter-quartile spread, as a share of
  its median, is wider than the bound, unless every new run reads
  better than every base run;
- ``within bound`` otherwise.

Exit status is 1 when any pairing is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from common import benchmark_spec, quartiles, relative_spread

Runs = Dict[str, List[Dict[str, Any]]]


def load_runs(path: Path) -> Runs:
    """Untraced result documents under ``path``, by workload."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    runs: Runs = {}
    for file in files:
        document = json.loads(file.read_text())
        if not isinstance(document, dict) or document.get("trace") != 0:
            continue
        runs.setdefault(document["workload"], []).append(document)
    return runs


def _pairs(base: List[Dict[str, Any]], new: List[Dict[str, Any]]) -> List[Tuple[Dict, Dict]]:
    by_seed = {run["seed"]: run for run in base}
    shared = [run for run in new if run["seed"] in by_seed]
    if shared:
        return [(by_seed[run["seed"]], run) for run in shared]
    return list(zip(base, new))


def verdict(metric: Dict[str, Any], base: Sequence[float], new: Sequence[float],
            pairs: Sequence[Tuple[float, float]], more_failures: bool) -> str:
    """The section-8 verdict for one metric on one workload."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nmed = quartiles(new)[1]
    worse_by = sign * (nmed - bmed) / bmed if bmed else 0.0
    spread = max(relative_spread(base), relative_spread(new))
    every_new_better = (
        max(new) < min(base) if sign > 0 else min(new) > max(base)
    )
    if spread > metric["bound"]:
        return "better" if every_new_better and not more_failures else "unresolved"
    if worse_by > metric["bound"]:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (bmed - nmed) > (bq3 - bq1)
        and not more_failures
    ):
        return "better"
    return "within bound"


def _fmt(values: Sequence[float]) -> str:
    q1, mid, q3 = quartiles(values)
    return f"{mid:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(base: Runs, new: Runs) -> Tuple[List[str], bool]:
    """Report lines, and whether every pairing passed."""
    metrics = benchmark_spec()["end_to_end"]
    lines = [
        f"{'workload':<20} {'metric':<14} {'base median [q1, q3]':<32} "
        f"{'new median [q1, q3]':<32} {'new/base (of base)':<26} verdict"
    ]
    passed = True
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            lines.append(f"{workload:<20} (runs on one side only)")
            passed = False
            continue
        pairs = _pairs(base[workload], new[workload])
        more_failures = sum(run["failed"] for run in new[workload]) > sum(
            run["failed"] for run in base[workload]
        )
        for metric in metrics:
            name = metric["name"]
            b = [run["metrics"][name]["value"] for run in base[workload] if name in run["metrics"]]
            n = [run["metrics"][name]["value"] for run in new[workload] if name in run["metrics"]]
            if not b or not n:
                lines.append(f"{workload:<20} {name:<14} (not measured)")
                passed = False
                continue
            paired = [
                (pb["metrics"][name]["value"], pn["metrics"][name]["value"])
                for pb, pn in pairs
                if name in pb["metrics"] and name in pn["metrics"]
            ]
            result = verdict(metric, b, n, paired, more_failures)
            passed = passed and result not in ("worse", "unresolved")
            bmed, nmed = quartiles(b)[1], quartiles(n)[1]
            ratio = f"{nmed / bmed:.3f}x of {bmed:.4g} {metric['unit']}"
            lines.append(
                f"{workload:<20} {name:<14} {_fmt(b):<32} {_fmt(n):<32} "
                f"{ratio:<26} {result} (bound {metric['bound']:.0%})"
            )
        failed = [run["failed"] for run in new[workload]]
        if any(failed):
            lines.append(f"{workload:<20} new runs with failed operations: {failed}")
            passed = False
    return lines, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    lines, passed = compare(load_runs(args.base), load_runs(args.new))
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
