#!/usr/bin/env python3
"""Per-layer report of a traced benchmark run.

Usage::

    python3 benchmarks/e2e/trace_report.py DIR/paper-campaign.trace.jsonl [...]

For each trace it prints three things:

- every span name on the blocking path (the thread that ran
  ``Campaign.run`` and ``audit_store``) with its calls, self time and
  share of that path, then the same table for the server's threads;
- the per-layer metrics of ``BENCHMARK.json``, derived exactly as the
  traced run derived them;
- a text timeline of the busiest layers on the blocking path, drawn
  with ``repro.analysis.ascii_plot``: whiskers span a layer's first to
  last activity, the box holds the middle half of its self time and
  ``#`` marks the median.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import benchmark_spec, ensure_source
from tracing import AUDIT_ROOT, CAMPAIGN_ROOT, SpanIndex, layer_metrics, read_trace

TIMELINE_LAYERS = 8


def _blocking_thread(spans: List[Dict[str, Any]]) -> Any:
    for span in spans:
        if span["name"] == CAMPAIGN_ROOT:
            return span["thread"]
    return spans[0]["thread"] if spans else None


def span_table(index: SpanIndex, spans: List[Dict[str, Any]], path_s: float) -> List[str]:
    calls: Dict[str, int] = defaultdict(int)
    own: Dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span["name"]] += 1
        own[span["name"]] += index.self_time[span["id"]]
    lines = [f"  {'span':<52} {'calls':>8} {'self s':>10} {'share':>7}"]
    for name in sorted(own, key=own.get, reverse=True):
        share = f"{own[name] / path_s:7.1%}" if path_s else "      -"
        lines.append(f"  {name:<52} {calls[name]:>8} {own[name]:>10.4f} {share}")
    return lines


def _weighted_quantiles(points: List[Tuple[float, float]], fractions) -> List[float]:
    points.sort()
    total = sum(weight for _, weight in points)
    out, running, cursor = [], 0.0, 0
    for fraction in fractions:
        while cursor < len(points) - 1 and running + points[cursor][1] < fraction * total:
            running += points[cursor][1]
            cursor += 1
        out.append(points[cursor][0])
    return out


def timeline(index: SpanIndex, spans: List[Dict[str, Any]]) -> str:
    from repro.analysis import ascii_boxplot
    from repro.characterization.stats import DistributionSummary

    if not spans:
        return "(no spans)"
    origin = min(span["start"] for span in spans)
    activity: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        midpoint = (span["start"] + span["end"]) / 2.0 - origin
        activity[span["name"]].append((midpoint, max(index.self_time[span["id"]], 0.0)))
    busiest = sorted(
        activity, key=lambda name: sum(w for _, w in activity[name]), reverse=True
    )[:TIMELINE_LAYERS]
    rows = {}
    for name in busiest:
        points = activity[name]
        q1, median, q3 = _weighted_quantiles(list(points), (0.25, 0.5, 0.75))
        seconds = sum(w for _, w in points)
        rows[f"{name} ({seconds:.2f} s)"] = DistributionSummary(
            mean=median, minimum=min(p for p, _ in points), q1=q1,
            median=median, q3=q3, maximum=max(p for p, _ in points),
            n=len(points),
        )
    end = max(span["end"] for span in spans) - origin
    return ascii_boxplot(rows, lo=0.0, hi=end) + "\n  (seconds since the first span)"


def report(path: Path) -> str:
    meta, spans = read_trace(path)
    index = SpanIndex(spans)
    main = _blocking_thread(spans)
    blocking = [span for span in spans if span["thread"] == main]
    others = [span for span in spans if span["thread"] != main]
    roots = [span for span in blocking if span["name"] in (CAMPAIGN_ROOT, AUDIT_ROOT)]
    path_s = index.total_s(roots)
    lines = [f"== {path.name}: blocking path {path_s:.3f} s "
             f"(Campaign.run + audit_store), {len(spans)} spans"]
    lines += span_table(index, blocking, path_s)
    if others:
        lines.append("-- server threads (off the blocking path)")
        lines += span_table(index, others, 0.0)
    lines.append("-- per-layer metrics")
    units = {metric["name"]: metric["unit"] for metric in benchmark_spec()["per_layer"]}
    for name, value in layer_metrics(meta, spans).items():
        lines.append(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
    lines.append("-- timeline of the blocking path")
    lines.append(timeline(index, blocking))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("traces", nargs="+", type=Path)
    args = parser.parse_args(argv)
    ensure_source()
    for path in args.traces:
        print(report(path))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
