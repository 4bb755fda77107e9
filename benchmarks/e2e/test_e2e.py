"""Smoke tests of the end-to-end benchmark.

Run explicitly with ``PYTHONPATH=src python -m pytest benchmarks/e2e``;
the tier-1 suite does not collect them.  Workload runs use the smoke
scale (columns=64, groups=1, trials=2) and a one-second budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402

RUN = HERE / "run.py"
SPEC = common.benchmark_spec()
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]


def _run(tmp_path: Path, *args: str, root: Path = common.ROOT):
    done = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
         "--scale", "smoke", "--seconds", "1", "--out", str(tmp_path), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return done


def _summary(done) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _results(tmp_path: Path) -> list:
    return [json.loads(path.read_text()) for path in sorted(tmp_path.glob("*.json"))]


@pytest.mark.parametrize("workload", sorted(common.WORKLOADS))
def test_plain_run_checks_outputs_and_reports_every_end_to_end_metric(tmp_path, workload):
    summary = _summary(_run(tmp_path, "--workload", workload, "--seed", "2024"))
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert sorted(summary["metrics"]) == sorted(END_TO_END)
    assert all(record["value"] > 0 for record in summary["metrics"].values())
    (result,) = _results(tmp_path)
    stamp = result["provenance"]
    for key in ("git_sha", "git_dirty", "available_cpu_count", "nproc",
                "python", "numpy", "platform", "seed", "scale"):
        assert key in stamp
    assert stamp["scale"]["name"] == "smoke"
    assert result["samples"]["setup_s"] >= common.SETUP_ONLY_REPS + common.MIN_REPS
    assert result["samples"]["campaign_s"] >= common.MIN_REPS
    bursts = result["raw"]["read_bursts"]
    assert len(bursts) == result["samples"]["campaign_s"]
    assert all(burst["p99_beyond"] >= 10 for burst in bursts)


@pytest.mark.parametrize("workload", sorted(common.WORKLOADS))
def test_traced_run_reports_every_layer_metric(tmp_path, workload):
    summary = _summary(
        _run(tmp_path, "--workload", workload, "--seed", "2024", "--trace")
    )
    assert summary["correct"]
    assert sorted(summary["metrics"]) == sorted(PER_LAYER)
    assert (tmp_path / f"{workload}.trace.jsonl").is_file()
    if workload in ("paper-campaign", "adaptive-campaign"):
        assert summary["metrics"]["trace.campaign_coverage"]["value"] >= 0.9


def test_paper_and_pipelined_commit_equal_artifacts_at_any_seed(tmp_path):
    summary = _summary(_run(
        tmp_path, "--workloads", "paper-campaign", "pipelined-campaign",
        "--seed", "11",
    ))
    assert summary["correct"]
    digests = [result["digests"] for result in _results(tmp_path)]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_missing_program_source_exits_without_a_result(tmp_path):
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(tmp_path / "out", "--workload", "paper-campaign", root=tmp_path)
    assert done.returncode == 2
    assert "correct" not in done.stdout


def test_wrappers_are_removed_after_a_traced_run():
    common.ensure_source()
    from repro.bender.testbench import TestBench
    from repro.characterization.experiment import CharacterizationScope
    from repro.engine import executors

    originals = (
        TestBench.__dict__["run"],
        CharacterizationScope.__dict__["build"],
        executors.run_task_serial,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert TestBench.__dict__["run"] is not originals[0]
        assert executors.run_task_serial is not originals[2]
        CharacterizationScope.build(groups_per_size=1, trials=1)
    finally:
        tracer.uninstall()
    assert TestBench.__dict__["run"] is originals[0]
    assert CharacterizationScope.__dict__["build"] is originals[1]
    assert executors.run_task_serial is originals[2]
    names = {span["name"] for span in tracer.spans()}
    assert "experiment.CharacterizationScope.build" in names
    # Wrappers nobody called are what the run's hit check reports.
    assert "executors.run_task_serial" in tracer.missed("paper-campaign")


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 1, "parent": 0, "name": "root", "start": 0.0, "end": 10.0,
         "thread": 1, "size": None},
        {"id": 2, "parent": 1, "name": "child", "start": 1.0, "end": 4.0,
         "thread": 1, "size": 3},
        {"id": 3, "parent": 2, "name": "leaf", "start": 2.0, "end": 3.0,
         "thread": 1, "size": None},
    ]
    index = tracing.SpanIndex(spans)
    assert index.self_time == {1: 7.0, 2: 2.0, 3: 1.0}
    assert index.select(["leaf"], under="root") == [spans[2]]
    assert index.select(["leaf"], parent="root") == []
    assert index.coverage("root") == pytest.approx(0.3)


def test_read_check_flags_torn_and_mislabelled_figures():
    import serveload

    renderings = {"fig7": ('"sha256:a"', frozenset({b"v2", b"v3"}))}
    etag = {"etag": '"sha256:a"'}
    assert serveload._check("figure", "fig7", 200, etag, b"v3", renderings) is None
    assert "torn" in serveload._check("figure", "fig7", 200, etag, b"mix", renderings)
    assert "etag" in serveload._check(
        "figure", "fig7", 200, {"etag": '"sha256:b"'}, b"v2", renderings
    )
    assert serveload._check("revalidate", "fig7", 304, etag, b"", renderings) is None
    assert "HTTP 200" in serveload._check("revalidate", "fig7", 200, etag, b"v2", renderings)
    assert "HTTP 503" in serveload._check("list", "", 503, {}, b"", renderings)


def test_speed_probe_scales_by_the_window_and_drops_preempted_units():
    reference = common.PROBE_REFERENCE_S
    probe = common.SpeedProbe()
    fast = [(t * 0.02, reference, 0) for t in range(50)]
    slow = [(1.0 + t * 0.02, 1.5 * reference, 0) for t in range(50)]
    preempted = [(1.5, 40 * reference, 0)]
    probe._samples = fast + slow + preempted
    assert probe.factor(0.0, 0.99) == pytest.approx(1.0)
    assert probe.factor(1.0, 2.0) == pytest.approx(1.5 ** -common.PROBE_SENSITIVITY)
    # A window too short to hold a sample takes the nearest few.
    assert probe.factor(0.501, 0.502) == pytest.approx(1.0)
    with common.SpeedProbe(common.usable_cpus()[:1]) as running:
        started = time.monotonic()
        time.sleep(0.3)
    assert 0.2 < running.factor(started, time.monotonic()) < 5.0


def test_percentiles_and_sample_counts():
    values = list(range(1, 1001))
    assert common.percentile(values, 0.99) == 990
    assert common.beyond(1000, 0.99) == 10
    assert common.beyond(6000, 0.99) == 60
    assert common.quartiles([5.0]) == [5.0, 5.0, 5.0]
    q1, mid, q3 = common.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, mid, q3) == (1.25, 2.5, 3.75)
    assert common.relative_spread([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)


def _synthetic(directory: Path, values, failed: int = 0) -> Path:
    directory.mkdir()
    for seed, value in enumerate(values):
        metrics = {
            metric["name"]: {"value": value, "unit": metric["unit"]}
            for metric in SPEC["end_to_end"]
        }
        document = {"workload": "paper-campaign", "seed": seed, "trace": 0,
                    "failed": failed, "metrics": metrics}
        (directory / f"run-{seed}.json").write_text(json.dumps(document))
    return directory


def _verdicts(tmp_path: Path, base, new, failed: int = 0) -> dict:
    lines, _ = compare.compare(
        compare.load_runs(_synthetic(tmp_path / "base", base)),
        compare.load_runs(_synthetic(tmp_path / "new", new, failed)),
    )
    verdicts = {}
    for line in lines[1:]:
        fields = line.split()
        if len(fields) > 2 and fields[1] in END_TO_END:
            verdicts[fields[1]] = line
    return verdicts


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_compare_reports_a_win(tmp_path):
    verdicts = _verdicts(tmp_path, BASE, [value * 0.7 for value in BASE])
    assert "better" in verdicts["campaign_s"]  # lower is better
    assert "worse" in verdicts["read_rps"]  # higher is better
    assert "0.700x of 10 s" in verdicts["campaign_s"]


def test_compare_reports_a_loss(tmp_path):
    verdicts = _verdicts(tmp_path, BASE, [value * 1.4 for value in BASE])
    assert "worse" in verdicts["campaign_s"]
    assert "better" in verdicts["read_rps"]


def test_compare_reports_a_tie(tmp_path):
    verdicts = _verdicts(tmp_path, BASE, list(reversed(BASE)))
    assert all("within bound" in line for line in verdicts.values())


def test_compare_marks_wide_spreads_unresolved(tmp_path):
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 9.0, 11.0, 5.5, 14.5, 10.0]
    verdicts = _verdicts(tmp_path, BASE, noisy)
    assert "unresolved" in verdicts["campaign_s"]


def test_compare_refuses_a_gain_with_more_failures(tmp_path):
    verdicts = _verdicts(tmp_path, BASE, [value * 0.7 for value in BASE], failed=1)
    assert "better" not in verdicts["campaign_s"]
