"""Each BENCH file's provenance names the code it measured."""

import argparse
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "run_benchmarks.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture(scope="module")
def run_benchmarks():
    spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def checkout(tmp_path):
    for name in ("src/repro/a.py", "benchmarks/bench_a.py", "README.md"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"# {name}\n")
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(["git", "add", "-A"], cwd=tmp_path, check=True)
    return tmp_path


def test_editing_a_tracked_file_changes_the_hash(run_benchmarks, checkout):
    before = run_benchmarks.tree_hash(checkout)
    assert before.startswith("sha256:")
    assert run_benchmarks.tree_hash(checkout) == before
    (checkout / "src/repro/a.py").write_text("# edited, not staged\n")
    assert run_benchmarks.tree_hash(checkout) != before


def test_untracked_run_output_does_not_change_the_hash(run_benchmarks, checkout):
    before = run_benchmarks.tree_hash(checkout)
    for work in (checkout / ".bench_e2e", checkout / "benchmarks" / ".bench_e2e"):
        work.mkdir()
        (work / "rep-0.json").write_text("{}")
    assert run_benchmarks.tree_hash(checkout) == before


def test_files_outside_src_and_benchmarks_do_not_count(run_benchmarks, checkout):
    before = run_benchmarks.tree_hash(checkout)
    (checkout / "README.md").write_text("# edited\n")
    assert run_benchmarks.tree_hash(checkout) == before


def test_provenance_carries_the_hash(run_benchmarks):
    args = argparse.Namespace(
        columns=64, groups=1, trials=2, seed=2024, jobs=None,
        campaign=False, campaign_trials=0,
        planner=False, planner_max_trials=0,
    )
    stamp = run_benchmarks.provenance(args)
    assert stamp["tree_sha256"] == run_benchmarks.tree_hash()


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
)
def test_committed_bench_files_come_from_a_clean_tree(path):
    # A report stamped dirty measured code no commit holds.
    assert json.loads(path.read_text())["provenance"]["git_dirty"] is False
