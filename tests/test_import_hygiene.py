"""The read path never loads the simulator.

``serve``, ``stats``, ``cache`` and every ``--help`` only read stored
results, so importing them must not pay for the DRAM model, the test
rig or the trial engine.  Each case runs in a fresh interpreter (the
test process itself has everything loaded) and reports which of the
simulator's modules ended up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.characterization.store import ResultStore
from repro.engine.metrics import EngineMetrics

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

SIMULATOR = (
    "repro.engine.executors",
    "repro.bender",
    "repro.dram",
    "repro.core",
    "repro.chaos",
    "repro.rngblock",
)


def _loaded_after(snippet: str, cwd: Path, watched=SIMULATOR) -> list:
    """The ``watched`` modules (and their submodules) after ``snippet``."""
    probe = textwrap.dedent(snippet) + textwrap.dedent(f"""
        import json, sys
        watched = {list(watched)!r}
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == w or name.startswith(w + ".") for w in watched)
        )))
    """)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _main(argv: list) -> str:
    """Run the CLI on ``argv``; the probe fails unless it exits 0."""
    return f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main({argv!r})
            except SystemExit as exc:
                code = exc.code
        assert code == 0, code
    """


@pytest.fixture()
def tiny_store(tmp_path):
    store = ResultStore(tmp_path / "results")
    store.save("engine-stats", EngineMetrics(executor="fused").as_dict())
    return store.directory


@pytest.mark.parametrize(
    "snippet",
    [
        "import repro.service.http",
        "import repro.cli",
        _main(["serve", "--help"]),
        _main(["campaign", "--help"]),
        _main(["stats", "--results-dir", "results"]),
        _main(["cache", "stats", "--cache-dir", "cache"]),
    ],
    ids=["import-http", "import-cli", "serve-help", "campaign-help",
         "stats", "cache-stats"],
)
def test_read_path_loads_no_simulator_module(snippet, tiny_store):
    assert _loaded_after(snippet, cwd=tiny_store.parent) == []


def test_breaker_loads_without_the_audit(tmp_path):
    watched = SIMULATOR + ("repro.health.audit",)
    assert _loaded_after("import repro.health.breaker", tmp_path, watched) == []

