"""The read path never loads the simulator, nor numpy until it computes.

``serve``, ``stats`` and every ``--help`` only read stored
results, so importing them must not pay for the DRAM model, the test
rig or the trial engine.  A served version-2 figure does no array
math either, so ``serve`` loads numpy only for a ``/ci`` bootstrap or
a version-3 column sidecar.  Each case runs in a fresh interpreter
(the test process itself has everything loaded) and reports which of
the watched modules ended up in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.characterization.stats import summarize
from repro.characterization.store import CampaignManifest, ResultStore
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
READ_PATH = SIMULATOR + ("numpy",)


def _probe(snippet: str, cwd: Path):
    """Run ``snippet`` in a fresh interpreter; its last line as JSON."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + existing if existing else "")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(snippet)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(snippet: str, cwd: Path, watched=SIMULATOR) -> list:
    """The ``watched`` modules (and their submodules) after ``snippet``."""
    return _probe(textwrap.dedent(snippet) + textwrap.dedent(f"""
        import json, sys
        watched = {list(watched)!r}
        print(json.dumps(sorted(
            name for name in sys.modules
            if any(name == w or name.startswith(w + ".") for w in watched)
        )))
    """), cwd)


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
    "snippet, watched",
    [
        ("import repro.service.http", READ_PATH),
        ("import repro.cli", READ_PATH),
        (_main(["serve", "--help"]), READ_PATH),
        (_main(["campaign", "--help"]), READ_PATH),
        (_main(["stats", "--results-dir", "results"]), READ_PATH),
    ],
    ids=["import-http", "import-cli", "serve-help", "campaign-help",
         "stats"],
)
def test_read_path_loads_no_simulator_module(snippet, watched, tiny_store):
    assert _loaded_after(snippet, cwd=tiny_store.parent, watched=watched) == []


def test_breaker_loads_without_the_audit(tmp_path):
    watched = READ_PATH + ("repro.health.audit",)
    assert _loaded_after("import repro.health.breaker", tmp_path, watched) == []


_SERVED = [
    ("results", "/figures/fig", False),
    ("results", "/figures/fig", True),
    ("results", "/figures", False),
    ("manifest", "/audit/status", False),
    ("results", "/ci/fig?resamples=200&seed=1", False),
    ("columnar", "/figures/fig", False),
]
"""The served requests, as ``(store, target, revalidate)``: a
version-2 figure, its ``If-None-Match`` revalidation, the listing and
the audit status of a store holding a campaign manifest, then the two
that need numpy -- a bootstrap CI, and the same figure
saved in version 3, whose summaries sit in a column sidecar.  The
version-3 save and the manifest have a store each because the listing
reads every artifact."""

_SERVE_PROBE = f"""
import json, sys
from repro.characterization.reader import ResultReader
from repro.service import HotFigureCache, ResultService
services, answers, numpy_loaded = {{}}, [], []
for store, target, revalidate in {_SERVED!r}:
    if store not in services:
        reader = ResultReader(store)
        services[store] = ResultService(reader, cache=HotFigureCache(reader))
    headers = {{"If-None-Match": answers[0][1]}} if revalidate else {{}}
    response = services[store].handle("GET", target, headers)
    answers.append(
        [response.status, response.headers.get("ETag"), response.body.decode()]
    )
    numpy_loaded.append("numpy" in sys.modules)
print(json.dumps({{"answers": answers, "numpy": numpy_loaded}}))
"""
"""Serve :data:`_SERVED` from the stores under the working directory;
print every ``[status, ETag, body]`` and whether numpy was loaded
after each request."""


def test_served_figure_loads_numpy_only_for_ci_or_a_sidecar(
    tmp_path, monkeypatch, capsys
):
    data = {
        "rows": {
            str(rows): summarize([0.5 + 0.01 * rows + 0.002 * k for k in range(9)])
            for rows in (2, 4, 8, 16, 32)
        },
        "rows_tested": [2, 4, 8, 16, 32],
    }
    for name, columnar in (("results", False), ("columnar", True)):
        ResultStore(tmp_path / name, columnar=columnar).save(
            "fig", data, notes=name
        )
    ResultStore(tmp_path / "manifest").save_manifest(
        CampaignManifest(planned=["fig"], completed=["fig"], serials=["A#0"])
    )
    served = _probe(_SERVE_PROBE, cwd=tmp_path)
    assert served["numpy"] == [False, False, False, False, True, True]
    assert [status for status, _, _ in served["answers"]] == [
        200, 304, 200, 200, 200, 200,
    ]

    # The same requests in this process, which has numpy loaded.
    monkeypatch.chdir(tmp_path)
    exec(_SERVE_PROBE, {})
    rendered = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert served["answers"] == rendered["answers"]
