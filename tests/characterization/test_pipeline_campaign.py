"""Acceptance: a pipelined campaign is bit-identical to a serial one.

The ISSUE's core determinism contract: running a multi-experiment
campaign through the persistent-pool scheduler must leave artifacts on
disk that are byte-for-byte the same (data and checksums) as the
reference serial run, and the stored campaign must survive the full
audit (checksums + serial recompute).
"""

import json

import pytest

from repro.characterization.campaign import Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import make_executor
from repro.health.audit import audit_store

FIGURES = ("fig4a", "fig11")


def _scope():
    config = SimulationConfig(seed=43, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline_acceptance")
    serial_store = ResultStore(root / "serial")
    Campaign(_scope(), store=serial_store).run(FIGURES)

    pipe_store = ResultStore(root / "pipelined")
    with make_executor("fused-parallel", jobs=2) as executor:
        Campaign(_scope(), store=pipe_store, executor=executor).run(FIGURES)
        pipelined_plans = executor.metrics.pipelined_plans
    return serial_store, pipe_store, pipelined_plans


class TestBitIdenticalArtifacts:
    def test_scheduler_actually_pipelined(self, stores):
        _, _, pipelined_plans = stores
        assert pipelined_plans > 0

    def test_figure_documents_match_serial_run(self, stores):
        serial_store, pipe_store, _ = stores
        for name in FIGURES:
            serial_doc = json.loads(
                (serial_store.directory / f"{name}.json").read_text()
            )
            pipe_doc = json.loads(
                (pipe_store.directory / f"{name}.json").read_text()
            )
            assert pipe_doc["data"] == serial_doc["data"]
            assert pipe_doc["checksum"] == serial_doc["checksum"]
            assert pipe_doc.get("quality") == serial_doc.get("quality")

    def test_store_names_match(self, stores):
        serial_store, pipe_store, _ = stores
        # engine-stats exists only on the executor-backed run; every
        # figure artifact must match.
        assert set(serial_store.names()) | {"engine-stats"} == set(
            pipe_store.names()
        )

    def test_manifests_record_the_same_completions(self, stores):
        serial_store, pipe_store, _ = stores
        serial_manifest = serial_store.load_manifest()
        pipe_manifest = pipe_store.load_manifest()
        assert serial_manifest is not None and pipe_manifest is not None
        assert serial_manifest.completed == pipe_manifest.completed
        assert serial_manifest.failures == pipe_manifest.failures == {}

    def test_pipelined_store_passes_full_audit(self, stores):
        _, pipe_store, _ = stores
        report = audit_store(pipe_store, sample=2, seed=0, scope=_scope())
        assert report.passed
        assert report.artifacts_checked > 0
        assert report.figures_recomputed > 0
