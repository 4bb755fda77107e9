"""The fused executors' semantic probe is still a chaos fault point.

The probe resolves each task's APA semantic from the bank's decision
table instead of replaying cells, but it crosses the same chaotic link
as a replay: persistent bench failures still take the failing module
out of the campaign, and rate-keyed transfer faults still fire and are
retried away, so a seeded chaos campaign under ``fused`` commits the
same bytes as the serial chaos run.
"""

import json

import pytest

from repro.characterization.activation import program_fig4a
from repro.characterization.campaign import (
    EXPERIMENT_PROGRAMS,
    Campaign,
    RetryPolicy,
)
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import make_executor
from repro.health import BreakerPolicy, HealthTracker

FIGURES = ("fig4a", "fig11")
FAILING = TESTED_MODULES[1].module_identifier + "#0"


def make_scope(specs=None) -> CharacterizationScope:
    return CharacterizationScope.build(
        config=SimulationConfig(seed=43, columns_per_row=64),
        specs=list(specs) if specs is not None else TESTED_MODULES[:3],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def no_sleep(_delay: float) -> None:
    return None


@pytest.mark.parametrize("name", ["fused", "fused-parallel"])
def test_persistent_failure_quarantines_the_module(name, monkeypatch):
    monkeypatch.setitem(
        EXPERIMENT_PROGRAMS,
        "fig4a",
        lambda scope: program_fig4a(
            scope, sizes=(4,), temperatures=(50.0, 70.0)
        ),
    )
    chaos = ChaosConfig(seed=5, bench_failure_serials=(FAILING,))
    with make_executor(name, jobs=2) as executor:
        result = Campaign(
            make_scope(),
            chaos=chaos,
            executor=executor,
            health=HealthTracker(
                BreakerPolicy(failure_threshold=1, max_trips=1)
            ),
            sleep=no_sleep,
        ).run(["fig4a"])
    assert result.succeeded
    assert result.quality["fig4a"]["modules_quarantined"] == [FAILING]
    healthy = [TESTED_MODULES[0], TESTED_MODULES[2]]
    clean = Campaign(make_scope(specs=healthy), sleep=no_sleep).run(["fig4a"])
    assert clean.data["fig4a"] == result.data["fig4a"]


def run_chaotic(directory, name):
    store = ResultStore(directory)
    chaos = ChaosConfig(
        seed=7,
        program_drop_rate=0.05,
        readback_corruption_rate=0.05,
        max_faults_per_kind=2,
    )
    with make_executor(name) as executor:
        result = Campaign(
            make_scope(specs=TESTED_MODULES[:2]),
            store=store,
            chaos=chaos,
            retry=RetryPolicy(max_attempts=20, base_delay_s=0.0),
            executor=executor,
        ).run(list(FIGURES))
    assert result.succeeded
    return store, result


def test_fused_chaos_campaign_commits_serial_bytes(tmp_path):
    serial_store, _ = run_chaotic(tmp_path / "serial", "serial")
    fused_store, fused = run_chaotic(tmp_path / "fused", "fused")
    # Transfer faults reach the fused path only through the probe.
    assert fused.chaos_faults_injected > 0
    for name in FIGURES:
        serial_doc = json.loads(
            (serial_store.directory / f"{name}.json").read_text()
        )
        fused_doc = json.loads(
            (fused_store.directory / f"{name}.json").read_text()
        )
        assert serial_doc["data"] == fused_doc["data"], name
        assert serial_doc["checksum"] == fused_doc["checksum"], name
