"""Tests for the campaign runner."""

import pytest

from repro.characterization.campaign import Campaign, EXPERIMENT_PROGRAMS
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import make_executor
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def scope():
    config = SimulationConfig(seed=43, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


class TestCampaign:
    def test_all_experiment_ids_registered(self):
        assert set(EXPERIMENT_PROGRAMS) == {
            "fig3", "fig4a", "fig4b", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12a", "fig12b",
        }

    def test_every_program_is_named_by_its_key(self, scope):
        # Sources, the commit sink and the fleet route outcomes by
        # program name: a mismatch would commit under the wrong figure.
        for name, build in EXPERIMENT_PROGRAMS.items():
            assert build(scope).name == name

    def test_run_and_render(self, scope):
        campaign = Campaign(scope)
        result = campaign.run(["fig11", "fig4a"])
        assert result.completed == ["fig11", "fig4a"]
        report = campaign.render(result)
        assert "fig11" in report and "fig4a" in report

    def test_run_with_store(self, scope, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        campaign = Campaign(scope, store=store)
        result = campaign.run(["fig4a"])
        assert result.stored_at is not None
        assert store.names() == ["fig4a"]
        reloaded = store.load("fig4a")
        assert "50.0" in reloaded

    def test_distribution_experiments_persist(self, scope, tmp_path):
        store = ResultStore(tmp_path / "campaign2")
        Campaign(scope, store=store).run(["fig11"])
        reloaded = store.load("fig11")
        assert set(reloaded) == {"all0", "all1", "random"}

    def test_unknown_experiment_rejected(self, scope):
        with pytest.raises(ExperimentError):
            Campaign(scope).run(["fig99"])

    def test_repeated_experiment_rejected(self, scope, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        with make_executor("fused") as engine:
            campaign = Campaign(scope, store=store, executor=engine)
            with pytest.raises(ExperimentError, match="fig4a"):
                campaign.run(["fig4a", "fig11", "fig4a"])
        assert store.load_manifest() is None  # refused before any work

    def test_empty_campaign_rejected(self, scope):
        with pytest.raises(ExperimentError):
            Campaign(scope).run([])

    def test_grid_experiment_renders_tables(self, scope):
        campaign = Campaign(scope)
        result = campaign.run(["fig10"])
        report = campaign.render(result)
        assert "mean" in report  # distribution table header


class TestEngineStatsPerRun:
    def test_reused_executor_records_only_this_runs_counters(self, tmp_path):
        from repro.engine import FusedExecutor

        scope = CharacterizationScope.build(
            config=SimulationConfig(seed=2024, columns_per_row=64),
            specs=TESTED_MODULES,
            modules_per_spec=1,
            groups_per_size=1,
            trials=2,
        )
        store = ResultStore(tmp_path / "campaign")
        executor = FusedExecutor()
        first = Campaign(scope, store=store, executor=executor).run(["fig4a"])
        assert first.engine_stats["plans"] == 25
        # The same engine serves a no-op resume: its lifetime counters
        # still hold the first run's 25 plans, but this run ran none.
        resumed = Campaign(scope, store=store, executor=executor).run(
            ["fig4a"], resume=True
        )
        assert resumed.skipped == ["fig4a"]
        assert resumed.engine_stats["plans"] == 0
        assert executor.metrics.plans == 25
        assert store.load("engine-stats")["plans"] == 25
