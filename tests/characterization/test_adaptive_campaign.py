"""Acceptance tests for adaptive (CI-targeted) campaigns.

The adaptive path's contract: commits carry a per-cell ``planner``
quality annotation, rounds leave journal breadcrumbs, the adaptive
knobs ride the manifest fingerprint (so resume refuses to mix budgets
and audit can replay the planner bit-for-bit), and a fixed-budget
campaign is entirely untouched by the feature.
"""

import json

import pytest

from repro.characterization.campaign import Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import AdaptiveConfig, SerialExecutor, make_executor
from repro.errors import ConfigurationError, ExperimentError
from repro.health.audit import audit_store

FIGURES = ("fig4a", "fig9")

ADAPTIVE = AdaptiveConfig(
    ci_target=0.03, round_trials=2, max_trials=8, resamples=400, seed=7
)


def _scope():
    return CharacterizationScope.build(
        config=SimulationConfig(seed=43, columns_per_row=64),
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=4,
    )


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("adaptive") / "results")
    with make_executor("serial") as executor:
        campaign = Campaign(
            _scope(), store=store, executor=executor, adaptive=ADAPTIVE
        )
        result = campaign.run(FIGURES)
    return store, campaign, result


class TestAdaptiveCampaign:
    def test_completes_every_experiment(self, stored):
        _, _, result = stored
        assert result.completed == list(FIGURES)
        assert not result.failures

    def test_planner_quality_annotation(self, stored):
        _, _, result = stored
        for name in FIGURES:
            planner = result.quality[name]["planner"]
            assert planner["adaptive"] is True
            assert planner["rounds"] >= 1
            assert planner["trials_run"] <= planner["trials_planned"]
            assert planner["trials_saved"] == (
                planner["trials_planned"] - planner["trials_run"]
            )
            for cell in planner["cells"]:
                assert cell["stop_reason"] in (
                    "converged", "budget", "fixed", "empty"
                )
                assert cell["trials_run"] <= cell["trials_planned"]

    def test_quality_is_stored_with_the_artifact(self, stored):
        store, _, _ = stored
        document = json.loads(
            (store.directory / "fig9.json").read_text()
        )
        planner = document["quality"]["planner"]
        assert planner["adaptive"] is True
        assert planner["cells"]

    def test_fingerprint_records_the_adaptive_knobs(self, stored):
        store, _, _ = stored
        manifest = store.load_manifest()
        assert manifest.fingerprint["adaptive"] == ADAPTIVE.as_dict()

    def test_rounds_are_journaled(self, stored):
        store, _, _ = stored
        rounds = [
            entry for entry in store.journal_entries()
            if entry.get("event") == "adaptive-round"
        ]
        assert rounds
        assert {entry["experiment"] for entry in rounds} <= set(FIGURES)
        for entry in rounds:
            assert entry["round"] >= 1
            assert all(
                count >= 1 for count in entry["allocation"].values()
            )

    def test_summary_mentions_the_trial_accounting(self, stored):
        _, campaign, result = stored
        text = "\n".join(result.summary_lines())
        assert "[adaptive:" in text
        assert "cells converged" in text

    def test_audit_replays_the_planner(self, stored):
        store, _, _ = stored
        report = audit_store(store, sample=len(FIGURES))
        assert report.passed
        assert report.figures_recomputed == len(FIGURES)

    def test_resume_skips_completed_experiments(self, stored):
        store, _, _ = stored
        with make_executor("serial") as executor:
            result = Campaign(
                _scope(), store=store, executor=executor, adaptive=ADAPTIVE
            ).run(FIGURES, resume=True)
        assert result.skipped == list(FIGURES)
        assert result.completed == []

    def test_fixed_budget_resume_refuses_adaptive_store(self, stored):
        store, _, _ = stored
        with pytest.raises(ExperimentError, match="different configuration"):
            Campaign(_scope(), store=store).run(FIGURES, resume=True)

    def test_changed_knobs_refuse_resume(self, stored):
        store, _, _ = stored
        other = AdaptiveConfig(
            ci_target=0.1, round_trials=2, max_trials=8, seed=7
        )
        with make_executor("serial") as executor:
            with pytest.raises(ExperimentError, match="different configuration"):
                Campaign(
                    _scope(), store=store, executor=executor, adaptive=other
                ).run(FIGURES, resume=True)


class TestAdaptiveDeterminism:
    def test_rerun_produces_identical_artifacts(self, stored, tmp_path):
        first, _, _ = stored
        second = ResultStore(tmp_path / "again")
        with make_executor("serial") as executor:
            Campaign(
                _scope(), store=second, executor=executor, adaptive=ADAPTIVE
            ).run(FIGURES)
        for name in FIGURES:
            a = json.loads((first.directory / f"{name}.json").read_text())
            b = json.loads((second.directory / f"{name}.json").read_text())
            assert a["data"] == b["data"]
            assert a["checksum"] == b["checksum"]
            assert a["quality"] == b["quality"]


class TestSupervisedAdaptive:
    def test_combines_with_supervision(self, stored, tmp_path):
        from repro.health import HealthTracker

        _, _, unsupervised = stored
        store = ResultStore(tmp_path / "supervised")
        result = Campaign(
            _scope(),
            store=store,
            executor=SerialExecutor(),
            health=HealthTracker(),
            adaptive=ADAPTIVE,
        ).run(FIGURES)
        assert result.completed == list(FIGURES)
        for name in FIGURES:
            # Supervision's annotation plus the planner's, same data.
            quality = result.quality[name]
            assert quality["supervised"] is True
            assert quality["coverage"] == 1.0
            assert quality["planner"] == unsupervised.quality[name]["planner"]
            assert result.data[name] == unsupervised.data[name]
        assert audit_store(store, sample=len(FIGURES)).passed


class TestFixedBudgetUnaffected:
    def test_fixed_campaign_has_no_adaptive_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "fixed")
        Campaign(_scope(), store=store).run(["fig4a"])
        manifest = store.load_manifest()
        assert "adaptive" not in manifest.fingerprint
        assert audit_store(store, sample=1).passed


class TestGuards:
    def test_adaptive_requires_an_executor(self):
        with pytest.raises(ConfigurationError, match="executor"):
            Campaign(_scope(), adaptive=ADAPTIVE)
