"""Tests for the stored-campaign integrity audit."""

import json

import pytest

from repro import rngblock
from repro.characterization.campaign import Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import CampaignManifest, ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import FusedExecutor, kernels
from repro.errors import ExperimentError
from repro.health import audit_store, scope_from_manifest


def make_scope(seed: int = 47) -> CharacterizationScope:
    config = SimulationConfig(seed=seed, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def scope_keyed(scope):
    """Deterministic, scope-keyed stand-in for a real figure's data."""
    return {
        "serials": [bench.module.serial for bench in scope.benches],
        "trials": scope.trials,
        "banks": list(scope.banks),
    }


def no_sleep(_delay: float) -> None:
    return None


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "results")


@pytest.fixture()
def stored_campaign(store, fake_figure):
    fake_figure("figfake", scope_keyed)
    result = Campaign(make_scope(), store=store, sleep=no_sleep).run(["figfake"])
    assert result.succeeded
    return store


class TestScopeFromManifest:
    def test_round_trips_the_fleet(self, stored_campaign):
        manifest = stored_campaign.load_manifest()
        rebuilt = scope_from_manifest(manifest)
        original = make_scope()
        assert [b.module.serial for b in rebuilt.benches] == [
            b.module.serial for b in original.benches
        ]
        assert rebuilt.trials == original.trials
        assert rebuilt.groups_per_size == original.groups_per_size
        assert rebuilt.benches[0].module.config.seed == 47

    def test_requires_a_config_fingerprint(self):
        manifest = CampaignManifest(planned=["x"], serials=["A#0"])
        with pytest.raises(ExperimentError):
            scope_from_manifest(manifest)

    def test_requires_serials(self):
        manifest = CampaignManifest(
            planned=["x"],
            fingerprint={"seed": 1, "columns_per_row": 64,
                         "trials_per_test": 2},
        )
        with pytest.raises(ExperimentError):
            scope_from_manifest(manifest)

    def test_rejects_unknown_serials(self):
        manifest = CampaignManifest(
            planned=["x"],
            fingerprint={"seed": 1, "columns_per_row": 64,
                         "trials_per_test": 2},
            serials=["NOT-A-MODULE#0"],
        )
        with pytest.raises(ExperimentError):
            scope_from_manifest(manifest)


class TestAuditStore:
    def test_clean_store_passes(self, stored_campaign):
        report = audit_store(stored_campaign, sample=1)
        assert report.passed
        assert report.artifacts_checked >= 1
        assert report.figures_recomputed == 1
        assert any(
            f.kind == "recompute" and f.status == "match"
            for f in report.findings
        )

    def test_recompute_catches_rewritten_data(self, stored_campaign):
        # Re-save valid-checksum but *wrong* bits: only the recompute
        # pass can catch this class of damage.
        stored_campaign.save("figfake", {"serials": ["bogus"], "trials": 0})
        report = audit_store(stored_campaign, sample=1)
        assert not report.passed
        assert any(
            f.kind == "recompute" and f.status == "mismatch"
            for f in report.findings
        )
        assert "FAIL" in report.summary_lines()[-1]

    def test_integrity_catches_tampered_bytes(self, stored_campaign):
        path = stored_campaign.directory / "figfake.json"
        document = json.loads(path.read_text())
        document["data"]["trials"] = 999
        path.write_text(json.dumps(document))
        report = audit_store(stored_campaign, sample=1)
        assert not report.passed
        assert any(
            f.kind == "integrity" and f.status == "mismatch"
            for f in report.findings
        )
        # A checksum-failed artifact is not a recompute candidate.
        assert report.figures_recomputed == 0

    def test_sample_is_deterministic(self, stored_campaign):
        first = audit_store(stored_campaign, sample=1, seed=9)
        second = audit_store(stored_campaign, sample=1, seed=9)
        assert [f.name for f in first.findings] == [
            f.name for f in second.findings
        ]

    def test_zero_sample_skips_recompute(self, stored_campaign):
        report = audit_store(stored_campaign, sample=0)
        assert report.passed
        assert report.figures_recomputed == 0

    def test_negative_sample_rejected(self, store):
        with pytest.raises(ExperimentError):
            audit_store(store, sample=-1)

    def test_missing_serials_skips_recompute_but_flags_it(
        self, stored_campaign
    ):
        manifest = stored_campaign.load_manifest()
        manifest.serials = []
        stored_campaign.save_manifest(manifest)
        report = audit_store(stored_campaign, sample=1)
        assert report.passed  # skipped is benign, not a failure
        assert any(
            f.kind == "recompute" and f.status == "skipped"
            for f in report.findings
        )

    def test_report_as_dict(self, stored_campaign):
        payload = audit_store(stored_campaign, sample=1).as_dict()
        assert payload["passed"] is True
        assert payload["mismatches"] == 0
        assert payload["figures_recomputed"] == 1
        assert all(
            set(f) == {"name", "kind", "status", "detail"}
            for f in payload["findings"]
        )


class TestAdaptiveRecompute:
    """Audit of adaptive campaigns: rebuild the planner from the
    fingerprint, replay it bit-for-bit."""

    @pytest.fixture()
    def adaptive_store(self, store):
        from repro.engine import AdaptiveConfig, SerialExecutor

        adaptive = AdaptiveConfig(
            ci_target=0.05, round_trials=2, max_trials=4,
            resamples=200, seed=3,
        )
        with SerialExecutor() as executor:
            result = Campaign(
                make_scope(), store=store, executor=executor,
                adaptive=adaptive, sleep=no_sleep,
            ).run(["fig4a"])
        assert result.succeeded
        return store

    def test_recompute_matches_the_adaptive_run(self, adaptive_store):
        report = audit_store(adaptive_store, sample=1)
        assert report.passed
        assert report.figures_recomputed == 1

    def test_recompute_catches_tampered_adaptive_data(self, adaptive_store):
        path = adaptive_store.directory / "fig4a.json"
        document = json.loads(path.read_text())
        document["data"] = {"forged": True}
        path.write_text(json.dumps(document))
        report = audit_store(adaptive_store, sample=1)
        assert not report.passed

    def test_unusable_adaptive_knobs_skip_recompute_with_a_reason(
        self, adaptive_store
    ):
        manifest = adaptive_store.load_manifest()
        manifest.fingerprint["adaptive"]["ci_target"] = -1.0
        adaptive_store.save_manifest(manifest)
        report = audit_store(adaptive_store, sample=1)
        assert report.passed  # skipped is benign, not a failure
        skipped = [
            finding for finding in report.findings
            if finding.kind == "recompute" and finding.status == "skipped"
        ]
        assert skipped
        assert "unusable adaptive knobs" in skipped[0].detail


class TestAuditSensitivity:
    """The serial recompute must catch a defect on the fused path.

    Each mutation stays in place through the audit too, so a reference
    that silently shared the fast path would reproduce the same wrong
    bits, pass, and fail nothing else.  fig10 runs Multi-RowCopy in
    both APA regimes, the copy (t1 >= 6 ns) and the charge-sharing
    majority.
    """

    def audit_fused_fig10(self, store):
        with FusedExecutor() as executor:
            result = Campaign(
                make_scope(), store=store, executor=executor, sleep=no_sleep
            ).run(["fig10"])
        assert result.succeeded
        report = audit_store(store, sample=1)
        assert report.figures_recomputed == 1
        return [f.status for f in report.findings if f.kind == "recompute"]

    def test_unmutated_fused_store_matches(self, store):
        assert self.audit_fused_fig10(store) == ["match"]

    def test_block_rng_bit_flip_is_caught(self, store, monkeypatch):
        original = rngblock.uniform_bit_block
        flips = []

        def flipped(seeds, n_bits):
            bits = original(seeds, n_bits)
            if bits.size:
                bits[0, 0] ^= 1
                flips.append(len(seeds))
            return bits

        monkeypatch.setattr(rngblock, "uniform_bit_block", flipped)
        assert self.audit_fused_fig10(store) == ["mismatch"]
        assert flips

    def test_source_row_dropped_from_the_charge_share_is_caught(
        self, store, monkeypatch
    ):
        original = kernels._resolve_majority
        dropped = []

        def without_source(bench, task, point, levels):
            # fig10 charge-shares in Multi-RowCopy's majority regime
            # only; leave the source row out of the opened rows.
            rows = sorted(task.group.rows)
            keep = [i for i, row in enumerate(rows) if row != task.group.row_first]
            dropped.append(task.index)
            return original(bench, task, point, levels[:, keep])

        monkeypatch.setattr(kernels, "_resolve_majority", without_source)
        assert self.audit_fused_fig10(store) == ["mismatch"]
        assert dropped
