"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

SCALE = ["--columns", "128", "--groups", "2", "--trials", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "18 modules / 120 chips" in out

    def test_decoder_fig14_example(self, capsys):
        assert main(["decoder", "--rf", "0", "--rs", "7"]) == 0
        out = capsys.readouterr().out
        assert "4 rows" in out
        assert "[0, 1, 6, 7]" in out

    def test_decoder_32_row_example(self, capsys):
        assert main(["decoder", "--rf", "127", "--rs", "128"]) == 0
        assert "32 rows" in capsys.readouterr().out

    def test_activation(self, capsys):
        assert main(["activation", "--rows", "8", *SCALE]) == 0
        assert "8-row" in capsys.readouterr().out

    def test_majority(self, capsys):
        assert main(["majority", "--x", "3", "--rows", "8", *SCALE]) == 0
        assert "MAJ3@8-row" in capsys.readouterr().out

    def test_rowcopy(self, capsys):
        assert main(["rowcopy", "--destinations", "3", *SCALE]) == 0
        assert "->3 rows" in capsys.readouterr().out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "REF" in out and "21.19%" in out

    def test_spice(self, capsys):
        assert main(["spice", "--sets", "100"]) == 0
        out = capsys.readouterr().out
        assert "Fig 15a" in out and "Fig 15b" in out

    def test_coldboot(self, capsys):
        assert main(["coldboot"]) == 0
        assert "multirowcopy-32" in capsys.readouterr().out

    def test_speedups(self, capsys):
        assert main(["speedups"]) == 0
        out = capsys.readouterr().out
        assert "Mfr. H" in out and "Mfr. M" in out

    def test_trng(self, capsys):
        assert main(["trng", "--bits", "64", "--columns", "256"]) == 0
        assert "monobit" in capsys.readouterr().out

    def test_besttiming_finds_papers_majx_config(self, capsys):
        assert main([
            "besttiming", "--operation", "majx", *SCALE
        ]) == 0
        out = capsys.readouterr().out
        assert "t1=1.5ns, t2=3.0ns" in out

    def test_selftest(self, capsys):
        assert main(["selftest", "--columns", "128"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_trng_hex_output(self, capsys):
        assert main([
            "trng", "--bits", "64", "--columns", "256", "--hex"
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines[-1]) == 16  # 64 bits = 8 bytes = 16 hex chars


class TestCampaignCommand:
    CAMPAIGN_SCALE = ["--columns", "64", "--groups", "1", "--trials", "2"]

    def test_campaign_with_chaos_then_resume(self, capsys, tmp_path):
        results_dir = str(tmp_path / "results")
        assert main([
            "campaign", "--experiments", "fig4a",
            *self.CAMPAIGN_SCALE,
            "--results-dir", results_dir,
            "--retries", "12", "--backoff-s", "0.001",
            "--chaos", "--chaos-rate", "0.2", "--chaos-seed", "11",
            "--chaos-max-faults", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fig4a: done" in out
        assert "chaos faults injected:" in out

        assert main([
            "campaign", "--experiments", "fig4a",
            *self.CAMPAIGN_SCALE,
            "--results-dir", results_dir,
            "--resume",
        ]) == 0
        assert "fig4a: skipped (already completed, resumed)" in (
            capsys.readouterr().out
        )

    def test_repeated_experiment_is_a_usage_error(self, capsys, tmp_path):
        assert main([
            "campaign", "--experiments", "fig3", "fig3",
            *self.CAMPAIGN_SCALE,
            "--results-dir", str(tmp_path / "results"),
        ]) == 2
        assert "more than once: ['fig3']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "figures", [["fig3", "fig3"], ["fig3", "fig99"]],
        ids=["repeated", "unknown"],
    )
    def test_refused_figure_list_leaves_no_results_dir(
        self, capsys, tmp_path, figures
    ):
        results_dir = tmp_path / "x"
        assert main([
            "campaign", "--experiments", *figures, *self.CAMPAIGN_SCALE,
            "--results-dir", str(results_dir),
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not results_dir.exists()


class TestAdaptiveCampaignCommand:
    SCALE = ["--columns", "64", "--groups", "1", "--trials", "2"]
    ADAPTIVE = [
        "--adaptive", "--ci-target", "0.05",
        "--round-trials", "2", "--max-trials", "8",
    ]

    def test_adaptive_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["campaign", "--adaptive"])
        assert args.adaptive is True
        assert args.ci_target == 0.02
        assert args.round_trials == 4
        assert args.max_trials == 32

    def test_adaptive_campaign_then_audit_and_stats(self, capsys, tmp_path):
        results_dir = str(tmp_path / "results")
        assert main([
            "campaign", "--experiments", "fig9", *self.SCALE,
            "--results-dir", results_dir, *self.ADAPTIVE,
        ]) == 0
        out = capsys.readouterr().out
        assert "fig9: done" in out
        assert "[adaptive:" in out

        # The audit rebuilds the planner from the manifest fingerprint
        # and replays it bit-for-bit.
        assert main([
            "audit", "--results-dir", results_dir, "--sample", "1",
        ]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

        # Planner counters surface in the stats report.
        assert main(["stats", "--results-dir", results_dir]) == 0
        out = capsys.readouterr().out
        assert "adaptive planner" in out
        assert "rounds" in out

    def test_adaptive_combines_with_supervision(self, capsys, tmp_path):
        results_dir = str(tmp_path / "r")
        assert main([
            "campaign", "--supervise", *self.ADAPTIVE, *self.SCALE,
            "--experiments", "fig9", "--results-dir", results_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "fig9: done" in out and "[adaptive:" in out
        assert "fleet health: 0 module(s) quarantined" in out
        assert main([
            "audit", "--results-dir", results_dir, "--sample", "1",
        ]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_bad_knobs_are_usage_errors(self, capsys, tmp_path):
        assert main([
            "campaign", "--adaptive", "--ci-target", "0", *self.SCALE,
            "--results-dir", str(tmp_path / "r"),
        ]) == 2
        assert "ci_target" in capsys.readouterr().err
        assert main([
            "campaign", "--adaptive", "--round-trials", "8",
            "--max-trials", "4", *self.SCALE,
            "--results-dir", str(tmp_path / "r2"),
        ]) == 2
        assert "max_trials" in capsys.readouterr().err


class TestFleetCampaignCommand:
    """Campaigns on the fused-parallel executor's forked workers."""

    SCALE = ["--columns", "64", "--groups", "1", "--trials", "2"]
    POOL = ["--executor", "fused-parallel", "--jobs", "2"]

    @pytest.mark.parametrize("flags", [
        ["--supervise"],
        ["--adaptive", "--ci-target", "0.05", "--round-trials", "2",
         "--max-trials", "8"],
    ], ids=["supervise", "adaptive"])
    def test_fleet_combines(self, capsys, tmp_path, flags):
        # Every source runs on the fused-parallel executor.
        assert main([
            "campaign", *self.POOL, *flags, "--experiments", "fig3",
            *self.SCALE, "--results-dir", str(tmp_path / "r"),
        ]) == 0
        assert "fig3: done" in capsys.readouterr().out

    def test_fleet_refuses_a_bad_figure_list_before_spawning(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.engine import ProcessPoolExecutor

        def spawn(*args, **kwargs):
            raise AssertionError("a refused campaign started its workers")

        monkeypatch.setattr(ProcessPoolExecutor, "_launch", spawn)
        results_dir = tmp_path / "r"
        assert main([
            "campaign", *self.POOL, "--experiments", "fig99",
            *self.SCALE, "--results-dir", str(results_dir),
        ]) == 2
        assert "unknown experiments ['fig99']" in capsys.readouterr().err
        assert not results_dir.exists()

    def test_fleet_campaign_resumes(self, capsys, tmp_path):
        command = [
            "campaign", *self.POOL, "--experiments", "fig3", "fig6",
            *self.SCALE, "--results-dir", str(tmp_path / "results"),
        ]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "fig3: done" in out and "fig6: done" in out

        assert main([*command, "--resume"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig6"):
            assert f"{name}: skipped (already completed, resumed)" in out
        assert ": done" not in out

    def test_chips_samples_beyond_the_catalog_on_any_executor(
        self, capsys, tmp_path
    ):
        stores = {}
        for name, executor in (
            ("fused", ["--executor", "fused"]), ("pool", self.POOL),
        ):
            stores[name] = tmp_path / name
            assert main([
                "campaign", *executor, "--chips", "6",
                "--experiments", "fig3", *self.SCALE,
                "--results-dir", str(stores[name]),
            ]) == 0
            assert "Campaign over 6 modules" in capsys.readouterr().out
        assert (stores["fused"] / "fig3.json").read_bytes() == (
            stores["pool"] / "fig3.json"
        ).read_bytes()
        assert main([
            "audit", "--results-dir", str(stores["fused"]), "--sample", "1",
        ]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_default_scope_is_the_catalog_scope(self):
        from repro.characterization.experiment import CharacterizationScope
        from repro.cli import _scope_from
        from repro.config import SimulationConfig

        args = build_parser().parse_args(["campaign", *self.SCALE])
        got = _scope_from(args)
        want = CharacterizationScope.build(
            config=SimulationConfig(seed=args.seed, columns_per_row=64),
            groups_per_size=1,
            trials=2,
        )
        assert [b.module.serial for b in got.benches] == [
            b.module.serial for b in want.benches
        ]
        assert [b.module.config for b in got.benches] == [
            b.module.config for b in want.benches
        ]
        assert (got.banks, got.subarrays, got.groups_per_size, got.trials) == (
            want.banks, want.subarrays, want.groups_per_size, want.trials,
        )

    def test_zero_chips_is_a_usage_error(self, capsys, tmp_path):
        results_dir = tmp_path / "r"
        assert main([
            "campaign", "--chips", "0", "--experiments", "fig3",
            *self.SCALE, "--results-dir", str(results_dir),
        ]) == 2
        assert "at least one chip" in capsys.readouterr().err
        assert not results_dir.exists()

    def test_stats_on_a_fleet_store(self, capsys, tmp_path):
        from repro.characterization.campaign import Campaign
        from repro.characterization.experiment import CharacterizationScope
        from repro.characterization.store import ResultStore
        from repro.config import SimulationConfig
        from repro.dram.vendor import TESTED_MODULES
        from repro.engine import ProcessPoolExecutor

        scope = CharacterizationScope.build(
            config=SimulationConfig(columns_per_row=64),
            specs=TESTED_MODULES[:1],
            groups_per_size=1,
            trials=2,
        )
        store = ResultStore(tmp_path / "results")
        with ProcessPoolExecutor(jobs=2) as executor:
            Campaign(scope, store=store, executor=executor).run(["fig3"])
        stored = store.load("engine-stats")
        assert stored["dispatches"] > 0
        assert stored["cells"] > 0
        assert stored["worker_deaths"] == 0
        assert main(["stats", "--results-dir", str(store.directory)]) == 0
        out = capsys.readouterr().out
        assert "engine stats (fused-parallel executor)" in out
        assert "dispatches" in out

        # A no-op resume adds nothing and erases nothing.
        with ProcessPoolExecutor(jobs=2) as executor:
            Campaign(scope, store=store, executor=executor).run(
                ["fig3"], resume=True
            )
        assert store.load("engine-stats")["dispatches"] == stored["dispatches"]
        assert main(["stats", "--results-dir", str(store.directory)]) == 0
        assert "dispatches" in capsys.readouterr().out


class TestEngineCommands:
    SCALE = ["--columns", "64", "--groups", "1", "--trials", "2"]

    @pytest.mark.parametrize("executor", ["serial", "fused"])
    def test_activation_with_executor(self, capsys, executor):
        assert main([
            "activation", "--rows", "8", *self.SCALE,
            "--executor", executor, "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "8-row" in out
        assert f"engine stats ({executor} executor)" in out

    def test_executor_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["activation", "--executor", "gpu"])

    def test_campaign_stats_round_trip(self, capsys, tmp_path):
        from repro.characterization.store import ResultStore

        results_dir = str(tmp_path / "results")
        command = [
            "campaign", "--experiments", "fig4a", *self.SCALE,
            "--results-dir", results_dir,
            "--executor", "fused",
        ]
        assert main(command) == 0
        capsys.readouterr()
        assert main(["stats", "--results-dir", results_dir]) == 0
        out = capsys.readouterr().out
        assert "engine stats (fused executor)" in out
        assert "APA programs" in out

        # A no-op resume keeps the first run's counters.
        plans = ResultStore(results_dir).load("engine-stats")["plans"]
        assert plans > 0
        assert main([*command, "--resume"]) == 0
        capsys.readouterr()
        assert main(["stats", "--results-dir", results_dir]) == 0
        out = capsys.readouterr().out
        assert f"plans executed    : {plans}\n" in out

        # A damaged earlier record is replaced by the resume's own.
        ResultStore(results_dir).reader.path_for("engine-stats").write_text("{")
        assert main([*command, "--resume"]) == 0
        capsys.readouterr()
        assert ResultStore(results_dir).load("engine-stats")["plans"] == 0

    def test_stats_renders_a_stored_legacy_occupancy_key(
        self, capsys, tmp_path
    ):
        from repro.characterization.store import ResultStore
        from repro.engine import EngineMetrics

        # Stats payloads stored before the rename carry ``occupancy``
        # next to the counters it derives from.
        payload = EngineMetrics(
            executor="parallel", plans=1, tasks=2, trials=8,
            apa_programs=8, cells=64, workers=2, wall_s=1.0, busy_s=1.0,
        ).as_dict()
        payload["occupancy"] = 0.5
        results_dir = tmp_path / "results"
        ResultStore(results_dir).save("engine-stats", payload)
        assert main(["stats", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine stats (parallel executor)" in out
        assert "executor busy fraction: 50.0%" in out

    def test_stats_renders_stored_cache_counters(self, capsys, tmp_path):
        from repro.characterization.store import ResultStore
        from repro.engine import EngineMetrics

        # Stats payloads stored while the trial cache existed carry its
        # four counters; they load and render without a cache section.
        payload = EngineMetrics(
            executor="fused", plans=1, tasks=6, trials=24, cells=64,
        ).as_dict()
        payload.update(
            cache_hits=5, cache_misses=1, cache_bytes_read=2048,
            cache_bytes_written=512,
        )
        results_dir = tmp_path / "results"
        ResultStore(results_dir).save("engine-stats", payload)
        assert main(["stats", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine stats (fused executor)" in out
        assert "trial cache" not in out

    def test_stats_renders_a_stored_stragglers_reissued_key(
        self, capsys, tmp_path
    ):
        from repro.characterization.store import ResultStore
        from repro.engine import EngineMetrics

        # Stats payloads stored while the pool and the fleet duplicated
        # overdue work, or kept their own supervision counters, carry
        # counters the engine no longer keeps.
        payload = EngineMetrics(
            executor="fused-parallel", plans=1, tasks=2, trials=8,
            apa_programs=8, cells=64, workers=2, wall_s=1.0, busy_s=1.0,
        ).as_dict()
        payload["stragglers_reissued"] = 3
        for old in (
            "pool_restarts", "pool_reuses", "fleet_items",
            "fleet_reissued", "fleet_worker_deaths",
        ):
            payload[old] = 2
        results_dir = tmp_path / "results"
        ResultStore(results_dir).save("engine-stats", payload)
        assert main(["stats", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "engine stats (fused-parallel executor)" in out
        assert "plans executed    : 1" in out
        assert "executor busy fraction: 50.0%" in out
        assert "straggler" not in out
        assert "pool restarts" not in out and "fleet items" not in out

    @pytest.mark.parametrize("command", ["campaign"])
    @pytest.mark.parametrize(
        "removed, replacement",
        [("batched", "fused"), ("parallel", "fused-parallel")],
    )
    def test_removed_executor_names_the_replacement(
        self, capsys, command, removed, replacement
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--executor", removed])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"executor {removed!r} was removed" in err
        assert f"use {replacement!r}" in err
        assert "bit-identical" in err

    def test_stats_without_campaign_hints(self, capsys, tmp_path):
        assert main(
            ["stats", "--results-dir", str(tmp_path / "empty")]
        ) == 2
        err = capsys.readouterr().err
        assert "hint" in err

    def test_audit_pass_then_catches_tampering(self, capsys, tmp_path):
        import json

        results_dir = tmp_path / "results"
        assert main([
            "campaign", "--experiments", "fig4a", *self.SCALE,
            "--results-dir", str(results_dir),
        ]) == 0
        capsys.readouterr()

        assert main([
            "audit", "--results-dir", str(results_dir), "--sample", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "figures recomputed: 1" in out

        path = results_dir / "fig4a.json"
        document = json.loads(path.read_text())
        document["data"] = {"forged": True}
        path.write_text(json.dumps(document))
        assert main([
            "audit", "--results-dir", str(results_dir), "--sample", "1",
        ]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAIL" in out
        assert "integrity fig4a: mismatch" in out

        # The stats command surfaces the stored audit verdict.
        assert main(["stats", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "last audit: FAIL" in out
        assert "audit mismatches" in out

    def test_supervised_campaign_reports_fleet_health(self, capsys, tmp_path):
        assert main([
            "campaign", "--experiments", "fig4a", *self.SCALE,
            "--results-dir", str(tmp_path / "results"),
            "--supervise",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet health: 0 module(s) quarantined" in out
        assert "coverage 100%" in out

    def test_bench_writes_report(self, capsys, tmp_path):
        output = tmp_path / "BENCH_engine.json"
        assert main([
            "bench", "--columns", "64", "--groups", "1", "--trials", "2",
            "--executors", "serial", "fused",
            "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical across executors: yes" in out
        assert output.exists()


class TestMigrateCommand:
    SCALE = ["--columns", "64", "--groups", "1", "--trials", "2"]

    def _campaign(self, results_dir, experiments=("fig3",)):
        assert main([
            "campaign", "--experiments", *experiments, *self.SCALE,
            "--results-dir", str(results_dir),
        ]) == 0

    def test_migrate_to_columnar_preserves_digests(self, capsys, tmp_path):
        import json

        source = tmp_path / "src"
        target = tmp_path / "dst"
        self._campaign(source)
        capsys.readouterr()
        assert main([
            "migrate", "--results-dir", str(source), "--out", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "migrated 'fig3': v2 -> v3" in out
        assert "copied campaign manifest" in out
        migrated = json.loads((target / "fig3.json").read_text())
        original = json.loads((source / "fig3.json").read_text())
        assert migrated["format_version"] == 3
        assert (target / migrated["columns"]["file"]).exists()
        # Content digest survives the format change: the audit layer
        # never needs to know which format a document uses.
        assert (
            migrated["checksum"]["digest"] == original["checksum"]["digest"]
        )
        assert main([
            "audit", "--results-dir", str(target), "--sample", "1",
        ]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_migrate_back_to_v2(self, capsys, tmp_path):
        import json

        source = tmp_path / "src"
        v3_dir = tmp_path / "v3"
        v2_dir = tmp_path / "v2"
        self._campaign(source)
        capsys.readouterr()
        assert main([
            "migrate", "--results-dir", str(source), "--out", str(v3_dir),
        ]) == 0
        assert main([
            "migrate", "--results-dir", str(v3_dir), "--out", str(v2_dir),
            "--no-columnar",
        ]) == 0
        assert "v3 -> v2" in capsys.readouterr().out
        restored = json.loads((v2_dir / "fig3.json").read_text())
        original = json.loads((source / "fig3.json").read_text())
        assert restored["format_version"] == 2
        assert restored["data"] == original["data"]
        assert restored["checksum"] == original["checksum"]

    def test_migrate_skips_damaged_results(self, capsys, tmp_path):
        import json

        source = tmp_path / "src"
        target = tmp_path / "dst"
        self._campaign(source)
        document = json.loads((source / "fig3.json").read_text())
        document["data"] = {"tampered": True}
        (source / "fig3.json").write_text(json.dumps(document))
        capsys.readouterr()
        assert main([
            "migrate", "--results-dir", str(source), "--out", str(target),
        ]) == 1
        captured = capsys.readouterr()
        assert "skipping 'fig3': integrity status mismatch" in captured.err
        assert not (target / "fig3.json").exists()


class TestRepairCommand:
    SCALE = ["--columns", "64", "--groups", "1", "--trials", "2"]

    def test_dry_run_then_repair_then_resume(self, capsys, tmp_path):
        results_dir = tmp_path / "results"
        assert main([
            "campaign", "--experiments", "fig4a", *self.SCALE,
            "--results-dir", str(results_dir),
        ]) == 0
        capsys.readouterr()

        # Tear the artifact the way an interrupted write would.
        path = results_dir / "fig4a.json"
        path.write_text(path.read_text()[:40])

        # Dry run reports the damage and exits non-zero, touching nothing.
        assert main([
            "repair", "--results-dir", str(results_dir), "--dry-run",
        ]) == 1
        out = capsys.readouterr().out
        assert "fig4a: torn-json -> would-quarantined" in out
        assert "nothing was changed" in out

        assert main(["repair", "--results-dir", str(results_dir)]) == 0
        out = capsys.readouterr().out
        assert "fig4a: torn-json -> quarantined" in out
        assert "1 item(s) repaired" in out

        # The patched manifest makes --resume re-run exactly the loss.
        assert main([
            "campaign", "--experiments", "fig4a", *self.SCALE,
            "--results-dir", str(results_dir), "--resume",
        ]) == 0
        assert "fig4a: done" in capsys.readouterr().out
        assert main([
            "audit", "--results-dir", str(results_dir), "--sample", "1",
        ]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_clean_store_repairs_to_nothing(self, capsys, tmp_path):
        results_dir = tmp_path / "results"
        assert main([
            "campaign", "--experiments", "fig4a", *self.SCALE,
            "--results-dir", str(results_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["repair", "--results-dir", str(results_dir)]) == 0
        assert "nothing to repair" in capsys.readouterr().out


class TestServeCommand:
    def test_missing_store_is_usage_error(self, capsys, tmp_path):
        assert main(
            ["serve", "--results-dir", str(tmp_path / "nope")]
        ) == 2
        assert "no result store" in capsys.readouterr().err

    def test_invalid_resilience_budget_is_usage_error(
        self, capsys, tmp_path
    ):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        assert main([
            "serve", "--results-dir", str(results_dir),
            "--max-concurrent-requests", "0",
        ]) == 2
        assert "max_concurrent_requests" in capsys.readouterr().err

    def test_invalid_chaos_rate_is_usage_error(self, capsys, tmp_path):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        assert main([
            "serve", "--results-dir", str(results_dir),
            "--chaos-read-error-rate", "1.5",
        ]) == 2
        assert "read_error_rate" in capsys.readouterr().err

    def test_serve_flags_parse(self):
        args = build_parser().parse_args([
            "serve",
            "--max-concurrent-requests", "8",
            "--max-connections", "32",
            "--request-timeout", "1.5",
            "--drain-timeout", "2.0",
            "--read-workers", "2",
            "--breaker-threshold", "3",
            "--breaker-cooldown", "4",
            "--chaos-digest-mismatch-rate", "0.5",
            "--chaos-max-faults", "6",
        ])
        assert args.max_concurrent_requests == 8
        assert args.request_timeout == 1.5
        assert args.breaker_threshold == 3
        assert args.chaos_digest_mismatch_rate == 0.5
        assert args.chaos_max_faults == 6
