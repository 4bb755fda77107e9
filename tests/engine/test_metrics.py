"""Tests for per-layer engine instrumentation."""

from repro.engine import EngineMetrics
from repro.engine.metrics import render_stats_dict


class TestMerge:
    def test_counters_add(self):
        total = EngineMetrics(executor="serial")
        total.merge(EngineMetrics(plans=1, tasks=2, trials=8, apa_programs=8,
                                  cells=64, wall_s=1.0, busy_s=1.0))
        total.merge(EngineMetrics(plans=1, tasks=3, trials=12, apa_programs=3,
                                  cells=96, wall_s=0.5, busy_s=0.5))
        assert total.plans == 2
        assert total.tasks == 5
        assert total.trials == 20
        assert total.apa_programs == 11
        assert total.cells == 160
        assert total.wall_s == 1.5

    def test_workers_take_the_max(self):
        total = EngineMetrics(workers=1)
        total.merge(EngineMetrics(workers=4))
        total.merge(EngineMetrics(workers=2))
        assert total.workers == 4

    def test_stages_accumulate(self):
        total = EngineMetrics()
        total.add_stage("probe", 0.25)
        total.merge(EngineMetrics(stages={"probe": 0.75, "fuse": 1.0}))
        assert total.stages == {"probe": 1.0, "fuse": 1.0}


class TestSince:
    def test_counters_and_stages_subtract(self):
        earlier = EngineMetrics(executor="fused", plans=2, wall_s=1.0)
        earlier.add_stage("probe", 0.5)
        earlier.add_stage("fuse", 0.25)
        later = EngineMetrics(executor="fused", plans=5, wall_s=3.0)
        later.add_stage("probe", 1.5)
        later.add_stage("fuse", 0.25)
        gained = later.since(earlier)
        assert gained.plans == 3
        assert gained.wall_s == 2.0
        assert gained.stages == {"probe": 1.0}
        assert later.stages == {"probe": 1.5, "fuse": 0.25}

    def test_states_keep_their_current_values(self):
        earlier = EngineMetrics(executor="fused-parallel", workers=2)
        later = EngineMetrics(executor="fused-parallel", workers=2)
        gained = later.since(earlier)
        assert gained.workers == 2
        assert gained.executor == "fused-parallel"


class TestOccupancy:
    def test_zero_wall_time_is_zero(self):
        assert EngineMetrics().executor_busy_fraction == 0.0

    def test_serial_fully_busy(self):
        metrics = EngineMetrics(workers=1, wall_s=2.0, busy_s=2.0)
        assert metrics.executor_busy_fraction == 1.0

    def test_parallel_partial_occupancy(self):
        metrics = EngineMetrics(workers=4, wall_s=1.0, busy_s=2.0)
        assert metrics.executor_busy_fraction == 0.5

    def test_capped_at_one(self):
        metrics = EngineMetrics(workers=1, wall_s=1.0, busy_s=5.0)
        assert metrics.executor_busy_fraction == 1.0


class TestReporting:
    def test_as_dict_round_trips_through_render_stats_dict(self):
        metrics = EngineMetrics(
            executor="fused", plans=2, tasks=6, trials=48,
            apa_programs=6, cells=1536, wall_s=0.5, busy_s=0.5,
        )
        metrics.add_stage("probe", 0.1)
        metrics.add_stage("fuse", 0.3)
        assert render_stats_dict(metrics.as_dict()) == metrics.render()

    def test_render_mentions_every_headline_counter(self):
        metrics = EngineMetrics(executor="serial", plans=1, tasks=2,
                                trials=8, apa_programs=8, cells=64)
        report = metrics.render()
        for fragment in ("serial", "plans", "trials", "APA programs",
                         "busy fraction"):
            assert fragment in report

    def test_as_dict_is_json_plain(self):
        import json

        metrics = EngineMetrics(executor="fused-parallel", workers=3)
        metrics.add_stage("probe", 0.5)
        payload = metrics.as_dict()
        assert payload["stage_probe_s"] == 0.5
        # Only stored payloads carry the old name of the busy fraction.
        assert "occupancy" not in payload
        json.dumps(payload)  # must not raise


class TestSchedulerCounters:
    def test_merge_adds_scheduler_counters(self):
        total = EngineMetrics()
        total.merge(EngineMetrics(worker_bench_reuses=8,
                                  bytes_shipped=100, pipelined_plans=3,
                                  pipeline_wall_s=1.0, pipeline_busy_s=1.5))
        total.merge(EngineMetrics(bytes_shipped=50,
                                  pipelined_plans=2, pipeline_wall_s=0.5,
                                  pipeline_busy_s=0.5))
        assert total.worker_bench_reuses == 8
        assert total.bytes_shipped == 150
        assert total.pipelined_plans == 5
        assert total.pipeline_wall_s == 1.5
        assert total.pipeline_busy_s == 2.0

    def test_pipeline_occupancy(self):
        metrics = EngineMetrics(workers=2, pipeline_wall_s=1.0,
                                pipeline_busy_s=1.0)
        assert metrics.pipeline_occupancy == 0.5
        assert EngineMetrics().pipeline_occupancy == 0.0
        capped = EngineMetrics(workers=1, pipeline_wall_s=1.0,
                               pipeline_busy_s=5.0)
        assert capped.pipeline_occupancy == 1.0

    def test_scheduler_section_renders_only_when_active(self):
        quiet = EngineMetrics(executor="serial")
        assert "scheduler" not in quiet.render()
        busy = EngineMetrics(executor="fused-parallel", workers=2,
                             worker_bench_reuses=16,
                             bytes_shipped=2048, pipelined_plans=6,
                             pipeline_wall_s=1.0, pipeline_busy_s=1.8)
        report = busy.render()
        for fragment in ("scheduler", "bench reuses",
                         "bytes shipped", "pipelined plans",
                         "pipeline occupancy"):
            assert fragment in report
        assert render_stats_dict(busy.as_dict()) == report


class TestDispatchAndFleetCounters:
    def test_merge_adds_dispatch_counters(self):
        total = EngineMetrics()
        total.merge(EngineMetrics(dispatches=2, bytes_shipped_down=512))
        total.merge(EngineMetrics(dispatches=3, bytes_shipped_down=256))
        assert total.dispatches == 5
        assert total.bytes_shipped_down == 768

    def test_merge_adds_fleet_counters(self):
        total = EngineMetrics()
        total.merge(EngineMetrics(worker_deaths=1, tasks_resharded=4))
        total.merge(EngineMetrics(worker_deaths=2))
        assert total.worker_deaths == 3
        assert total.tasks_resharded == 4

    def test_skip_windows_merge_keeps_work_but_not_time(self):
        total = EngineMetrics()
        delta = EngineMetrics(
            plans=1, tasks=8, wall_s=2.0, execute_s=1.5, busy_s=1.0,
            dispatches=2,
        )
        total.merge(delta, skip_windows=True)
        # Work counters and busy time accumulate; the wall-clock
        # windows do not (the batch adds one window at the end).
        assert total.plans == 1
        assert total.tasks == 8
        assert total.busy_s == 1.0
        assert total.dispatches == 2
        assert total.wall_s == 0.0
        assert total.execute_s == 0.0

    def test_new_counters_survive_as_dict_and_render(self):
        metrics = EngineMetrics(
            executor="fused-parallel", workers=2, dispatches=3,
            bytes_shipped_down=4096, tasks_resharded=5, worker_deaths=1,
        )
        payload = metrics.as_dict()
        for key in (
            "dispatches", "bytes_shipped_down", "tasks_resharded",
            "worker_deaths",
        ):
            assert key in payload
        report = metrics.render()
        for fragment in (
            "dispatches", "bytes shipped down", "tasks re-sharded",
            "worker deaths",
        ):
            assert fragment in report
        assert render_stats_dict(payload) == report


class TestPlannerCounters:
    def test_merge_adds_planner_counters(self):
        total = EngineMetrics()
        total.merge(EngineMetrics(rounds=3, cells_converged=4, trials_saved=96))
        total.merge(EngineMetrics(rounds=2, trials_saved=32))
        assert total.rounds == 5
        assert total.cells_converged == 4
        assert total.trials_saved == 128

    def test_section_renders_only_when_planner_ran(self):
        quiet = EngineMetrics(executor="serial")
        assert "adaptive planner" not in quiet.render()
        active = EngineMetrics(
            executor="serial", rounds=6, cells_converged=18,
            trials_saved=2688,
        )
        report = active.render()
        for fragment in (
            "adaptive planner", "rounds", "cells converged", "trials saved",
        ):
            assert fragment in report
        assert render_stats_dict(active.as_dict()) == report

    def test_counters_survive_as_dict(self):
        payload = EngineMetrics(
            rounds=2, cells_converged=1, trials_saved=8
        ).as_dict()
        assert payload["rounds"] == 2
        assert payload["cells_converged"] == 1
        assert payload["trials_saved"] == 8

    def test_zero_valued_scheduler_lines_are_omitted(self):
        # A pipelined run with no pool reuses or shipping should not
        # render those zero-valued lines inside its scheduler section.
        metrics = EngineMetrics(
            executor="fused-parallel", workers=2, pipelined_plans=3,
            pipeline_wall_s=1.0, pipeline_busy_s=1.5,
        )
        report = metrics.render()
        assert "pipelined plans" in report
        assert "pool reuses" not in report
        assert "bench reuses" not in report
        assert "bytes shipped" not in report
        assert "dispatches" not in report
