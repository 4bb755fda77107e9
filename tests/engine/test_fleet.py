"""Transport tests: the frame protocol, the wire codec, worker-death
supervision, and the byte-equality contract of pool campaigns.

The fused-parallel executor ships plan slices to forked workers over
the frame protocol of :mod:`repro.engine.fleet`.  Its hard guarantee
mirrors every executor's: distributing slices across worker processes
changes *where* the work runs, never *what* gets stored.  Artifacts
from a pool campaign are byte-equal to an in-process serial run, so
``simra-dram audit`` verifies them with no special handling.
"""

import os
import signal
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.characterization.activation import (
    activation_success_distribution,
    build_activation_plan,
)
from repro.characterization.campaign import Campaign
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.characterization.majority import build_majx_plan
from repro.characterization.rowcopy import build_copy_plan
from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig
from repro.config import SimulationConfig
from repro.core.patterns import DataPattern
from repro.dram.vendor import TESTED_MODULES
from repro.engine import (
    ActivationKernel,
    DisturbanceKernel,
    EngineMetrics,
    MajXKernel,
    MultiRowCopyKernel,
    ProcessPoolExecutor,
    SerialExecutor,
)
from repro.engine.columnar import pack_tasks, unpack_outcomes
from repro.engine.executors import run_tasks_fused
from repro.engine.fleet import (
    config_from_spec,
    config_to_spec,
    fleet_scope,
    kernel_from_spec,
    kernel_to_spec,
    point_from_spec,
    point_to_spec,
    recv_columns,
    recv_frame,
    send_columns,
    send_frame,
    serve_connection,
    serve_slice,
)
from repro.engine.plan import slice_plan
from repro.errors import ExperimentError

CONFIG = SimulationConfig(seed=9, columns_per_row=64, trials_per_test=2)
ACT_POINT = OperatingPoint(t1_ns=1.5, t2_ns=3.0)
KILL_SERIAL = TESTED_MODULES[1].module_identifier + "#0"


def make_scope():
    return CharacterizationScope.build(
        config=CONFIG,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=2,
        trials=2,
    )


def section_for(bench):
    """The wire spec a worker rebuilds ``bench`` from."""
    return {
        "serial": bench.module.serial,
        "config": config_to_spec(bench.module.config),
    }


def slice_frame(plan, tasks=None):
    """One ``run-slice`` segment header and task columns covering ``tasks``."""
    tasks = list(plan.tasks if tasks is None else tasks)
    header = {
        "sections": [section_for(bench) for bench in plan.benches],
        "kernel": kernel_to_spec(plan.kernel),
        "point": point_to_spec(plan.point),
        "checkpoints": list(plan.checkpoints),
        "apply_environment": plan.apply_environment,
        "kill_worker": False,
    }
    return header, pack_tasks(tasks, [task.bench_index for task in tasks])


class TestFrameProtocol:
    def test_header_only_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "ping", "nested": {"x": [1, 2]}})
            header, arrays = recv_frame(b)
            assert header == {"type": "ping", "nested": {"x": [1, 2]}}
            assert arrays == []
        finally:
            a.close()
            b.close()

    def test_arrays_round_trip_exactly(self):
        a, b = socket.socketpair()
        try:
            originals = [
                np.arange(100, dtype=np.int64),
                np.linspace(0, 1, 7),
                np.zeros((3, 5), dtype=np.uint64),
                np.array([], dtype=np.float64),
            ]
            send_frame(a, {"type": "data"}, originals)
            _, arrays = recv_frame(b)
            assert len(arrays) == len(originals)
            for got, want in zip(arrays, originals):
                assert got.dtype == want.dtype
                assert got.shape == want.shape
                assert np.array_equal(got, want)
        finally:
            a.close()
            b.close()

    def test_segments_keep_their_own_columns(self):
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        first, second = plan.tasks[:3], plan.tasks[3:]
        segments = [
            ({"part": 0}, pack_tasks(first, [0] * len(first))),
            ({"part": 1}, None),
            ({"part": 2}, pack_tasks(second, [1] * len(second))),
        ]
        a, b = socket.socketpair()
        try:
            send_columns(a, {"type": "run-slice"}, segments)
            _, got = recv_columns(b)
        finally:
            a.close()
            b.close()
        assert [head for head, _ in got] == [head for head, _ in segments]
        assert got[1][1] is None
        for (_, sent), (_, received) in zip(segments[::2], got[::2]):
            assert len(received) == len(sent)
            assert np.array_equal(received.trials, sent.trials)
            assert np.array_equal(received.slots, sent.slots)
            assert np.array_equal(received.indices, sent.indices)

    def test_eof_on_closed_peer(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    def test_task_columns_over_the_wire(self):
        from repro.engine.columnar import unpack_tasks

        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        slots = [t.bench_index for t in plan.tasks]
        columns = pack_tasks(plan.tasks, slots)
        a, b = socket.socketpair()
        try:
            send_columns(a, {"type": "tasks"}, [({"part": 0}, columns)])
            header, [(head, rebuilt)] = recv_columns(b)
        finally:
            a.close()
            b.close()
        assert header == {"type": "tasks"}
        assert head == {"part": 0}
        serials = [bench.module.serial for bench in plan.benches]
        recovered = unpack_tasks(rebuilt, serials)
        assert [t.group_token for t in recovered] == [
            t.group_token for t in plan.tasks
        ]


class TestScopeSpec:
    """The bench sections a worker rebuilds a plan's benches from."""

    def test_round_trip_preserves_benches_and_knobs(self):
        from repro.engine.fleet import _bench_for_section

        for bench in make_scope().benches:
            rebuilt, _ = _bench_for_section(section_for(bench))
            assert rebuilt.module.serial == bench.module.serial
            assert rebuilt.module.config == bench.module.config
            assert rebuilt.module.spec is bench.module.spec

    def test_unknown_module_rejected(self):
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        header, columns = slice_frame(plan)
        header["sections"][0]["serial"] = "NOT-A-MODULE#0"
        reply, outcomes = serve_slice(header, columns)
        assert outcomes is None
        assert reply["error"][0] == "ExperimentError"
        assert "unknown module" in reply["error"][1]

    def test_fleet_scope_samples_beyond_the_catalog(self):
        # The paper tested 120 chips; fleet scopes sample the vendor
        # profiles with unbounded instance indices.
        chips = len(TESTED_MODULES) * 2 + 3
        scope = fleet_scope(chips, config=CONFIG, trials=2)
        assert len(scope.benches) == chips
        serials = [b.module.serial for b in scope.benches]
        assert len(set(serials)) == chips
        assert any(serial.endswith("#2") for serial in serials)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
patterns = st.one_of(
    st.just(DataPattern("random")),
    st.builds(
        DataPattern,
        st.sampled_from(("00ff", "aa55", "cc33", "6699", "all0", "all1")),
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
    ),
)
kernels = st.one_of(
    st.just(ActivationKernel()),
    st.just(MultiRowCopyKernel()),
    st.builds(
        MajXKernel,
        st.integers(1, 32),
        st.one_of(st.none(), st.integers(0, 16)),
    ),
    st.builds(
        DisturbanceKernel,
        patterns,
        st.lists(st.integers(0, 1023), max_size=6).map(tuple),
    ),
)


class TestWireCodec:
    """spec -> object -> spec is a fixed point, and the rebuilt object
    keys the same noise as the original."""

    @settings(max_examples=40, deadline=None)
    @given(kernel=kernels)
    def test_kernel_specs_round_trip(self, kernel):
        spec = kernel_to_spec(kernel)
        rebuilt = kernel_from_spec(spec)
        assert type(rebuilt) is type(kernel)
        assert kernel_to_spec(rebuilt) == spec
        assert rebuilt.signature == kernel.signature

    @settings(max_examples=40, deadline=None)
    @given(
        t1=st.one_of(finite, st.just(-0.0)),
        t2=finite,
        temperature=st.one_of(finite, st.integers(-40, 120)),
        vpp=finite,
        pattern=patterns,
    )
    def test_operating_points_round_trip(
        self, t1, t2, temperature, vpp, pattern
    ):
        from repro.engine import point_token

        point = OperatingPoint(t1, t2, temperature, vpp, pattern)
        spec = point_to_spec(point)
        rebuilt = point_from_spec(spec)
        assert rebuilt == point
        assert point_to_spec(rebuilt) == spec
        assert point_token(rebuilt) == point_token(point)
        assert np.copysign(1.0, rebuilt.t1_ns) == np.copysign(1.0, t1)

    def test_numpy_scalars_travel_as_their_numbers(self):
        point = OperatingPoint(np.float64(1.5), 3.0, np.int64(85), 2.5)
        a, b = socket.socketpair()
        try:
            send_frame(a, {"point": point_to_spec(point)})
            header, _ = recv_frame(b)
        finally:
            a.close()
            b.close()
        rebuilt = point_from_spec(header["point"])
        from repro.engine import point_token

        assert point_token(rebuilt) == point_token(point)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        columns=st.integers(8, 4096),
        trials=st.integers(1, 64),
        functional_only=st.booleans(),
    )
    def test_simulation_configs_round_trip(
        self, seed, columns, trials, functional_only
    ):
        config = SimulationConfig(seed, columns, trials, functional_only)
        spec = config_to_spec(config)
        rebuilt = config_from_spec(spec)
        assert rebuilt == config
        assert config_to_spec(rebuilt) == spec
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_foreign_kernels_have_no_spec(self):
        class Custom(ActivationKernel):
            pass

        with pytest.raises(ExperimentError, match="no wire spec"):
            kernel_to_spec(Custom())


PLAN_BUILDERS = (
    lambda scope: build_activation_plan(scope, 8, ACT_POINT),
    lambda scope: build_majx_plan(
        scope, 3, 8, OperatingPoint(t1_ns=1.5, t2_ns=3.0)
    ),
    lambda scope: build_copy_plan(
        scope, 7, OperatingPoint(t1_ns=36.0, t2_ns=3.0)
    ),
)


def _outcome_key(outcome):
    return (
        outcome.index, outcome.rate, outcome.trials, outcome.cells,
        outcome.mask.tobytes(), outcome.checkpoint_rates, outcome.trial_rates,
    )


class TestServedSlices:
    """A ``run-slice`` frame answered by :func:`serve_connection` on a
    socketpair equals in-process fused execution, bit for bit."""

    @pytest.fixture(scope="class")
    def worker(self):
        ours, theirs = socket.socketpair()
        thread = threading.Thread(
            target=serve_connection, args=(theirs,), daemon=True
        )
        thread.start()
        assert recv_frame(ours)[0]["type"] == "hello"
        yield ours
        send_frame(ours, {"type": "shutdown"})
        thread.join(timeout=30)
        ours.close()
        theirs.close()

    @settings(max_examples=8, deadline=None)
    @given(
        builder=st.sampled_from(PLAN_BUILDERS),
        seed=st.integers(0, 2**16),
        window=st.tuples(st.integers(0, 3), st.integers(1, 4)),
        lo=st.integers(0, 100),
        span=st.integers(1, 100),
    )
    def test_frame_equals_in_process_fused(
        self, worker, builder, seed, window, lo, span
    ):
        scope = CharacterizationScope.build(
            config=SimulationConfig(seed=seed, columns_per_row=64),
            specs=TESTED_MODULES[:2],
            modules_per_spec=1,
            groups_per_size=1,
            trials=4,
        )
        offset, trials = window
        plan = slice_plan(builder(scope), offset, trials)
        tasks = plan.tasks[lo % len(plan.tasks):][:span]
        header, columns = slice_frame(plan, tasks)
        send_columns(worker, {"type": "run-slice"}, [(header, columns)])
        frame, [(reply, outcome_columns)] = recv_columns(worker)
        assert frame["type"] == "slice-result"
        assert reply["error"] is None
        got = unpack_outcomes(outcome_columns)

        expected = []
        by_bench = {}
        for task in tasks:
            by_bench.setdefault(task.bench_index, []).append(task)
        for index in sorted(by_bench):
            bench = plan.benches[index]
            if plan.apply_environment:
                bench.set_temperature(plan.point.temperature_c)
                bench.set_vpp(plan.point.vpp)
            expected.extend(run_tasks_fused(
                plan.kernel, plan.point, plan.checkpoints, bench,
                by_bench[index], EngineMetrics(),
            ))
        assert sorted(map(_outcome_key, got)) == sorted(
            map(_outcome_key, expected)
        )


    @settings(max_examples=4, deadline=None)
    @given(
        builders=st.lists(
            st.sampled_from(PLAN_BUILDERS), min_size=2, max_size=2
        ),
        seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=2),
    )
    def test_two_plan_frame_answers_as_two_frames(
        self, worker, builders, seeds
    ):
        segments = []
        for builder, seed in zip(builders, seeds):
            scope = CharacterizationScope.build(
                config=SimulationConfig(seed=seed, columns_per_row=64),
                specs=TESTED_MODULES[:2],
                modules_per_spec=1,
                groups_per_size=1,
                trials=2,
            )
            segments.append(slice_frame(builder(scope)))
        send_columns(worker, {"type": "run-slice"}, segments)
        _, together = recv_columns(worker)
        apart = []
        for segment in segments:
            send_columns(worker, {"type": "run-slice"}, [segment])
            _, [reply] = recv_columns(worker)
            apart.append(reply)
        assert len(together) == 2
        for (got, got_columns), (want, want_columns) in zip(together, apart):
            assert got["error"] is None and want["error"] is None
            for key in ("apa_programs", "tasks_run"):
                assert got["stats"][key] == want["stats"][key]
            assert list(map(_outcome_key, unpack_outcomes(got_columns))) == (
                list(map(_outcome_key, unpack_outcomes(want_columns)))
            )

    def test_error_in_one_segment_spares_the_other(self, worker):
        # Segment 0 names a module the catalog lacks; segment 1 is a
        # clean plan on the same frame.
        doomed = build_activation_plan(make_scope(), 8, ACT_POINT)
        clean = build_activation_plan(make_scope(), 8, ACT_POINT)
        doomed_segment = slice_frame(doomed)
        doomed_segment[0]["sections"][0]["serial"] = "NOSUCHMODULE#0"
        segments = [doomed_segment, slice_frame(clean)]
        send_columns(worker, {"type": "run-slice"}, segments)
        _, [(failed, failed_columns), (ok, ok_columns)] = recv_columns(worker)
        assert failed["error"] == [
            "ExperimentError", "slice names unknown module 'NOSUCHMODULE'"
        ]
        assert failed_columns is None
        assert ok["error"] is None
        reference = SerialExecutor().run(clean).outcomes
        assert sorted(map(_outcome_key, unpack_outcomes(ok_columns))) == (
            sorted(map(_outcome_key, reference))
        )


class TestDispatcherLocalFallback:
    """With no worker left, the executor preserves the run by
    finishing the queue in-process."""

    def test_runs_items_locally_in_order(self):
        scope = make_scope()
        plans = [build_activation_plan(scope, 8, ACT_POINT) for _ in range(3)]
        reference = [
            list(map(_outcome_key, SerialExecutor().run(plan).outcomes))
            for plan in plans
        ]
        # The only worker dies on its first slice.
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        streamed = []
        results = []

        def keep(index, result):
            streamed.append(index)
            results.append(result)

        with ProcessPoolExecutor(jobs=1, chaos=chaos) as executor:
            executor.run_many(plans, on_result=keep)
            assert executor._workers == []
        assert streamed == [0, 1, 2]
        assert [
            list(map(_outcome_key, result.outcomes)) for result in results
        ] == reference
        assert executor.metrics.worker_deaths == 1


class TestDispatcherWorkerDeath:
    """A worker that dies holding a slice: the slice runs again on a
    survivor, and results still stream in plan order."""

    def test_orphaned_item_reruns_on_the_survivor(self):
        reference = activation_success_distribution(
            make_scope(), 8, ACT_POINT, executor=SerialExecutor()
        )
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        with ProcessPoolExecutor(jobs=2, chaos=chaos) as executor:
            candidate = activation_success_distribution(
                make_scope(), 8, ACT_POINT, executor=executor
            )
            alive = len(executor._workers)
        assert candidate == reference
        assert executor.metrics.worker_deaths == 1
        assert executor.metrics.tasks_resharded >= 1
        assert alive == 1


def fleet_campaign(executor, store=None):
    return Campaign(make_scope(), store=store, executor=executor)


class TestFleetCampaign:
    def test_validates_figures(self):
        executor = ProcessPoolExecutor(jobs=2)
        with pytest.raises(ExperimentError, match="unknown experiments"):
            fleet_campaign(executor).run(["fig99"])
        with pytest.raises(ExperimentError, match="at least one"):
            fleet_campaign(executor).run([])
        # Refused before any worker started.
        assert executor._workers == []

    def test_local_fallback_campaign_matches_serial_reference(self, tmp_path):
        figures = ["fig3", "fig6"]
        ref_store = ResultStore(tmp_path / "ref")
        reference = Campaign(make_scope(), store=ref_store).run(figures)
        assert reference.succeeded

        # The one worker dies on its first slice; the campaign runs on
        # in-process and still commits the serial reference's bytes.
        chaos = ChaosConfig(seed=3, worker_kill_serials=(KILL_SERIAL,))
        fleet_store = ResultStore(tmp_path / "fleet")
        with ProcessPoolExecutor(jobs=1, chaos=chaos) as executor:
            result = fleet_campaign(executor, fleet_store).run(figures)
        assert result.succeeded
        assert result.completed == figures
        assert result.engine_stats["worker_deaths"] == 1
        for name in figures:
            ref_bytes = (tmp_path / "ref" / f"{name}.json").read_bytes()
            got_bytes = (tmp_path / "fleet" / f"{name}.json").read_bytes()
            assert got_bytes == ref_bytes

    def test_manifest_mirrors_single_host_campaign(self, tmp_path):
        figures = ["fig3"]
        ref_store = ResultStore(tmp_path / "ref")
        Campaign(make_scope(), store=ref_store).run(figures)
        fleet_store = ResultStore(tmp_path / "fleet")
        with ProcessPoolExecutor(jobs=2) as executor:
            fleet_campaign(executor, fleet_store).run(figures)
        ref = ref_store.load_manifest()
        got = fleet_store.load_manifest()
        assert got.fingerprint == ref.fingerprint
        assert got.serials == ref.serials
        assert got.completed == ref.completed

    def test_failed_figure_lands_in_manifest_failures(
        self, tmp_path, monkeypatch
    ):
        from repro.characterization import campaign as campaign_module

        def broken(_scope):
            raise ValueError("bad corner matrix")

        monkeypatch.setitem(campaign_module.EXPERIMENT_PROGRAMS, "fig6", broken)
        store = ResultStore(tmp_path / "fleet")
        with ProcessPoolExecutor(jobs=2) as executor:
            result = fleet_campaign(executor, store).run(["fig3", "fig6"])
        assert result.completed == ["fig3"]
        [failure] = result.failures
        assert failure.experiment == "fig6"
        assert failure.reason == "error"
        assert "bad corner matrix" in failure.error
        manifest = store.load_manifest()
        assert manifest.completed == ["fig3"]
        assert manifest.failures["fig6"]["reason"] == "error"
        assert "bad corner matrix" in manifest.failures["fig6"]["error"]


@pytest.mark.slow
class TestForkedPoolLive:
    """Real forked worker processes over real sockets."""

    def test_two_worker_campaign_byte_equal_and_audited(self, tmp_path):
        from repro.health import audit_store

        figures = ["fig3", "fig6"]
        ref_store = ResultStore(tmp_path / "ref")
        Campaign(make_scope(), store=ref_store).run(figures)

        fleet_store = ResultStore(tmp_path / "fleet")
        with ProcessPoolExecutor(jobs=2) as executor:
            result = fleet_campaign(executor, fleet_store).run(figures)
        assert result.succeeded
        assert result.completed == figures  # deterministic commit order
        # Slices run on the workers, and their work is counted.
        assert result.engine_stats["dispatches"] > 0
        assert result.engine_stats["apa_programs"] > 0
        assert result.engine_stats["cells"] > 0
        for name in figures:
            assert (tmp_path / "fleet" / f"{name}.json").read_bytes() == (
                tmp_path / "ref" / f"{name}.json"
            ).read_bytes()
        assert (
            fleet_store.load_manifest().fingerprint
            == ref_store.load_manifest().fingerprint
        )
        report = audit_store(fleet_store, sample=1, seed=0)
        assert report.passed

    def test_sigkill_mid_frame_requeues_the_whole_frame(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import fleet

        figures = ["fig3", "fig6"]
        ref_store = ResultStore(tmp_path / "ref")
        Campaign(make_scope(), store=ref_store).run(figures)
        real_send = fleet.send_columns
        killed = []
        executor = ProcessPoolExecutor(jobs=2)

        def send_then_kill(sock, header, segments):
            real_send(sock, header, segments)
            if (
                header["type"] == "run-slice"
                and len(segments) > 1
                and not killed
            ):
                # The worker dies holding a frame of several plans.
                worker = next(w for w in executor._workers if w.sock is sock)
                os.kill(worker.process, signal.SIGKILL)
                killed.append(sum(len(columns) for _, columns in segments))

        monkeypatch.setattr(fleet, "send_columns", send_then_kill)
        fleet_store = ResultStore(tmp_path / "fleet")
        with executor:
            result = fleet_campaign(executor, fleet_store).run(figures)
        assert killed
        assert result.succeeded
        stats = result.engine_stats
        assert stats["worker_deaths"] == 1
        assert stats["tasks_resharded"] == killed[0]
        for name in figures:
            assert (tmp_path / "fleet" / f"{name}.json").read_bytes() == (
                tmp_path / "ref" / f"{name}.json"
            ).read_bytes()

    def test_worker_death_mid_run_recovers(self, tmp_path):
        figures = ["fig3", "fig4a", "fig6", "fig7"]
        ref_store = ResultStore(tmp_path / "ref")
        Campaign(make_scope(), store=ref_store).run(figures)
        fleet_store = ResultStore(tmp_path / "fleet")
        with ProcessPoolExecutor(jobs=2) as executor:
            # SIGKILL a started worker: the dispatcher finds out on its
            # next slice to it and re-queues that slice.
            executor.start()
            os.kill(executor._workers[0].process, signal.SIGKILL)
            result = fleet_campaign(executor, fleet_store).run(figures)
        assert result.succeeded
        assert result.completed == figures
        stats = result.engine_stats
        assert stats["worker_deaths"] == 1
        assert stats["tasks_resharded"] >= 1
        for name in figures:
            assert (tmp_path / "fleet" / f"{name}.json").read_bytes() == (
                tmp_path / "ref" / f"{name}.json"
            ).read_bytes()


class TestFleetScopeSampling:
    """fleet_scope's round-robin over the vendor catalog."""

    @pytest.mark.parametrize(
        "chips", [1, len(TESTED_MODULES), 2 * len(TESTED_MODULES) + 5]
    )
    def test_round_robin_is_balanced(self, chips):
        scope = fleet_scope(chips, config=CONFIG, trials=2)
        assert len(scope.benches) == chips
        counts = {}
        for bench in scope.benches:
            identifier = bench.module.serial.rpartition("#")[0]
            counts[identifier] = counts.get(identifier, 0) + 1
        # Round-robin: no spec is ever more than one chip ahead.
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_instances_count_up_per_spec(self):
        chips = 2 * len(TESTED_MODULES) + 3
        scope = fleet_scope(chips, config=CONFIG, trials=2)
        instances = {}
        for bench in scope.benches:
            identifier, _, instance = bench.module.serial.rpartition("#")
            instances.setdefault(identifier, []).append(int(instance))
        for seen in instances.values():
            # Each spec's instance indices are dense from zero, in
            # catalog round-robin order.
            assert seen == list(range(len(seen)))

    def test_catalog_order_repeats_exactly(self):
        chips = len(TESTED_MODULES) + 4
        scope = fleet_scope(chips, config=CONFIG, trials=2)
        identifiers = [
            bench.module.serial.rpartition("#")[0]
            for bench in scope.benches
        ]
        catalog = [module.module_identifier for module in TESTED_MODULES]
        assert identifiers[: len(catalog)] == catalog
        assert identifiers[len(catalog):] == catalog[:4]

    def test_knobs_carry_through(self):
        scope = fleet_scope(
            3, config=CONFIG, banks=(0, 1), subarrays=(0,),
            groups_per_size=1, trials=7,
        )
        assert scope.banks == (0, 1)
        assert scope.subarrays == (0,)
        assert scope.groups_per_size == 1
        assert scope.trials == 7

    def test_at_least_one_chip_required(self):
        with pytest.raises(ExperimentError):
            fleet_scope(0, config=CONFIG)

    def test_spec_round_trip_is_stable(self):
        # Fleet benches ship to workers as section specs; a spec must
        # be a fixed point (spec -> bench -> spec reproduces itself),
        # including instance indices beyond the paper's module counts.
        from repro.engine.fleet import _bench_for_section

        scope = fleet_scope(len(TESTED_MODULES) + 2, config=CONFIG, trials=3)
        for bench in scope.benches:
            spec = section_for(bench)
            rebuilt, _ = _bench_for_section(spec)
            assert section_for(rebuilt) == spec
