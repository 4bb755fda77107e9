"""Fleet tier tests: socket protocol, dispatcher supervision, and the
byte-equality contract of fleet-distributed campaigns.

The fleet's hard guarantee mirrors the executors': distributing whole
experiment programs across worker processes changes *where* the work
runs, never *what* gets stored.  Artifacts from a fleet campaign are
byte-equal to a single-host serial run, so ``simra-dram audit``
verifies fleet output with no special handling.
"""

import socket
import threading

import numpy as np
import pytest

from repro.characterization.campaign import Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine.fleet import (
    FleetDispatcher,
    FleetItem,
    LocalFleet,
    fleet_scope,
    recv_columns,
    recv_frame,
    scope_from_spec,
    scope_to_spec,
    send_columns,
    send_frame,
    serve_connection,
)
from repro.errors import ExperimentError

CONFIG = SimulationConfig(seed=9, columns_per_row=64, trials_per_test=2)


def make_scope():
    return CharacterizationScope.build(
        config=CONFIG,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=2,
        trials=2,
    )


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

    def test_eof_on_closed_peer(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    def test_task_columns_over_the_wire(self):
        from repro.characterization.activation import build_activation_plan
        from repro.characterization.experiment import OperatingPoint
        from repro.engine.columnar import pack_tasks, unpack_tasks

        plan = build_activation_plan(
            make_scope(), 8, OperatingPoint(t1_ns=1.5, t2_ns=3.0)
        )
        slots = [t.bench_index for t in plan.tasks]
        columns = pack_tasks(plan.tasks, slots)
        a, b = socket.socketpair()
        try:
            send_columns(a, {"type": "tasks"}, columns)
            _, rebuilt = recv_columns(b)
        finally:
            a.close()
            b.close()
        serials = [bench.module.serial for bench in plan.benches]
        recovered = unpack_tasks(rebuilt, serials)
        assert [t.group_token for t in recovered] == [
            t.group_token for t in plan.tasks
        ]


class TestScopeSpec:
    def test_round_trip_preserves_benches_and_knobs(self):
        scope = make_scope()
        rebuilt = scope_from_spec(scope_to_spec(scope))
        assert [b.module.serial for b in rebuilt.benches] == [
            b.module.serial for b in scope.benches
        ]
        assert rebuilt.banks == scope.banks
        assert rebuilt.subarrays == scope.subarrays
        assert rebuilt.groups_per_size == scope.groups_per_size
        assert rebuilt.trials == scope.trials

    def test_unknown_module_rejected(self):
        spec = scope_to_spec(make_scope())
        spec["modules"] = [["NOT-A-MODULE", 0]]
        with pytest.raises(ExperimentError, match="unknown module"):
            scope_from_spec(spec)

    def test_fleet_scope_samples_beyond_the_catalog(self):
        # The paper tested 120 chips; fleet scopes sample the vendor
        # profiles with unbounded instance indices.
        chips = len(TESTED_MODULES) * 2 + 3
        scope = fleet_scope(chips, config=CONFIG, trials=2)
        assert len(scope.benches) == chips
        serials = [b.module.serial for b in scope.benches]
        assert len(set(serials)) == chips
        assert any(serial.endswith("#2") for serial in serials)


class TestDispatcherLocalFallback:
    """With no workers at all, the dispatcher preserves the campaign
    by finishing items in-process."""

    def test_runs_items_locally_in_order(self):
        spec = scope_to_spec(make_scope())
        items = [
            FleetItem(index=0, figure="fig3", scope_spec=spec),
            FleetItem(index=1, figure="fig6", scope_spec=spec),
        ]
        streamed = []
        dispatcher = FleetDispatcher([])
        outcomes = dispatcher.run(
            items, on_result=lambda i, o: streamed.append(i)
        )
        assert streamed == [0, 1]
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert all(o.worker == "local" for o in outcomes)
        assert dispatcher.metrics.fleet_items == 2

    def test_duplicate_indices_rejected(self):
        spec = scope_to_spec(make_scope())
        items = [
            FleetItem(index=0, figure="fig3", scope_spec=spec),
            FleetItem(index=0, figure="fig6", scope_spec=spec),
        ]
        with pytest.raises(ExperimentError, match="unique"):
            FleetDispatcher([]).run(items)


class TestDispatcherWorkerDeath:
    """A worker that dies holding an item: the item runs again on a
    survivor, and results still stream in item order."""

    def test_orphaned_item_reruns_on_the_survivor(self):
        spec = scope_to_spec(make_scope())
        items = [
            FleetItem(index=0, figure="fig3", scope_spec=spec),
            FleetItem(index=1, figure="fig6", scope_spec=spec),
        ]
        doomed, doomed_peer = socket.socketpair()
        survivor, survivor_peer = socket.socketpair()

        def die_on_first_item():
            send_frame(doomed_peer, {"type": "hello"})
            header, _ = recv_frame(doomed_peer)
            assert header["type"] == "run"
            doomed_peer.close()

        threads = [
            threading.Thread(target=die_on_first_item, daemon=True),
            threading.Thread(
                target=serve_connection,
                args=(survivor_peer,),
                kwargs={"executor_name": "fused"},
                daemon=True,
            ),
        ]
        for thread in threads:
            thread.start()
        # Workers are filled in list order: the doomed one takes item 0.
        dispatcher = FleetDispatcher(
            [("doomed", doomed), ("survivor", survivor)]
        )
        streamed = []
        try:
            outcomes = dispatcher.run(
                items, on_result=lambda index, _: streamed.append(index)
            )
            alive = dispatcher.workers
        finally:
            dispatcher.close()
            for thread in threads:
                thread.join(timeout=60)
            survivor_peer.close()
        assert dispatcher.metrics.fleet_worker_deaths == 1
        assert dispatcher.metrics.fleet_reissued == 1
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert outcomes[0].worker == "survivor"
        assert streamed == [0, 1]
        assert alive == ["survivor"]


def fleet_campaign(dispatcher, store=None):
    return Campaign(make_scope(), store=store, dispatcher=dispatcher)


class TestFleetCampaign:
    def test_validates_figures(self):
        with pytest.raises(ExperimentError, match="unknown experiments"):
            fleet_campaign(FleetDispatcher([])).run(["fig99"])
        with pytest.raises(ExperimentError, match="at least one"):
            fleet_campaign(FleetDispatcher([])).run([])

    def test_local_fallback_campaign_matches_serial_reference(self, tmp_path):
        figures = ["fig3", "fig6"]
        ref_store = ResultStore(tmp_path / "ref")
        reference = Campaign(make_scope(), store=ref_store).run(figures)
        assert reference.succeeded

        fleet_store = ResultStore(tmp_path / "fleet")
        result = fleet_campaign(FleetDispatcher([]), fleet_store).run(figures)
        assert result.succeeded
        assert result.completed == figures
        for name in figures:
            ref_bytes = (tmp_path / "ref" / f"{name}.json").read_bytes()
            got_bytes = (tmp_path / "fleet" / f"{name}.json").read_bytes()
            assert got_bytes == ref_bytes

    def test_manifest_mirrors_single_host_campaign(self, tmp_path):
        figures = ["fig3"]
        ref_store = ResultStore(tmp_path / "ref")
        Campaign(make_scope(), store=ref_store).run(figures)
        fleet_store = ResultStore(tmp_path / "fleet")
        fleet_campaign(FleetDispatcher([]), fleet_store).run(figures)
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

        # The dispatcher's in-process fallback builds the program from
        # the same table, so the figure fails exactly as on a worker.
        monkeypatch.setitem(campaign_module.EXPERIMENT_PROGRAMS, "fig6", broken)
        store = ResultStore(tmp_path / "fleet")
        result = fleet_campaign(FleetDispatcher([]), store).run(
            ["fig3", "fig6"]
        )
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
class TestLocalFleetLive:
    """Real worker subprocesses over real sockets."""

    def test_two_worker_campaign_byte_equal_and_audited(self, tmp_path):
        from repro.health import audit_store

        figures = ["fig3", "fig6"]
        ref_store = ResultStore(tmp_path / "ref")
        Campaign(make_scope(), store=ref_store).run(figures)

        fleet_store = ResultStore(tmp_path / "fleet")
        with LocalFleet(workers=2) as fleet:
            result = fleet_campaign(fleet.dispatcher(), fleet_store).run(
                figures
            )
        assert result.succeeded
        assert result.completed == figures  # deterministic commit order
        assert result.engine_stats["fleet_items"] == 2
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

    def test_worker_death_mid_run_recovers(self, tmp_path):
        figures = ["fig3", "fig4a", "fig6", "fig7"]
        fleet_store = ResultStore(tmp_path / "fleet")
        with LocalFleet(workers=2) as fleet:
            campaign = fleet_campaign(fleet.dispatcher(), fleet_store)
            killer = threading.Timer(0.2, lambda: fleet.kill_worker(0))
            killer.start()
            try:
                result = campaign.run(figures)
            finally:
                killer.cancel()
        assert result.succeeded
        assert result.completed == figures
        stats = result.engine_stats
        # The SIGKILLed worker's in-flight item was re-issued (unless
        # the kill landed between items, in which case nothing was
        # orphaned and nothing needed re-issuing).
        assert stats["fleet_worker_deaths"] >= 1
        assert stats["fleet_reissued"] >= 0


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
        # fleet scopes ship to workers as recipes; the recipe must be
        # a fixed point (spec -> scope -> spec reproduces itself), so
        # re-shipping never drifts.
        scope = fleet_scope(len(TESTED_MODULES) + 2, config=CONFIG, trials=3)
        spec = scope_to_spec(scope)
        rebuilt = scope_from_spec(spec)
        assert scope_to_spec(rebuilt) == spec
        assert [b.module.serial for b in rebuilt.benches] == [
            b.module.serial for b in scope.benches
        ]
