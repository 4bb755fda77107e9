"""Every campaign combination the product exposes, generated.

``Campaign.run`` is one loop: a *source* (the plan stream or the
adaptive planner) settles figures into one commit sink.  This matrix
crosses the sources -- the stream run back to back in-process on
``fused`` ("sequential") and pipelined on the fused-parallel pool's
forked workers ("pipelined"), the adaptive planner on both -- with a
fresh run and a resume after one committed figure, and with every
subset of chaos injection and health supervision.  Each combination
must commit artifacts byte-equal to its serial counterpart (the
adaptive serial run for adaptive campaigns), leave a clean store and
pass ``audit``.  Under the matrix sits a property over every
registered figure: on random tiny scopes, serial, fused and the
pipelined pool give equal data.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.engine import (
    AdaptiveConfig,
    CampaignScheduler,
    FusedExecutor,
    SerialExecutor,
    make_executor,
)
from repro.health import HealthTracker
from repro.health.audit import audit_store

FIGURES = ("fig4a", "fig11")
SOURCES = ("sequential", "pipelined", "adaptive", "pool-adaptive")
MODES = ("fresh", "resume")
FEATURES = ((), ("chaos",), ("supervise",), ("chaos", "supervise"))
ADAPTIVE_SOURCES = ("adaptive", "pool-adaptive")
POOL_SOURCES = ("pipelined", "pool-adaptive")
ADAPTIVE = AdaptiveConfig(ci_target=0.05, round_trials=2, max_trials=8)


def _scope():
    return CharacterizationScope.build(
        config=SimulationConfig(seed=43, columns_per_row=64),
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


CASES = [
    pytest.param(source, mode, features, id=f"{source}-{mode}-"
                 + ("+".join(features) or "plain"))
    for source, mode, features in itertools.product(SOURCES, MODES, FEATURES)
]


@pytest.fixture(scope="module")
def pool():
    with make_executor("fused-parallel", jobs=2) as executor:
        yield executor


def _campaign(source, features, store, pool, reference=False):
    """A fresh campaign; ``reference`` swaps in the serial executor
    with the same source kind (stream or adaptive) and features."""
    kwargs = {
        "store": store,
        "retry": RetryPolicy(max_attempts=20, base_delay_s=0.0),
    }
    if "chaos" in features:
        kwargs["chaos"] = ChaosConfig.light(
            seed=7, rate=0.05, max_faults_per_kind=2
        )
    if "supervise" in features:
        kwargs["health"] = HealthTracker()
    if reference:
        kwargs["executor"] = SerialExecutor()
        if source in ADAPTIVE_SOURCES:
            kwargs["adaptive"] = ADAPTIVE
    elif source == "sequential":
        kwargs["executor"] = make_executor("fused")
    elif source == "pipelined":
        kwargs["executor"] = pool
    elif source == "adaptive":
        kwargs.update(executor=make_executor("fused"), adaptive=ADAPTIVE)
    else:
        kwargs.update(executor=pool, adaptive=ADAPTIVE)
    return Campaign(_scope(), **kwargs)


@pytest.fixture(scope="module")
def references(tmp_path_factory, pool):
    """Serial stores, built once per (adaptive, features)."""
    root = tmp_path_factory.mktemp("matrix_reference")
    built = {}

    def get(source, features):
        key = (source in ADAPTIVE_SOURCES, features)
        if key not in built:
            directory = root / f"ref-{len(built)}"
            result = _campaign(
                source, features, ResultStore(directory), pool,
                reference=True,
            ).run(list(FIGURES))
            assert result.succeeded
            built[key] = directory
        return built[key]

    return get


@pytest.mark.parametrize("source, mode, features", CASES)
def test_combination_matches_serial_and_audits(
    source, mode, features, tmp_path, pool, references
):
    store = ResultStore(tmp_path / "store")
    if mode == "resume":
        first = _campaign(source, features, store, pool).run([FIGURES[0]])
        assert first.completed == [FIGURES[0]]
        result = _campaign(source, features, store, pool).run(
            list(FIGURES), resume=True
        )
        assert result.skipped == [FIGURES[0]]
        assert result.completed == [FIGURES[1]]
    else:
        result = _campaign(source, features, store, pool).run(list(FIGURES))
        assert result.completed == list(FIGURES)
    assert result.succeeded

    if source not in ADAPTIVE_SOURCES:
        # Every fixed-budget figure ran through the plan stream.
        assert result.engine_stats["pipelined_plans"] > 0
    if source in POOL_SOURCES:
        # The slices ran on the forked workers.
        assert result.engine_stats["dispatches"] > 0

    reference = references(source, features)
    for name in FIGURES:
        assert (store.directory / f"{name}.json").read_bytes() == (
            reference / f"{name}.json"
        ).read_bytes(), name
    assert sorted(store.load_manifest().completed) == sorted(FIGURES)
    scan = store.verify()
    assert scan["orphaned_tmp"] == []
    assert scan["unreferenced_sidecars"] == []
    assert audit_store(store, sample=len(FIGURES), seed=0).passed


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    spec=st.sampled_from(TESTED_MODULES),
    columns=st.sampled_from((64, 128)),
    trials=st.integers(1, 2),
)
def test_every_figure_is_executor_independent(
    pool, seed, spec, columns, trials
):
    scope = CharacterizationScope.build(
        config=SimulationConfig(seed=seed, columns_per_row=columns),
        specs=[spec],
        modules_per_spec=1,
        groups_per_size=1,
        trials=trials,
    )
    programs = [build(scope) for build in EXPERIMENT_PROGRAMS.values()]
    serial = {p.name: p.run(SerialExecutor()) for p in programs}
    fused = {p.name: p.run(FusedExecutor()) for p in programs}
    pipelined = CampaignScheduler(pool).run(programs)
    assert fused == serial
    assert pipelined == {name: ("ok", data) for name, data in serial.items()}
