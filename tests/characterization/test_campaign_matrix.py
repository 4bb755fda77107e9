"""Every campaign combination the product exposes, generated.

``Campaign.run`` is one loop: a *source* (sequential, pipelined or
adaptive) settles figures into one commit sink.  This matrix crosses
the sources -- and the fleet, the fused-parallel executor over dial-in
worker subprocesses, under the default and the adaptive source -- with
a fresh run and a resume after one committed figure, and with chaos
injection and health supervision wherever the constructor allows
them.  Each allowed combination must
commit artifacts byte-equal to its serial sequential counterpart (the
adaptive serial run for adaptive campaigns) and pass ``audit``; each
refused one must raise :class:`~repro.errors.ConfigurationError`.
Under the matrix sits a property over every registered figure: on
random tiny scopes, serial, fused and the pipelined pool give equal
data.
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
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.fleet import LocalFleet
from repro.errors import ConfigurationError
from repro.health import HealthTracker
from repro.health.audit import audit_store

FIGURES = ("fig4a", "fig11")
SOURCES = ("sequential", "pipelined", "adaptive", "fleet", "fleet-adaptive")
MODES = ("fresh", "resume")
FEATURES = ((), ("chaos",), ("supervise",), ("chaos", "supervise"))
REFUSED = {
    ("adaptive", "supervise"),
    ("fleet-adaptive", "supervise"),
}
ADAPTIVE_SOURCES = ("adaptive", "fleet-adaptive")
ADAPTIVE = AdaptiveConfig(ci_target=0.05, round_trials=2, max_trials=8)


def _scope():
    return CharacterizationScope.build(
        config=SimulationConfig(seed=43, columns_per_row=64),
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def _refused(source, features):
    return any((source, feature) in REFUSED for feature in features)


CASES = [
    pytest.param(source, mode, features, id=f"{source}-{mode}-"
                 + ("+".join(features) or "plain"))
    for source, mode, features in itertools.product(SOURCES, MODES, FEATURES)
    if not _refused(source, features)
]
REFUSED_CASES = [
    pytest.param(source, features, id=f"{source}-" + "+".join(features))
    for source, features in itertools.product(SOURCES, FEATURES)
    if _refused(source, features)
]


@pytest.fixture(scope="module")
def pool():
    with make_executor("fused-parallel", jobs=2) as executor:
        yield executor


@pytest.fixture(scope="module")
def fleet():
    with LocalFleet(workers=2) as executor:
        yield executor


def _campaign(source, features, store, pool, reference=False, fleet=None):
    """A fresh campaign; ``reference`` swaps in the serial executor on
    the sequential (or adaptive) source with the same features."""
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
        kwargs["pipeline"] = False
        if source in ADAPTIVE_SOURCES:
            kwargs["adaptive"] = ADAPTIVE
    elif source == "sequential":
        kwargs["executor"] = make_executor("fused")
    elif source == "pipelined":
        kwargs.update(executor=pool, pipeline=True)
    elif source == "adaptive":
        kwargs.update(executor=make_executor("fused"), adaptive=ADAPTIVE)
    elif source == "fleet":
        kwargs["executor"] = fleet
    else:
        kwargs.update(executor=fleet, adaptive=ADAPTIVE)
    return Campaign(_scope(), **kwargs)


@pytest.fixture(scope="module")
def references(tmp_path_factory, pool):
    """Serial sequential stores, built once per (adaptive, features)."""
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
    source, mode, features, tmp_path, pool, fleet, references
):
    store = ResultStore(tmp_path / "store")
    if mode == "resume":
        first = _campaign(source, features, store, pool, fleet=fleet).run(
            [FIGURES[0]]
        )
        assert first.completed == [FIGURES[0]]
        result = _campaign(source, features, store, pool, fleet=fleet).run(
            list(FIGURES), resume=True
        )
        assert result.skipped == [FIGURES[0]]
        assert result.completed == [FIGURES[1]]
    else:
        result = _campaign(source, features, store, pool, fleet=fleet).run(
            list(FIGURES)
        )
        assert result.completed == list(FIGURES)
    assert result.succeeded

    if source == "pipelined":
        expected = "health-supervised" if "supervise" in features else None
        assert result.pipeline_declined_reason == expected
    if source.startswith("fleet"):
        # The slices ran on the dial-in workers.
        assert result.engine_stats["dispatches"] > 0

    reference = references(source, features)
    for name in FIGURES:
        assert (store.directory / f"{name}.json").read_bytes() == (
            reference / f"{name}.json"
        ).read_bytes(), name
    assert sorted(store.load_manifest().completed) == sorted(FIGURES)
    assert audit_store(store, sample=len(FIGURES), seed=0).passed


@pytest.mark.parametrize("source, features", REFUSED_CASES)
def test_refused_combination_raises(source, features, pool):
    executor = ProcessPoolExecutor(jobs=2)
    with pytest.raises(ConfigurationError, match="does not combine"):
        _campaign(source, features, None, pool, fleet=executor)
    # Refused before any worker started.
    assert executor._workers == []


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
