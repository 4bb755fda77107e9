"""The campaign's one plan stream and the retry pass behind it.

Every fixed-budget campaign runs its figures as one ``run_many``
stream; a figure the stream could not settle -- a leaked transient
fault, or under health supervision a bench that died mid-stream --
re-runs in the retry pass.  These tests pin what that costs and what a
caller sees: the streamed run is attempt 1 of the retry budget on
every executor, results read in the requested order however late a
figure committed, and a dying bench degrades the figures it touched
instead of failing them.
"""

import pytest

from repro.characterization.campaign import Campaign, RetryPolicy
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.chaos import ChaosConfig
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import make_executor
from repro.errors import ProgramTransferError
from repro.health import HealthTracker, audit_store

DYING = TESTED_MODULES[1].module_identifier + "#0"


def make_scope(specs=TESTED_MODULES[:1]) -> CharacterizationScope:
    return CharacterizationScope.build(
        config=SimulationConfig(seed=53, columns_per_row=64),
        specs=list(specs),
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


def no_sleep(_delay: float) -> None:
    return None


def down_for(failures: int, calls: dict):
    """A figure whose first ``failures`` runs lose the rig link."""

    def compute(_scope):
        calls["n"] += 1
        if calls["n"] <= failures:
            raise ProgramTransferError("rig down")
        return {"a": 1.0}

    return compute


@pytest.mark.parametrize("name", ["fused", "fused-parallel"])
def test_streamed_run_is_the_first_attempt(name, fake_figure):
    calls = {"n": 0}
    fake_figure("figok", lambda _scope: {"b": 2.0})
    fake_figure("figdown", down_for(2, calls))
    with make_executor(name, jobs=2) as executor:
        result = Campaign(
            make_scope(),
            executor=executor,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            sleep=no_sleep,
        ).run(["figok", "figdown"])
    assert calls["n"] == 2
    assert result.completed == ["figok"]
    (failure,) = result.failures
    assert failure.reason == "retries-exhausted"
    assert failure.attempts == 2


@pytest.mark.parametrize("name", ["fused", "fused-parallel"])
def test_late_commits_report_in_requested_order(name, fake_figure, tmp_path):
    calls = {"n": 0}
    fake_figure("figdown", down_for(1, calls))
    fake_figure("figok", lambda _scope: {"b": 2.0})
    store = ResultStore(tmp_path / "results")
    with make_executor(name, jobs=2) as executor:
        result = Campaign(
            make_scope(),
            store=store,
            executor=executor,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=no_sleep,
        ).run(["figdown", "figok"])
    # figdown committed after figok ...
    assert store.load_manifest().completed == ["figok", "figdown"]
    # ... but the result reads in the order it was asked for.
    assert result.completed == ["figdown", "figok"]
    assert list(result.data) == ["figdown", "figok"]
    assert result.attempts == {"figdown": 2, "figok": 1}
    assert result.summary_lines() == [
        "  figdown: done after 2 attempts",
        "  figok: done",
    ]


DIES_AFTER = 35
"""Clean link sites the dying bench passes: the up-front probe and
fig4a's 25 tasks take 26 of them, and fig11's 15 tasks would take 41."""


@pytest.mark.parametrize("name", ["serial", "fused", "fused-parallel"])
def test_bench_dying_mid_stream_degrades_later_figures(name, tmp_path):
    # The doomed bench survives the up-front probe and fig4a, then
    # dies inside fig11; fig11 and fig3 re-run without it.  Sites are
    # counted in the campaign's order, so one count fits every
    # executor.
    figures = ["fig4a", "fig11", "fig3"]
    store = ResultStore(tmp_path / "supervised")
    with make_executor(name) as executor:
        result = Campaign(
            make_scope(TESTED_MODULES[:3]),
            store=store,
            chaos=ChaosConfig(
                seed=5,
                bench_failure_serials=(DYING,),
                bench_failure_after=DIES_AFTER,
            ),
            executor=executor,
            health=HealthTracker(),
            sleep=no_sleep,
        ).run(figures)
    assert result.succeeded
    assert result.completed == figures
    assert result.quality["fig4a"]["modules_quarantined"] == []
    healthy = make_scope([TESTED_MODULES[0], TESTED_MODULES[2]])
    for late in ("fig11", "fig3"):
        assert result.quality[late]["modules_quarantined"] == [DYING]
        assert DYING not in result.quality[late]["modules_active"]
        clean = Campaign(healthy, sleep=no_sleep).run([late])
        assert clean.data[late] == result.data[late]
    assert audit_store(store, sample=len(figures)).passed
