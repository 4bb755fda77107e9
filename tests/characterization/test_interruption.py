"""Graceful interruption: a killed campaign resumes without loss.

The durability contract under test: a campaign stopped mid-run -- by a
raised ``KeyboardInterrupt`` (Ctrl-C) or a SIGTERM the CLI translates
into one -- checkpoints everything already committed, reports a
resumable partial result instead of unwinding, and a ``resume=True``
re-run completes exactly the missing experiments: zero duplicated work,
zero lost artifacts, on both the sequential and the pipelined path.
"""

import json
import os
import signal

import pytest

from repro.characterization.campaign import Campaign
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.cli import EXIT_INTERRUPTED, _graceful_signals, main
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import make_executor
from repro.health.audit import audit_store

FIGURES = ("fig4a", "fig11")


def _scope():
    config = SimulationConfig(seed=43, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


class KillingStore(ResultStore):
    """Raises KeyboardInterrupt when asked to save one named artifact,
    simulating a signal arriving exactly at that commit point."""

    def __init__(self, directory, kill_on: str):
        super().__init__(directory)
        self.kill_on = kill_on

    def save(self, name, data, **kwargs):
        if name == self.kill_on:
            raise KeyboardInterrupt
        return super().save(name, data, **kwargs)


class TestSequentialInterruption:
    def test_interrupt_then_resume_loses_nothing(
        self, tmp_path, fake_figure
    ):
        calls = {"figa": 0, "figb": 0}

        def figa(_scope):
            calls["figa"] += 1
            return {"a": 1.0}

        def figb(_scope):
            calls["figb"] += 1
            return {"b": 2.0}

        fake_figure("figa", figa)
        fake_figure("figb", figb)

        directory = tmp_path / "campaign"
        partial = Campaign(
            _scope(), store=KillingStore(directory, kill_on="figb")
        ).run(["figa", "figb"])
        assert partial.interrupted
        assert not partial.succeeded
        assert partial.completed == ["figa"]
        assert "campaign interrupted" in "\n".join(partial.summary_lines())

        store = ResultStore(directory)
        assert store.load_manifest().completed == ["figa"]

        resumed = Campaign(_scope(), store=store).run(
            ["figa", "figb"], resume=True
        )
        assert resumed.succeeded and not resumed.interrupted
        assert resumed.skipped == ["figa"]
        assert resumed.completed == ["figb"]
        # The committed experiment never re-ran; the in-flight one
        # (killed at its commit point, so never persisted) ran again.
        assert calls == {"figa": 1, "figb": 2}
        assert sorted(store.load_manifest().completed) == ["figa", "figb"]


class TestPipelinedInterruption:
    def test_interrupt_loses_at_most_inflight_program(self, tmp_path):
        directory = tmp_path / "campaign"
        with make_executor("fused-parallel", jobs=2) as executor:
            partial = Campaign(
                _scope(),
                store=KillingStore(directory, kill_on=FIGURES[1]),
                executor=executor,
            ).run(list(FIGURES))
        assert partial.interrupted
        # The first program was committed by the streaming commit
        # before the kill; only the in-flight one is lost.
        assert partial.completed == [FIGURES[0]]
        assert partial.not_run == [FIGURES[1]]

        store = ResultStore(directory)
        assert store.load_manifest().completed == [FIGURES[0]]
        assert store.verify(FIGURES[0]) == "ok"

        with make_executor("fused-parallel", jobs=2) as executor:
            resumed = Campaign(
                _scope(), store=store, executor=executor
            ).run(list(FIGURES), resume=True)
        assert resumed.succeeded
        assert resumed.skipped == [FIGURES[0]]
        assert resumed.completed == [FIGURES[1]]
        assert sorted(store.load_manifest().completed) == sorted(FIGURES)

        scan = store.verify()
        assert all(
            status == "ok" for status in scan["artifacts"].values()
        )
        assert scan["orphaned_tmp"] == []
        assert scan["unreferenced_sidecars"] == []
        assert audit_store(store, sample=1, scope=_scope()).passed

    def test_resumed_artifacts_match_uninterrupted_serial_run(
        self, tmp_path
    ):
        serial_store = ResultStore(tmp_path / "serial")
        Campaign(_scope(), store=serial_store).run(list(FIGURES))

        directory = tmp_path / "interrupted"
        with make_executor("fused-parallel", jobs=2) as executor:
            Campaign(
                _scope(),
                store=KillingStore(directory, kill_on=FIGURES[1]),
                executor=executor,
            ).run(list(FIGURES))
        store = ResultStore(directory)
        with make_executor("fused-parallel", jobs=2) as executor:
            Campaign(_scope(), store=store, executor=executor).run(
                list(FIGURES), resume=True
            )
        for name in FIGURES:
            serial_doc = (serial_store.directory / f"{name}.json").read_text()
            resumed_doc = (store.directory / f"{name}.json").read_text()
            assert json.loads(serial_doc)["checksum"] == (
                json.loads(resumed_doc)["checksum"]
            ), name


class TestSignalHandling:
    def test_graceful_signals_translates_sigterm(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt):
            with _graceful_signals():
                assert signal.getsignal(signal.SIGTERM) is not before
                os.kill(os.getpid(), signal.SIGTERM)
        # The previous disposition is restored on exit.
        assert signal.getsignal(signal.SIGTERM) is before

    def test_campaign_cli_exits_3_on_interrupt(
        self, tmp_path, fake_figure, capsys
    ):
        def killed(_scope):
            raise KeyboardInterrupt

        fake_figure("fig4a", killed)
        code = main([
            "campaign", "--experiments", "fig4a",
            "--results-dir", str(tmp_path / "store"),
            "--columns", "64", "--groups", "1", "--trials", "2",
        ])
        assert code == EXIT_INTERRUPTED
        out = capsys.readouterr().out
        assert "interrupted" in out
