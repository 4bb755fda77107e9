"""Tests for pipelined cross-experiment scheduling."""

import weakref

import pytest

from repro.characterization.activation import program_fig4a
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.rowcopy import program_fig11
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import (
    CampaignScheduler,
    ExperimentProgram,
    PlanStep,
    SerialExecutor,
    make_executor,
)


@pytest.fixture(scope="module")
def scope():
    config = SimulationConfig(seed=43, columns_per_row=64)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES[:1],
        modules_per_spec=1,
        groups_per_size=1,
        trials=2,
    )


class TestExperimentProgram:
    def test_program_is_declarative(self, scope):
        program = program_fig4a(scope)
        assert program.name == "fig4a"
        assert len(program.steps) > 1
        assert all(isinstance(step, PlanStep) for step in program.steps)


class TestCampaignScheduler:
    def test_pipelined_matches_sequential_reference(self, scope):
        reference = {
            "fig4a": program_fig4a(scope).run(),
            "fig11": program_fig11(scope).run(),
        }
        with make_executor("fused-parallel", jobs=2) as executor:
            outcome = CampaignScheduler(executor).run(
                [program_fig4a(scope), program_fig11(scope)]
            )
            pipelined_plans = executor.metrics.pipelined_plans
            occupancy = executor.metrics.pipeline_occupancy
        assert set(outcome) == {"fig4a", "fig11"}
        for name, (status, value) in outcome.items():
            assert status == "ok"
            assert value == reference[name]  # bit-identical payloads
        total_steps = len(program_fig4a(scope).steps) + len(
            program_fig11(scope).steps
        )
        assert pipelined_plans == total_steps
        assert 0.0 <= occupancy <= 1.0

    def test_program_errors_are_isolated(self, scope):
        healthy = program_fig4a(scope)
        broken_step = PlanStep(
            healthy.steps[0].plan, lambda result: 1 / 0
        )
        broken = ExperimentProgram(
            "broken", (broken_step,), lambda values: values
        )
        with make_executor("fused-parallel", jobs=2) as executor:
            outcome = CampaignScheduler(executor).run([broken, healthy])
        status, error = outcome["broken"]
        assert status == "error"
        assert isinstance(error, ZeroDivisionError)
        status, value = outcome["fig4a"]
        assert status == "ok"
        assert value == program_fig4a(scope).run()

    def test_empty_program_list(self):
        with make_executor("fused-parallel", jobs=2) as executor:
            assert CampaignScheduler(executor).run([]) == {}


class TestInProcessStream:
    """Every executor runs the stream: in-process ones back to back."""

    @pytest.mark.parametrize("name", ["serial", "fused"])
    def test_stream_matches_program_runs(self, scope, name):
        programs = [program_fig4a(scope), program_fig11(scope)]
        executor = make_executor(name)
        outcome = CampaignScheduler(executor).run(programs)
        assert outcome == {
            program.name: ("ok", program.run(SerialExecutor()))
            for program in programs
        }
        assert executor.metrics.pipelined_plans == sum(
            len(program.steps) for program in programs
        )

    def test_zero_step_programs_settle_in_order(self, scope):
        def empty(name):
            return ExperimentProgram(name, (), lambda values: name)

        streamed = []
        CampaignScheduler(SerialExecutor()).run(
            [empty("lead"), program_fig4a(scope), empty("tail")],
            on_program=lambda name, outcome: streamed.append(
                (name, outcome[0])
            ),
        )
        assert streamed == [("lead", "ok"), ("fig4a", "ok"), ("tail", "ok")]

    def test_settled_programs_release_their_plan_results(self, scope):
        executor = SerialExecutor()
        run = executor.run
        refs = []

        def tracked(plan):
            result = run(plan)
            refs.append(weakref.ref(result))
            return result

        executor.run = tracked
        first = program_fig4a(scope)
        alive = {}

        def settled(name, _outcome):
            alive[name] = sum(
                ref() is not None for ref in refs[:len(first.steps)]
            )

        CampaignScheduler(executor).run(
            [first, program_fig11(scope)], on_program=settled
        )
        # Once fig4a has settled, the stream holds none of its results.
        assert alive["fig11"] == 0


class TestStreamingPrograms:
    """run(on_program): finished programs stream in program order --
    the campaign's per-program commit point (PR 6)."""

    def test_outcomes_stream_in_program_order(self, scope):
        streamed = []
        with make_executor("fused-parallel", jobs=2) as executor:
            outcome = CampaignScheduler(executor).run(
                [program_fig4a(scope), program_fig11(scope)],
                on_program=lambda name, o: streamed.append((name, o)),
            )
        assert [name for name, _ in streamed] == ["fig4a", "fig11"]
        assert dict(streamed) == outcome

    def test_errors_stream_too(self, scope):
        healthy = program_fig4a(scope)
        broken_step = PlanStep(healthy.steps[0].plan, lambda result: 1 / 0)
        broken = ExperimentProgram(
            "broken", (broken_step,), lambda values: values
        )
        streamed = []
        with make_executor("fused-parallel", jobs=2) as executor:
            CampaignScheduler(executor).run(
                [broken, healthy],
                on_program=lambda name, o: streamed.append((name, o[0])),
            )
        assert streamed == [("broken", "error"), ("fig4a", "ok")]

    def test_interrupt_in_hook_propagates(self, scope):
        def hook(_name, _outcome):
            raise KeyboardInterrupt

        with make_executor("fused-parallel", jobs=2) as executor:
            with pytest.raises(KeyboardInterrupt):
                CampaignScheduler(executor).run(
                    [program_fig4a(scope), program_fig11(scope)],
                    on_program=hook,
                )
