"""Tests for the adaptive corner-matrix planner.

The planner's contract has three legs: round-sliced execution is
bit-identical to one-shot execution (trial-index noise keying),
allocation is a pure deterministic function of (observations, seed),
and the assembled figure value of a run that exhausts its budget
matches the fixed-budget reference exactly.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.characterization.activation import (
    build_activation_plan,
    program_fig4a,
)
from repro.characterization.majority import (
    MAJX_POINT,
    build_majx_plan,
    program_fig9,
)
from repro.characterization.rowcopy import COPY_POINT, build_copy_plan
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import (
    AdaptiveConfig,
    AdaptivePlanner,
    FusedExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
    TrialPlan,
    merge_outcomes,
    slice_plan,
)
from repro.engine.planner import _CellState, allocate_round
from repro.engine.scheduler import ExperimentProgram, PlanStep
from repro.errors import ExperimentError

ACT_POINT = OperatingPoint(t1_ns=1.5, t2_ns=3.0)


def make_scope(seed=51, columns=64, trials=4, groups=1, specs=1):
    return CharacterizationScope.build(
        config=SimulationConfig(seed=seed, columns_per_row=columns),
        specs=TESTED_MODULES[:specs],
        modules_per_spec=1,
        groups_per_size=groups,
        trials=trials,
    )


def _assert_outcomes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.index == b.index
        assert a.rate == b.rate  # exact, not approximate
        assert a.trials == b.trials
        assert a.trial_rates == b.trial_rates
        assert np.array_equal(a.mask, b.mask)


SLICE_TRIALS = 6


@pytest.fixture(scope="module")
def kernel_plans():
    """One plan per kernel, each with its one-shot serial outcomes."""
    scope = make_scope(trials=SLICE_TRIALS)
    plans = (
        build_activation_plan(scope, 8, ACT_POINT),
        build_majx_plan(scope, 3, 8, MAJX_POINT),
        build_copy_plan(scope, 7, COPY_POINT),
    )
    return [(plan, SerialExecutor().run(plan).outcomes) for plan in plans]


@pytest.fixture(
    scope="module",
    params=[
        SerialExecutor,
        FusedExecutor,
        ProcessPoolExecutor,
        lambda: ProcessPoolExecutor(jobs=1),
    ],
    ids=[
        "SerialExecutor", "FusedExecutor", "ProcessPoolExecutor",
        "ProcessPoolExecutor@1",
    ],
)
def executor(request):
    """One executor per kind, shared by every example, so each pool's
    workers start once per module."""
    built = request.param()
    yield built
    built.close()


class TestRoundSlicing:
    """slice_plan + merge_outcomes == one-shot, on every executor."""

    @settings(max_examples=8, deadline=None)
    @given(cuts=st.sets(st.integers(1, SLICE_TRIALS - 1)))
    def test_slices_merge_to_one_shot(self, cuts, kernel_plans, executor):
        bounds = [0, *sorted(cuts), SLICE_TRIALS]
        for plan, reference in kernel_plans:
            windows = [
                executor.run(slice_plan(plan, start, stop - start)).outcomes
                for start, stop in zip(bounds, bounds[1:])
            ]
            merged = [
                functools.reduce(merge_outcomes, parts)
                for parts in zip(*windows)
            ]
            _assert_outcomes_equal(merged, reference)

    def test_extension_past_built_budget(self):
        # A plan built for 4 trials, sliced out to 12, must be
        # bit-identical to a plan built for 12 from the start: the
        # noise stream is keyed by absolute trial index, not by the
        # built trial count.
        short = build_activation_plan(make_scope(trials=4), 8, ACT_POINT)
        long = build_activation_plan(make_scope(trials=12), 8, ACT_POINT)
        reference = SerialExecutor().run(long).outcomes
        executor = SerialExecutor()
        first = executor.run(slice_plan(short, 0, 5)).outcomes
        second = executor.run(slice_plan(short, 5, 7)).outcomes
        merged = [merge_outcomes(a, b) for a, b in zip(first, second)]
        _assert_outcomes_equal(merged, reference)

    def test_checkpointed_plans_refuse_slicing(self):
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        checkpointed = TrialPlan(
            name=plan.name,
            kernel=plan.kernel,
            point=plan.point,
            tasks=plan.tasks,
            benches=plan.benches,
            checkpoints=(1, 2),
        )
        with pytest.raises(ValueError):
            slice_plan(checkpointed, 0, 1)

    def test_negative_window_rejected(self):
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        with pytest.raises(ValueError):
            slice_plan(plan, -1, 2)
        with pytest.raises(ValueError):
            slice_plan(plan, 0, -2)

    def test_mismatched_outcomes_refuse_merging(self):
        plan = build_activation_plan(
            make_scope(trials=2, groups=2), 8, ACT_POINT
        )
        outcomes = SerialExecutor().run(plan).outcomes
        assert len(outcomes) >= 2
        with pytest.raises(ValueError):
            merge_outcomes(outcomes[0], outcomes[1])


def _cell(step, plan, budget=32, trials_run=0, variance=None, done=False):
    cell = _CellState(
        step_index=step,
        plan=plan,
        budget=budget,
        sliceable=True,
        confidence=0.95,
        resamples=50,
        seed=0,
    )
    cell.trials_run = trials_run
    if variance is not None:
        # Plant running moments that produce exactly this variance:
        # two observations at mean +/- sqrt(variance).
        spread = float(np.sqrt(variance))
        cell._obs_n = 2
        cell._obs_sum = 1.0
        cell._obs_sumsq = (0.5 + spread) ** 2 + (0.5 - spread) ** 2
    if done:
        cell.stop_reason = "converged"
    return cell


class TestAllocateRound:
    @pytest.fixture(scope="class")
    def plan(self):
        return build_activation_plan(make_scope(trials=2), 8, ACT_POINT)

    def test_fresh_cells_get_the_floor(self, plan):
        cells = [_cell(i, plan) for i in range(3)]
        assert allocate_round(cells, 4) == {0: 4, 1: 4, 2: 4}

    def test_no_live_cells_means_no_round(self, plan):
        cells = [_cell(0, plan, done=True), _cell(1, plan, trials_run=32)]
        assert allocate_round(cells, 4) == {}

    def test_converged_cells_free_their_share(self, plan):
        # Budget is round_trials x all cells; the done cell's 4 trials
        # flow to the only live, variant cell.
        cells = [
            _cell(0, plan, done=True),
            _cell(1, plan, variance=0.04),
        ]
        assert allocate_round(cells, 4) == {1: 8}

    def test_surplus_splits_by_variance(self, plan):
        cells = [
            _cell(0, plan, done=True),
            _cell(1, plan, variance=0.09),
            _cell(2, plan, variance=0.03),
        ]
        # Surplus of 4 splits 3:1 across the live cells.
        assert allocate_round(cells, 4) == {1: 7, 2: 5}

    def test_allocation_caps_at_remaining_budget(self, plan):
        cells = [
            _cell(0, plan, done=True),
            _cell(1, plan, trials_run=31, variance=0.25),
            _cell(2, plan, variance=0.01),
        ]
        allocation = allocate_round(cells, 4)
        # Cell 1 has 1 trial of headroom; the rest lands on cell 2.
        assert allocation[1] == 1
        assert allocation[2] <= 32

    def test_zero_variance_surplus_stays_unassigned(self, plan):
        cells = [_cell(0, plan, done=True), _cell(1, plan)]
        # No variance signal yet: the live cell keeps the plain floor.
        assert allocate_round(cells, 4) == {1: 4}

    def test_equal_variance_ties_break_deterministically(self, plan):
        def build():
            return [
                _cell(0, plan, done=True),
                _cell(1, plan, variance=0.04),
                _cell(2, plan, variance=0.04),
            ]

        first = allocate_round(build(), 3)
        assert first == allocate_round(build(), 3)
        assert sum(first.values()) == 9  # floor 3+3 plus surplus 3
        assert sorted(first.values()) == [4, 5]

    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.integers(1, 40),  # budget
                st.integers(0, 40),  # trials run
                st.floats(0.0, 0.25),  # observed per-trial variance
                st.booleans(),  # converged
            ),
            min_size=1,
            max_size=8,
        ),
        ranks=st.lists(
            st.integers(0, 2**64 - 1), min_size=8, max_size=8, unique=True
        ),
        round_trials=st.integers(1, 8),
        order=st.permutations(range(8)),
    )
    # Shares that sit one rounding error apart: summing the variances
    # in list order made the reversed list allocate {0: 3, 2: 5}.
    @example(
        specs=[(13, 0, 0.05, False), (1, 0, 0.05, False), (14, 0, 0.2, False)],
        ranks=list(range(8)),
        round_trials=3,
        order=list(range(7, -1, -1)),
    )
    def test_allocation_is_a_pure_function_of_observations(
        self, plan, specs, ranks, round_trials, order
    ):
        def build():
            cells = []
            for step, (budget, run, variance, done) in enumerate(specs):
                cell = _cell(
                    step, plan, budget=budget, trials_run=min(run, budget),
                    done=done,
                )
                # Running moments whose variance is exactly the draw.
                cell._obs_n, cell._obs_sum, cell._obs_sumsq = 1, 0.0, variance
                cell.tie_rank = ranks[step]
                cells.append(cell)
            return cells

        cells = build()
        allocation = allocate_round(cells, round_trials)
        assert allocate_round(build(), round_trials) == allocation
        shuffled = [cells[index] for index in order if index < len(cells)]
        assert allocate_round(shuffled, round_trials) == allocation
        for cell in cells:
            if cell.done or cell.remaining == 0:
                assert cell.step_index not in allocation
                continue
            granted = allocation[cell.step_index]
            assert min(round_trials, cell.remaining) <= granted
            assert granted <= cell.remaining
        assert sum(allocation.values()) <= round_trials * len(cells)


class TestAdaptiveConfig:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            AdaptiveConfig(ci_target=0.0)
        with pytest.raises(ExperimentError):
            AdaptiveConfig(round_trials=0)
        with pytest.raises(ExperimentError):
            AdaptiveConfig(round_trials=8, max_trials=4)
        with pytest.raises(ExperimentError):
            AdaptiveConfig(confidence=1.0)
        with pytest.raises(ExperimentError):
            AdaptiveConfig(resamples=0)

    def test_dict_round_trip(self):
        config = AdaptiveConfig(
            ci_target=0.05, round_trials=2, max_trials=8, seed=7
        )
        assert AdaptiveConfig.from_dict(config.as_dict()) == config

    def test_from_dict_defaults_optional_knobs(self):
        config = AdaptiveConfig.from_dict(
            {"ci_target": 0.1, "round_trials": 2, "max_trials": 4}
        )
        assert config.confidence == 0.95
        assert config.resamples == 2000
        assert config.seed == 0

    def test_planner_factory_carries_the_knobs(self):
        config = AdaptiveConfig(ci_target=0.05, round_trials=2, max_trials=8)
        planner = config.planner(SerialExecutor())
        assert isinstance(planner, AdaptivePlanner)
        assert planner.ci_target == 0.05
        assert planner.round_trials == 2
        assert planner.max_trials == 8


def _program(scope, sizes=(8,)):
    return program_fig4a(scope, sizes=sizes, temperatures=(50.0,))


class TestAdaptivePlanner:
    def test_budget_exhaustion_matches_fixed_run_exactly(self):
        # MAJ7 cells sit on the success cliff at this scale, so their
        # per-trial rates genuinely vary and an unreachable CI target
        # forces every cell to max_trials; the assembled value must
        # then equal the fixed-budget reference bit for bit.
        scope = make_scope(trials=6)
        program = program_fig9(scope, x_values=(7,))
        reference = program.run(SerialExecutor())
        planner = AdaptivePlanner(
            SerialExecutor(), ci_target=1e-9, round_trials=3, max_trials=6
        )
        outcome = planner.run_program(program_fig9(scope, x_values=(7,)))
        assert outcome.value == reference
        assert all(cell.stop_reason == "budget" for cell in outcome.cells)
        assert all(cell.trials_run == 6 for cell in outcome.cells)
        assert outcome.rounds == 2
        assert outcome.trials_saved == 0

    def test_convergence_stops_early_and_saves_trials(self):
        scope = make_scope(trials=4, specs=2, groups=2)
        planner = AdaptivePlanner(
            SerialExecutor(), ci_target=0.05, round_trials=4, max_trials=64
        )
        outcome = planner.run_program(_program(scope, sizes=(8, 16)))
        assert outcome.cells
        assert all(
            cell.stop_reason in ("converged", "budget")
            for cell in outcome.cells
        )
        assert outcome.cells_converged > 0
        assert outcome.trials_run < outcome.trials_planned
        assert outcome.trials_saved == (
            outcome.trials_planned - outcome.trials_run
        )
        for cell in outcome.cells:
            if cell.stop_reason == "converged":
                assert cell.ci is not None
                assert cell.ci.halfwidth <= 0.05

    def test_rerun_is_bit_identical(self):
        scope = make_scope(trials=4)

        def run():
            planner = AdaptivePlanner(
                SerialExecutor(),
                ci_target=0.03,
                round_trials=2,
                max_trials=16,
                resamples=200,
            )
            return planner.run_program(_program(scope, sizes=(8, 16)))

        first, second = run(), run()
        assert first.value == second.value
        first_dict = first.planner_dict()
        second_dict = second.planner_dict()
        # wall time is the only non-deterministic field, and it is not
        # part of the planner annotation at all.
        assert first_dict == second_dict

    def test_checkpointed_plans_run_fixed(self):
        plan = build_activation_plan(make_scope(trials=3), 8, ACT_POINT)
        checkpointed = TrialPlan(
            name="ckpt",
            kernel=plan.kernel,
            point=plan.point,
            tasks=plan.tasks,
            benches=plan.benches,
            checkpoints=(1, 2),
        )
        program = ExperimentProgram(
            name="fixed-cell",
            steps=(PlanStep(plan=checkpointed, reduce=lambda r: r.rates()),),
            assemble=lambda values: values[0],
        )
        planner = AdaptivePlanner(
            SerialExecutor(), ci_target=0.5, round_trials=2, max_trials=16
        )
        outcome = planner.run_program(program)
        cell = outcome.cells[0]
        assert cell.stop_reason == "fixed"
        assert cell.trials_run == 3  # the built budget, once
        assert cell.rounds == 1
        assert outcome.value == program.run(SerialExecutor())

    def test_empty_plans_report_empty(self):
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        empty = TrialPlan(
            name="empty",
            kernel=plan.kernel,
            point=plan.point,
            tasks=[],
            benches=plan.benches,
        )
        program = ExperimentProgram(
            name="empty-cell",
            steps=(PlanStep(plan=empty, reduce=lambda r: r.rates()),),
            assemble=lambda values: values[0],
        )
        planner = AdaptivePlanner(
            SerialExecutor(), ci_target=0.5, round_trials=2, max_trials=4
        )
        outcome = planner.run_program(program)
        assert outcome.cells[0].stop_reason == "empty"
        assert outcome.cells[0].trials_run == 0
        assert outcome.rounds == 0
        assert outcome.value == []

    def test_on_round_observer_sees_every_round(self):
        scope = make_scope(trials=6)
        seen = []
        planner = AdaptivePlanner(
            SerialExecutor(),
            ci_target=1e-9,
            round_trials=3,
            max_trials=6,
            on_round=lambda name, index, allocation: seen.append(
                (name, index, allocation)
            ),
        )
        planner.run_program(program_fig9(scope, x_values=(7,)))
        assert [index for _, index, _ in seen] == [1, 2]
        assert all(name == "fig9" for name, _, _ in seen)
        assert all(
            count > 0 for _, _, alloc in seen for count in alloc.values()
        )

    def test_metrics_counters_accumulate(self):
        scope = make_scope(trials=4)
        executor = SerialExecutor()
        planner = AdaptivePlanner(
            executor, ci_target=0.05, round_trials=4, max_trials=32
        )
        outcome = planner.run_program(_program(scope))
        assert executor.metrics.rounds == outcome.rounds
        assert executor.metrics.cells_converged == outcome.cells_converged
        assert executor.metrics.trials_saved == outcome.trials_saved

    def test_run_programs_isolates_failures(self):
        scope = make_scope(trials=2)
        good = _program(scope)

        def boom(result):
            raise RuntimeError("reduction exploded")

        plan = build_activation_plan(scope, 8, ACT_POINT)
        bad = ExperimentProgram(
            name="bad",
            steps=(PlanStep(plan=plan, reduce=boom),),
            assemble=lambda values: values[0],
        )
        planner = AdaptivePlanner(
            SerialExecutor(), ci_target=0.5, round_trials=2, max_trials=2
        )
        outcomes = planner.run_programs([bad, good])
        assert outcomes["bad"][0] == "error"
        assert isinstance(outcomes["bad"][1], RuntimeError)
        assert outcomes["fig4a"][0] == "ok"

    def test_knob_validation(self):
        with pytest.raises(ExperimentError):
            AdaptivePlanner(
                SerialExecutor(), ci_target=0.0, round_trials=1, max_trials=2
            )
        with pytest.raises(ExperimentError):
            AdaptivePlanner(
                SerialExecutor(), ci_target=0.1, round_trials=0, max_trials=2
            )
        with pytest.raises(ExperimentError):
            AdaptivePlanner(
                SerialExecutor(), ci_target=0.1, round_trials=4, max_trials=2
            )
