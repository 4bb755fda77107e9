"""``TestBench.resolve``: the APA semantic without the physics.

The fused executors gate their vectorized math on the semantic an APA
program resolves to.  ``resolve`` reads that semantic off the bank's
decision table instead of replaying cells, so it must agree with a
real replay on every vendor, timing and row pair, leave the device
untouched, keep the bus clock where a replay would leave it, and
consume the same chaos fault checks as a replay.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bender.program import ProgramBuilder, apa_program
from repro.bender.testbench import TestBench
from repro.chaos import ChaosConfig, ChaosHarness
from repro.config import SimulationConfig
from repro.dram.module import Module
from repro.dram.vendor import PROFILE_SAMSUNG, TESTED_MODULES
from repro.errors import (
    PersistentBenchError,
    ProtocolError,
    TransientInfrastructureError,
)

PROFILES = [spec.profile for spec in TESTED_MODULES] + [PROFILE_SAMSUNG]

# The 1.5 ns command grid plus every regime boundary: 3.0 (interrupt
# window), 4.5 (Frac window), 6.0 (sense-drive threshold) and 8.0
# (consecutive window, off the 1.5 grid -- hence the 0.5 ns programs).
TIMINGS = sorted(
    {1.5 * k for k in range(1, 11)} | {2.5, 3.5, 5.5, 6.5, 7.5, 8.0, 8.5, 36.0}
)
GRANULARITY_NS = 0.5


def twin_benches(profile):
    config = SimulationConfig(seed=3, columns_per_row=64)
    return tuple(
        TestBench(Module("TWIN#0", profile, config=config)) for _ in range(2)
    )


@st.composite
def apa_specs(draw, profile):
    """(bank, first row, second row, t1, t2) for one APA program."""
    rows = profile.subarray_rows
    first_sub = draw(st.integers(0, 3))
    second_sub = draw(st.sampled_from([first_sub, first_sub + 1]))
    first_local = draw(st.integers(0, rows - 1))
    second_local = draw(
        st.integers(0, rows - 1).filter(lambda row: row != first_local)
    )
    return (
        draw(st.integers(0, 1)),
        first_sub * rows + first_local,
        second_sub * rows + second_local,
        draw(st.sampled_from(TIMINGS)),
        draw(st.sampled_from(TIMINGS)),
    )


@st.composite
def scenarios(draw):
    profile = draw(st.sampled_from(PROFILES))
    programs = draw(st.lists(apa_specs(profile), min_size=1, max_size=5))
    return profile, programs


def program_of(spec):
    bank, first, second, t1, t2 = spec
    return apa_program(bank, first, second, t1, t2, GRANULARITY_NS)


class TestResolveMatchesReplay:
    @settings(
        max_examples=80,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(scenarios())
    def test_semantic_and_clock_match_a_real_replay(self, scenario):
        # Every program but the last plays the role of the preceding
        # programs: the chain drifts the absolute bus times, so the
        # gaps are computed from odd absolute clocks, as in a campaign.
        profile, specs = scenario
        resolving, replaying = twin_benches(profile)
        for spec in specs:
            program = program_of(spec)
            semantic = resolving.resolve(program)
            replaying.run(program)
            event = replaying.module.bank(spec[0]).last_event
            assert semantic == event.semantic, spec
            assert (
                resolving.bender.scheduler.clock_ns
                == replaying.bender.scheduler.clock_ns
            )

    def test_every_semantic_is_reachable(self):
        seen = set()
        for profile in PROFILES:
            bench, _ = twin_benches(profile)
            rows = profile.subarray_rows
            for second in (1, rows + 1):
                for t1, t2 in ((1.5, 1.5), (36.0, 3.0), (36.0, 6.0),
                               (36.0, 13.5)):
                    seen.add(bench.resolve(apa_program(0, 0, second, t1, t2)))
        assert seen == {
            "blocked", "cross-subarray", "copy", "majority", "rowclone",
            "single",
        }


class TestResolveLeavesDeviceAlone:
    def test_no_cells_counters_or_logs_touched(self):
        bench, _ = twin_benches(TESTED_MODULES[0].profile)
        bank = bench.module.bank(0)
        for t1, t2 in ((1.5, 1.5), (36.0, 3.0), (36.0, 6.0)):
            bench.resolve(apa_program(0, 0, 7, t1, t2))
        assert bank.last_event is None
        assert len(bank.event_log) == 0
        assert sum(bank.stats.values()) == 0
        assert bank._op_counter == 0  # noqa: SLF001
        assert bank._subarrays == {}  # noqa: SLF001

    def test_rejects_programs_other_than_one_apa(self):
        bench, _ = twin_benches(TESTED_MODULES[0].profile)
        clock = bench.bender.scheduler.clock_ns
        for program in (
            ProgramBuilder().nop().build(),
            ProgramBuilder().act(0, 0).wait(36.0).pre(0).build(),
            ProgramBuilder().act(0, 0).pre(0).act(1, 5).build(),
        ):
            with pytest.raises(ProtocolError):
                bench.resolve(program)
        assert bench.bender.scheduler.clock_ns == clock


class TestResolveChaosParity:
    @staticmethod
    def outcomes(call, programs):
        results = []
        for program in programs:
            try:
                call(program)
                results.append("ok")
            except TransientInfrastructureError as exc:
                results.append(type(exc).__name__)
        return results

    def test_same_fault_sequence_as_replay(self):
        config = ChaosConfig(
            seed=11, program_drop_rate=0.3, readback_corruption_rate=0.3
        )
        programs = [
            apa_program(0, 0, 9, t1, t2)
            for t1, t2 in ((1.5, 1.5), (36.0, 3.0), (36.0, 6.0)) * 10
        ]
        resolving, replaying = twin_benches(TESTED_MODULES[0].profile)
        resolve_harness = ChaosHarness(config)
        replay_harness = ChaosHarness(config)
        with resolve_harness.installed([resolving]):
            resolved = self.outcomes(resolving.resolve, programs)
        with replay_harness.installed([replaying]):
            replayed = self.outcomes(replaying.run, programs)
        assert resolved == replayed
        assert {"ProgramTransferError", "ReadbackCorruptionError"} <= set(
            resolved
        )
        assert (
            resolve_harness.engine.stats.injected
            == replay_harness.engine.stats.injected
        )

    def test_persistent_bench_failure_counts_resolves(self):
        bench, _ = twin_benches(TESTED_MODULES[0].profile)
        harness = ChaosHarness(
            ChaosConfig(
                seed=1,
                bench_failure_serials=(bench.module.serial,),
                bench_failure_after=1,
            )
        )
        program = apa_program(0, 0, 9, 1.5, 1.5)
        with harness.installed([bench]):
            assert bench.resolve(program) == "majority"
            with pytest.raises(PersistentBenchError):
                bench.resolve(program)
