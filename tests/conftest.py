"""Shared fixtures.

Benches and configs are deliberately small (few columns, few trials)
so the full suite stays fast while exercising the same code paths the
paper-scale benchmarks use.
"""

from __future__ import annotations

import pytest

from repro.bender.testbench import TestBench
from repro.config import SimulationConfig
from repro.dram.vendor import (
    PROFILE_SAMSUNG,
    TESTED_MODULES,
)
from repro.dram.module import Module
from repro.engine import ExperimentProgram

# Property tests draw the same examples on every run: a failure
# reproduces from the test id alone, and no example database is kept.
# Suites that need no property tests run without hypothesis installed.
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("seeded", derandomize=True, database=None)
    settings.load_profile("seeded")


@pytest.fixture(scope="session")
def quick_config() -> SimulationConfig:
    """Small, reliability-enabled configuration."""
    return SimulationConfig(seed=2024, columns_per_row=256, trials_per_test=6)


@pytest.fixture(scope="session")
def ideal_config() -> SimulationConfig:
    """Functional-only configuration (no unstable cells)."""
    return SimulationConfig.ideal()


@pytest.fixture()
def bench_h(quick_config) -> TestBench:
    """Fresh Mfr. H (SK Hynix M-die) bench."""
    return TestBench.for_spec(TESTED_MODULES[0], config=quick_config)


@pytest.fixture()
def bench_m(quick_config) -> TestBench:
    """Fresh Mfr. M (Micron E-die) bench."""
    return TestBench.for_spec(TESTED_MODULES[2], config=quick_config)


@pytest.fixture()
def bench_samsung(quick_config) -> TestBench:
    """Fresh Samsung-profile bench (multi-row activation blocked)."""
    module = Module("SAMSUNG-TEST#0", PROFILE_SAMSUNG, config=quick_config)
    return TestBench(module)


@pytest.fixture()
def bench_ideal(ideal_config) -> TestBench:
    """Fresh functional-only Mfr. H bench."""
    return TestBench.for_spec(TESTED_MODULES[0], config=ideal_config)


@pytest.fixture()
def fake_figure(monkeypatch):
    """Register a stand-in figure for the duration of one test.

    ``fake_figure(name, compute)`` makes ``name`` a campaign figure
    whose data is ``compute(scope)``: a zero-step program, so it runs
    through every in-process source and executor like a real one, and
    whatever ``compute`` raises surfaces where a real figure's error
    would. The stand-in lives in this process's registry only: fleet
    workers build figures from their own and do not know it.
    """
    from repro.characterization.campaign import EXPERIMENT_PROGRAMS

    def register(name, compute):
        monkeypatch.setitem(
            EXPERIMENT_PROGRAMS,
            name,
            lambda scope: ExperimentProgram(
                name, (), lambda _values: compute(scope)
            ),
        )

    return register
