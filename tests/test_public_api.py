"""The lazy package exports keep the public API exactly as it was.

``repro``, ``repro.characterization``, ``repro.health`` and
``repro.engine`` resolve their names on first access (PEP 562).  The
lists below freeze each package's ``__all__`` from before that change,
so the laziness can neither drop, add nor reorder a public name.
"""

import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

FROZEN_ALL = {
    "repro": [
        "DEFAULT_CONFIG", "SimulationConfig", "SimraError",
        "ConfigurationError", "AddressError", "TimingViolationError",
        "ProtocolError", "UnsupportedOperationError",
        "InfrastructureError", "TransientInfrastructureError",
        "ProgramTransferError", "ReadbackCorruptionError",
        "ThermalExcursionError", "VppBrownoutError", "ExperimentError",
        "ResultCorruptionError", "TestBench", "Module", "build_module",
        "build_tested_fleet", "TESTED_MODULES", "__version__"
    ],
    "repro.characterization": [
        "BootstrapCI", "DistributionSummary", "StreamingBootstrap",
        "bootstrap_mean_ci", "bootstrap_mean_ci_each", "summarize",
        "summarize_each", "CharacterizationScope", "OperatingPoint",
        "activation_success_distribution",
        "majx_success_distribution", "majx_sizes_for",
        "multi_row_copy_distribution", "format_ci_table",
        "format_distribution_table", "format_series_table",
        "DisturbanceReport", "disturbance_check", "baseline_yield",
        "best_group_yields", "per_manufacturer_scopes",
        "fleet_bootstrap_ci", "manufacturer_gap", "module_spread",
        "per_module_majx", "majx_convergence_cis",
        "majx_convergence_curve", "overestimate_at", "ResultReader",
        "ResultStore", "CampaignManifest", "RepairFinding",
        "RepairReport", "repair_store", "Campaign", "CampaignResult",
        "ExperimentFailure", "RetryPolicy", "TimingSearchResult",
        "best_activation_timing", "best_copy_timing",
        "best_majx_timing", "search_timings"
    ],
    "repro.health": [
        "AuditFinding", "AuditReport", "audit_store",
        "scope_from_manifest", "BreakerPolicy", "BreakerState",
        "CircuitBreaker", "HealthTracker", "ModuleHealth"
    ],
    "repro.engine": [
        "ActivationKernel", "AdaptiveConfig", "AdaptiveOutcome",
        "AdaptivePlanner", "CellReport",
        "CampaignScheduler", "DisturbanceKernel", "EngineMetrics",
        "ExecutorBase", "ExperimentProgram", "FusedExecutor",
        "MajXKernel", "MultiRowCopyKernel", "OutcomeColumns",
        "PlanResult", "PlanStep", "ProcessPoolExecutor",
        "SerialExecutor", "TaskColumns", "TaskOutcome",
        "TrialKernel", "TrialPlan", "TrialTask", "allocate_round",
        "available_cpu_count", "checkpoint_means",
        "checkpoint_rates_by_count", "merge_outcomes", "slice_plan",
        "columns_from_arrays", "columns_to_arrays", "fleet_scope",
        "make_executor", "measurement_context", "pack_outcomes",
        "pack_tasks", "point_token", "rates_by_serial", "recv_columns",
        "recv_frame", "render_stats_dict",
        "run_plan", "run_task_serial", "run_tasks_fused",
        "send_columns", "send_frame", "tasks_for_scope",
        "unpack_outcomes", "unpack_tasks"
    ],
}


@pytest.fixture(params=sorted(FROZEN_ALL))
def package(request):
    return importlib.import_module(request.param)


def test_all_is_unchanged(package):
    assert package.__all__ == FROZEN_ALL[package.__name__]


def test_every_name_is_its_submodules_object(package):
    table = package._EXPORTS
    for name in package.__all__:
        if name == "__version__":
            continue
        defining = importlib.import_module(table[name], package.__name__)
        expected = getattr(defining, name)
        assert getattr(package, name) is expected, name
        # The lazy path itself, even when the name is already cached.
        assert package.__getattr__(name) is expected, name


def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(package.__all__)


def test_dir_lists_every_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_naming_the_package(package):
    with pytest.raises(AttributeError, match=re.escape(repr(package.__name__))):
        package.no_such_name


def _quickstart(where):
    """The quickstart code block of the README or the package docstring."""
    if where == "README":
        readme = (ROOT / "README.md").read_text().split("## Quickstart", 1)[1]
        return re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    return textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])


@pytest.mark.parametrize("where", ["README", "docstring"])
def test_quickstart_runs_as_written(where):
    code = _quickstart(where)
    assert "from repro import SimulationConfig, TestBench, TESTED_MODULES" in code
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + existing if existing else ""
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
