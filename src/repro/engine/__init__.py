"""Unified trial-execution engine.

One pipeline layer under every characterization: modules build
declarative :class:`TrialPlan` objects (which sites, which row groups,
how many trials, which :class:`~repro.engine.kernels.TrialKernel`) and
executors run them -- serially through the full bender path (the
reference), or fused into packed bit-plane math straight from the
behavior model, in process or sharded across worker processes.  The
engine's hard contract is determinism: for a given plan and simulation
seed, every executor produces bit-identical results.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "ActivationKernel": ".kernels",
    "AdaptiveConfig": ".planner",
    "AdaptiveOutcome": ".planner",
    "AdaptivePlanner": ".planner",
    "CellReport": ".planner",
    "CampaignScheduler": ".scheduler",
    "DisturbanceKernel": ".kernels",
    "EngineMetrics": ".metrics",
    "ExecutorBase": ".executors",
    "ExperimentProgram": ".scheduler",
    "FusedExecutor": ".executors",
    "MajXKernel": ".kernels",
    "MultiRowCopyKernel": ".kernels",
    "OutcomeColumns": ".columnar",
    "PlanResult": ".plan",
    "PlanStep": ".scheduler",
    "ProcessPoolExecutor": ".executors",
    "SerialExecutor": ".executors",
    "TaskColumns": ".columnar",
    "TaskOutcome": ".plan",
    "TrialKernel": ".kernels",
    "TrialPlan": ".plan",
    "TrialTask": ".plan",
    "allocate_round": ".planner",
    "available_cpu_count": ".executors",
    "checkpoint_means": ".plan",
    "checkpoint_rates_by_count": ".plan",
    "merge_outcomes": ".plan",
    "slice_plan": ".plan",
    "columns_from_arrays": ".columnar",
    "columns_to_arrays": ".columnar",
    "fleet_scope": ".fleet",
    "make_executor": ".executors",
    "measurement_context": ".kernels",
    "pack_outcomes": ".columnar",
    "pack_tasks": ".columnar",
    "point_token": ".kernels",
    "rates_by_serial": ".plan",
    "recv_columns": ".fleet",
    "recv_frame": ".fleet",
    "render_stats_dict": ".metrics",
    "run_plan": ".executors",
    "run_task_serial": ".executors",
    "run_tasks_fused": ".executors",
    "send_columns": ".fleet",
    "send_frame": ".fleet",
    "tasks_for_scope": ".plan",
    "unpack_outcomes": ".columnar",
    "unpack_tasks": ".columnar",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
