"""Characterization harness reproducing the paper's sections 4-6.

The harness mirrors the paper's methodology (section 3.1): per module,
randomly select subarrays per bank, randomly sample row groups per
activation size, run repeated trials of each operation, and report the
distribution of per-group success rates across everything tested.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "BootstrapCI": ".stats",
    "DistributionSummary": ".stats",
    "StreamingBootstrap": ".stats",
    "bootstrap_mean_ci": ".stats",
    "bootstrap_mean_ci_each": ".stats",
    "summarize": ".stats",
    "summarize_each": ".stats",
    "CharacterizationScope": ".experiment",
    "OperatingPoint": ".experiment",
    "activation_success_distribution": ".activation",
    "figure3_timing_grid": ".activation",
    "figure4a_temperature": ".activation",
    "figure4b_voltage": ".activation",
    "majx_success_distribution": ".majority",
    "majx_sizes_for": ".majority",
    "figure6_maj3_grid": ".majority",
    "figure7_patterns": ".majority",
    "figure8_temperature": ".majority",
    "figure9_voltage": ".majority",
    "multi_row_copy_distribution": ".rowcopy",
    "figure10_timing_grid": ".rowcopy",
    "figure11_patterns": ".rowcopy",
    "figure12a_temperature": ".rowcopy",
    "figure12b_voltage": ".rowcopy",
    "format_ci_table": ".report",
    "format_distribution_table": ".report",
    "format_series_table": ".report",
    "DisturbanceReport": ".disturbance",
    "disturbance_check": ".disturbance",
    "baseline_yield": ".fleet",
    "best_group_yields": ".fleet",
    "per_manufacturer_scopes": ".fleet",
    "fleet_bootstrap_ci": ".variability",
    "manufacturer_gap": ".variability",
    "module_spread": ".variability",
    "per_module_majx": ".variability",
    "majx_convergence_cis": ".convergence",
    "majx_convergence_curve": ".convergence",
    "overestimate_at": ".convergence",
    "ResultReader": ".reader",
    "ResultStore": ".store",
    "CampaignManifest": ".store",
    "RepairFinding": ".repair",
    "RepairReport": ".repair",
    "repair_store": ".repair",
    "Campaign": ".campaign",
    "CampaignResult": ".campaign",
    "ExperimentFailure": ".campaign",
    "RetryPolicy": ".campaign",
    "TimingSearchResult": ".timing_search",
    "best_activation_timing": ".timing_search",
    "best_copy_timing": ".timing_search",
    "best_majx_timing": ".timing_search",
    "search_timings": ".timing_search",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
