"""Run a scaled-down version of the paper's whole characterization.

Run with::

    python examples/full_campaign.py [results_dir]

One call executes the section 4-6 experiment sweep (activation
timing, MAJ3 timing grid, Multi-RowCopy patterns, temperature and
voltage series) across one module per catalog spec, persists every
result as JSON (reloadable via ``ResultStore``), and prints the
combined report -- the overnight-lab-run workflow, at demo scale.

The executor is failure-isolated, as an overnight run must be: one
transient rig fault retries with backoff, one broken figure lands in
``result.failures`` without aborting the sweep, and every completed
figure is checkpointed in the store's campaign manifest -- re-running
this script against the same results directory resumes, skipping the
figures that already finished (``simra-dram campaign --resume`` is
the CLI equivalent).
"""

import sys
import time
from pathlib import Path

from repro.characterization.campaign import Campaign, RetryPolicy
from repro.characterization.experiment import CharacterizationScope
from repro.characterization.store import ResultStore
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES

FIGURES = ("fig3", "fig4a", "fig6", "fig10", "fig11")


def main() -> None:
    results_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        "campaign_results"
    )
    config = SimulationConfig(seed=2024, columns_per_row=256)
    scope = CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES,
        modules_per_spec=1,
        groups_per_size=2,
        trials=4,
    )
    store = ResultStore(results_dir)
    campaign = Campaign(
        scope,
        store=store,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.05),
    )

    print(f"Campaign over {len(scope.benches)} modules "
          f"({scope.groups_per_size} groups/size, {scope.trials} trials), "
          f"experiments: {', '.join(FIGURES)}")
    started = time.time()
    result = campaign.run(FIGURES, resume=True)
    elapsed = time.time() - started
    if result.skipped:
        print(f"Resumed from checkpoint; skipped: {', '.join(result.skipped)}")
    print(f"Completed {len(result.completed)} experiments in "
          f"{elapsed:.1f} s; results stored in {result.stored_at}/\n")

    print(campaign.render(result))

    if result.failures:
        print("\nFailed experiments (sweep continued past them):")
        for failure in result.failures:
            print(f"  {failure.experiment}: {failure.error} "
                  f"({failure.reason}, {failure.attempts} attempts)")

    print("\nStored results (reload with ResultStore):")
    for name in store.names():
        metadata = store.metadata(name)
        print(f"  {name}.json  (library {metadata['library_version']}, "
              f"seed {metadata['config']['seed']})")


if __name__ == "__main__":
    main()
