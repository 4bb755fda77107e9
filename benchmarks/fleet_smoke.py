#!/usr/bin/env python
"""Nightly fleet smoke: kill a worker mid-campaign, lose nothing.

Runs a two-figure campaign through the real socket backend -- two
``simra-dram worker`` subprocesses dialed into a
:class:`~repro.engine.fleet.LocalFleet`, the fused-parallel executor
over dial-in workers -- and SIGKILLs one worker while the campaign
runs.  The executor must notice the death, re-queue the orphaned
slice, and finish the campaign; the stored artifacts must be
byte-equal to a single-host serial reference; and ``audit`` (checksum
+ serial recompute) must pass on the fleet store with no
fleet-specific handling.

This is the fleet tier's whole contract in one script: distribution
changes where the work runs, never what gets stored -- even across a
worker death.

Usage::

    PYTHONPATH=src python benchmarks/fleet_smoke.py
    PYTHONPATH=src python benchmarks/fleet_smoke.py --kill-after 0.1
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.characterization.campaign import Campaign  # noqa: E402
from repro.characterization.experiment import (  # noqa: E402
    CharacterizationScope,
)
from repro.characterization.store import ResultStore  # noqa: E402
from repro.config import SimulationConfig  # noqa: E402
from repro.dram.vendor import TESTED_MODULES  # noqa: E402
from repro.engine.fleet import LocalFleet  # noqa: E402
from repro.health import audit_store  # noqa: E402


def check(condition: bool, message: str) -> int:
    print(("ok  " if condition else "FAIL") + f" {message}")
    return 0 if condition else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figures", nargs="+", default=["fig3", "fig6"],
        help="campaign figures (default: fig3 fig6)",
    )
    parser.add_argument("--columns", type=int, default=128)
    parser.add_argument("--groups", type=int, default=2)
    parser.add_argument("--trials", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--kill-after", type=float, default=0.05,
        help="seconds into the fleet run at which worker 0 is "
        "SIGKILLed; must land before the campaign's last slice to it "
        "(default 0.05: the whole campaign takes a few tenths of a "
        "second)",
    )
    args = parser.parse_args(argv)

    def build_scope() -> CharacterizationScope:
        return CharacterizationScope.build(
            config=SimulationConfig(
                seed=args.seed, columns_per_row=args.columns
            ),
            specs=TESTED_MODULES,
            modules_per_spec=1,
            groups_per_size=args.groups,
            trials=args.trials,
        )

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        ref_dir = Path(tmp) / "reference"
        fleet_dir = Path(tmp) / "fleet"

        print(f"serial reference campaign: {' '.join(args.figures)}")
        reference = Campaign(build_scope(), store=ResultStore(ref_dir)).run(
            list(args.figures)
        )
        failures += check(reference.succeeded, "reference campaign succeeded")

        print(
            f"fleet campaign over 2 workers, SIGKILL worker 0 at "
            f"t+{args.kill_after:.1f}s"
        )
        with LocalFleet(workers=2) as fleet:
            campaign = Campaign(
                build_scope(), store=ResultStore(fleet_dir), executor=fleet
            )
            killer = threading.Timer(
                args.kill_after, lambda: fleet.kill_worker(0)
            )
            killer.start()
            try:
                result = campaign.run(list(args.figures))
            finally:
                killer.cancel()

        stats = result.engine_stats
        failures += check(result.succeeded, "fleet campaign succeeded")
        failures += check(
            result.completed == list(args.figures),
            "figures committed in deterministic order",
        )
        failures += check(
            stats["worker_deaths"] >= 1,
            f"worker death detected ({stats['worker_deaths']})",
        )
        failures += check(
            stats["tasks_resharded"] >= 1,
            f"orphaned slice re-issued ({stats['tasks_resharded']} tasks)",
        )

        failures += check(
            ResultStore(fleet_dir).load_manifest().fingerprint
            == ResultStore(ref_dir).load_manifest().fingerprint,
            "manifest fingerprint equal to the single-host one",
        )
        for name in args.figures:
            same = (fleet_dir / f"{name}.json").read_bytes() == (
                ref_dir / f"{name}.json"
            ).read_bytes()
            failures += check(
                same, f"{name} artifact byte-equal to serial reference"
            )

        report = audit_store(ResultStore(fleet_dir), sample=2, seed=0)
        for line in report.summary_lines():
            print(f"  {line}")
        failures += check(report.passed, "audit PASS on the fleet store")

    print("fleet smoke: " + ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
