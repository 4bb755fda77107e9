#!/usr/bin/env python
"""Nightly worker-death smoke: kill a worker mid-campaign, lose nothing.

Runs a two-figure campaign on the fused-parallel executor with two
forked workers, which speak the frame protocol of
:mod:`repro.engine.fleet` over socketpairs, and SIGKILLs one worker's
pid while the campaign runs.  The executor must notice the death,
re-queue the orphaned slice, and finish the campaign; the stored
artifacts must be byte-equal to an in-process serial reference; and
``audit`` (checksum + serial recompute) must pass on the pool's store
with no special handling.

This is distribution's whole contract in one script: it changes where
the work runs, never what gets stored -- even across a worker death.

Usage::

    PYTHONPATH=src python benchmarks/worker_death_smoke.py
    PYTHONPATH=src python benchmarks/worker_death_smoke.py --kill-after 0.1
"""

from __future__ import annotations

import argparse
import os
import signal
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
from repro.engine import ProcessPoolExecutor  # noqa: E402
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
        help="seconds into the pool run at which worker 0 is "
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
        pool_dir = Path(tmp) / "pool"

        print(f"serial reference campaign: {' '.join(args.figures)}")
        reference = Campaign(build_scope(), store=ResultStore(ref_dir)).run(
            list(args.figures)
        )
        failures += check(reference.succeeded, "reference campaign succeeded")

        print(
            f"pool campaign over 2 forked workers, SIGKILL worker 0 at "
            f"t+{args.kill_after:.2f}s"
        )
        with ProcessPoolExecutor(jobs=2) as pool:
            pool.start()
            victim = pool._workers[0].process
            campaign = Campaign(
                build_scope(), store=ResultStore(pool_dir), executor=pool
            )
            killer = threading.Timer(
                args.kill_after, os.kill, (victim, signal.SIGKILL)
            )
            killer.start()
            try:
                result = campaign.run(list(args.figures))
            finally:
                killer.cancel()

        stats = result.engine_stats
        failures += check(result.succeeded, "pool campaign succeeded")
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
            ResultStore(pool_dir).load_manifest().fingerprint
            == ResultStore(ref_dir).load_manifest().fingerprint,
            "manifest fingerprint equal to the serial reference",
        )
        for name in args.figures:
            same = (pool_dir / f"{name}.json").read_bytes() == (
                ref_dir / f"{name}.json"
            ).read_bytes()
            failures += check(
                same, f"{name} artifact byte-equal to serial reference"
            )

        report = audit_store(ResultStore(pool_dir), sample=2, seed=0)
        for line in report.summary_lines():
            print(f"  {line}")
        failures += check(report.passed, "audit PASS on the pool store")

    print("worker-death smoke: " + ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
