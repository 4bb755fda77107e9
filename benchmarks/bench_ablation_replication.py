"""Ablation: input replication vs merely opening more rows.

Section 7.2 credits the MAJX success gains to *replication* raising
the bitline perturbation, not to the wider activation itself.  The
ablation isolates that: run MAJ3 on the same 32-row groups with
10 replicas (the paper's configuration) versus a single copy of each
operand plus 29 neutral rows (same activation count, no replication).
If replication is the mechanism, the padded variant must collapse to
roughly the 4-row success level.
"""

import numpy as np

from _common import emit, env_int, make_config, run_once

from repro.bender.testbench import TestBench
from repro.characterization.experiment import OperatingPoint
from repro.core.rowgroups import sample_groups
from repro.dram.vendor import TESTED_MODULES
from repro.engine import FusedExecutor, MajXKernel, TrialPlan, TrialTask


def _measure(bench, groups, replicas, trials, columns):
    tasks = [
        TrialTask(
            index=i,
            bench_index=0,
            serial=bench.module.serial,
            bank=0,
            subarray=group.subarray,
            group=group,
            trials=trials,
            cells=columns,
        )
        for i, group in enumerate(groups)
    ]
    plan = TrialPlan(
        name=f"ablation-maj3-r{replicas}",
        kernel=MajXKernel(3, replicas=replicas),
        point=OperatingPoint(t1_ns=1.5, t2_ns=3.0),
        tasks=tasks,
        benches=[bench],
    )
    result = FusedExecutor().run(plan)
    return float(np.mean(result.rates()))


def bench_ablation_input_replication(benchmark):
    config = make_config(seed=4001)
    bench = TestBench.for_spec(TESTED_MODULES[0], config=config)
    groups = sample_groups(
        0, 512, 32, env_int("SIMRA_BENCH_GROUPS", 4), "ablation-repl"
    )
    group4 = sample_groups(
        0, 512, 4, env_int("SIMRA_BENCH_GROUPS", 4), "ablation-repl4"
    )
    trials = env_int("SIMRA_BENCH_TRIALS", 8)
    columns = config.columns_per_row

    def run():
        return {
            "MAJ3 @32 rows, 10 replicas": _measure(bench, groups, 10, trials, columns),
            "MAJ3 @32 rows, 5 replicas": _measure(bench, groups, 5, trials, columns),
            "MAJ3 @32 rows, 2 replicas": _measure(bench, groups, 2, trials, columns),
            "MAJ3 @32 rows, 1 replica + 29 neutral": _measure(
                bench, groups, 1, trials, columns
            ),
            "MAJ3 @4 rows (paper baseline)": _measure(
                bench, group4, 1, trials, columns
            ),
        }

    rates = run_once(benchmark, run)

    body = "\n".join(f"  {k:<42} {v:8.2%}" for k, v in rates.items())
    emit("Ablation: replication vs activation count (MAJ3 success)", body)

    # Replication, not the open-row count, carries the gain.
    assert rates["MAJ3 @32 rows, 10 replicas"] > 0.9
    assert (
        rates["MAJ3 @32 rows, 10 replicas"]
        > rates["MAJ3 @32 rows, 5 replicas"]
        > rates["MAJ3 @32 rows, 1 replica + 29 neutral"]
    )
    # Padding with neutral rows is even worse than 4-row activation:
    # the extra parasitic cell capacitance divides the same signal.
    assert (
        rates["MAJ3 @32 rows, 1 replica + 29 neutral"]
        <= rates["MAJ3 @4 rows (paper baseline)"] + 0.02
    )
