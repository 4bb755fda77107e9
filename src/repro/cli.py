"""Command-line interface.

``simra-dram`` exposes the reproduction's main entry points without
writing Python::

    simra-dram info                     # Table 1 catalog
    simra-dram activation --rows 32     # section 4 quick characterization
    simra-dram majority --x 5           # section 5
    simra-dram rowcopy --destinations 31
    simra-dram power                    # Fig 5
    simra-dram spice                    # Fig 15
    simra-dram coldboot                 # Fig 17
    simra-dram speedups                 # Fig 16
    simra-dram trng --bits 4096         # extension: random numbers
    simra-dram decoder --rf 0 --rs 7    # decoder algebra lookup
    simra-dram campaign --resume        # checkpointed figure sweep
    simra-dram campaign --fleet 4       # slices across 4 dial-in workers
    simra-dram worker --connect H:P     # fleet worker serving a dispatcher
    simra-dram audit --results-dir d    # integrity + recompute audit
    simra-dram repair --results-dir d   # quarantine damage, patch manifest
    simra-dram stats --results-dir d    # engine metrics of a campaign
    simra-dram serve --results-dir d    # HTTP query API over stored results
    simra-dram migrate --results-dir d --out d3   # re-save as columnar v3
    simra-dram bench                    # executor benchmark sweep
    simra-dram bench --campaign         # + sequential-vs-pipelined campaign
    simra-dram cache stats              # trial-cache inventory
    simra-dram cache clear              # drop every cached outcome

Every command accepts ``--columns/--groups/--trials/--seed`` scale
knobs where relevant; measurement commands additionally take
``--executor {serial,fused,fused-parallel}`` + ``--jobs N`` to pick
the trial-engine execution strategy,
``--cache``/``--cache-dir`` to reuse bit-identical trial outcomes
across runs, and ``--stats`` to print the engine's per-layer
counters afterwards.  ``campaign --fleet N`` runs the
``fused-parallel`` executor on N ``worker`` processes that dial in
over its socket protocol instead of N forked ones, and combines with
``--chaos``, ``--supervise`` and ``--adaptive`` like any executor.

Exit codes: 0 success; 1 experiment failures, audit FAIL, or damage
found by a dry-run repair; 2 usage/configuration error (including a
store locked by another live campaign); 3 campaign interrupted by
SIGTERM/SIGINT -- completed work is checkpointed and ``campaign
--resume`` continues it.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .config import SimulationConfig

# Handlers import what they run, so `serve`, `stats`, `cache` and
# every `--help` never load the simulator.
if TYPE_CHECKING:
    from .characterization.experiment import CharacterizationScope

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 3
"""A campaign stopped by SIGTERM/SIGINT: resumable, not failed."""

EXECUTORS = ("serial", "fused", "fused-parallel")
"""``make_executor`` names the CLI accepts (kept here, not imported from
the engine, so parsing loads no simulator module)."""

_REMOVED_EXECUTORS = {"batched": "fused", "parallel": "fused-parallel"}
"""Executor names that no longer exist -> their bit-identical
replacement."""


@contextlib.contextmanager
def _graceful_signals() -> Iterator[None]:
    """Translate SIGTERM into KeyboardInterrupt for the block.

    The campaign treats KeyboardInterrupt as a graceful stop (drain the
    checkpoint, close the pool, report a resumable partial result), so
    a supervisor's SIGTERM gets the same choreography as Ctrl-C instead
    of an abrupt unwind.  No-op where signal handlers cannot be
    installed (non-main thread, platforms without SIGTERM).
    """

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = None
    installed = False
    try:
        previous = signal.signal(signal.SIGTERM, _interrupt)
        installed = True
    except (ValueError, OSError, AttributeError):
        pass
    try:
        yield
    finally:
        if installed:
            signal.signal(signal.SIGTERM, previous)


def _executor_name(text: str) -> str:
    """``--executor`` parser: name the replacement of a removed executor."""
    replacement = _REMOVED_EXECUTORS.get(text)
    if replacement is not None:
        raise argparse.ArgumentTypeError(
            f"executor {text!r} was removed; use {replacement!r}, which "
            "produces bit-identical results"
        )
    return text


def _jobs_value(text: str) -> Optional[int]:
    """``--jobs`` parser: an explicit count, or ``auto``.

    ``auto`` resolves to the *usable* CPU count (cgroup/affinity
    aware via ``os.process_cpu_count`` where available), so container
    CI with a 2-CPU quota on a 64-core host gets 2 workers, not 64.
    """
    if text.strip().lower() == "auto":
        from .engine import available_cpu_count

        return available_cpu_count()
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        )


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--columns", type=int, default=512,
                        help="simulated bitlines per row (default 512)")
    parser.add_argument("--groups", type=int, default=3,
                        help="row groups per size per site (default 3)")
    parser.add_argument("--trials", type=int, default=6,
                        help="trials per group (default 6)")
    parser.add_argument("--seed", type=int, default=2024,
                        help="simulation seed (default 2024)")
    parser.add_argument("--executor", type=_executor_name,
                        choices=EXECUTORS, default="serial",
                        help="trial-engine execution strategy (default serial)")
    parser.add_argument("--jobs", type=_jobs_value, default=None,
                        help="worker processes for --executor fused-parallel "
                             "(an integer, or 'auto' for the usable "
                             "cgroup-aware CPU count)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="serve bit-identical trial outcomes from the "
                             "on-disk trial cache and store fresh ones")
    parser.add_argument("--cache-dir", default=".simra-cache",
                        help="trial-cache directory (default .simra-cache)")
    parser.add_argument("--stats", action="store_true",
                        help="print trial-engine per-layer counters afterwards")


def _cache_from(args: argparse.Namespace, require_origin: Optional[str] = None):
    from .engine import TrialCache

    if not getattr(args, "cache", False):
        return None
    return TrialCache(
        getattr(args, "cache_dir", ".simra-cache"),
        require_origin=require_origin,
    )


def _executor_from(args: argparse.Namespace):
    from .engine import make_executor

    return make_executor(
        getattr(args, "executor", "serial"),
        jobs=getattr(args, "jobs", None),
        cache=_cache_from(args),
    )


def _print_stats(args: argparse.Namespace, executor) -> None:
    if getattr(args, "stats", False):
        print()
        print(executor.metrics.render())


def _scope_from(args: argparse.Namespace) -> CharacterizationScope:
    from .characterization.experiment import CharacterizationScope
    from .dram.vendor import TESTED_MODULES

    config = SimulationConfig(seed=args.seed, columns_per_row=args.columns)
    return CharacterizationScope.build(
        config=config,
        specs=TESTED_MODULES,
        modules_per_spec=1,
        groups_per_size=args.groups,
        trials=args.trials,
    )


def _cmd_info(args: argparse.Namespace) -> int:
    from .dram.vendor import catalog_summary

    rows = catalog_summary()
    print(f"{'Mfr':<4} {'#Mod':>5} {'#Chips':>7} {'Die':>4} {'Density':>8} "
          f"{'Org':>5} {'Subarray':>9}")
    for row in rows:
        print(f"{row['manufacturer']:<4} {row['modules']:>5} "
              f"{row['chips']:>7} {row['die_rev']:>4} {row['density']:>8} "
              f"{row['organization']:>5} {row['subarray_rows']:>9}")
    total = sum(r["modules"] for r in rows), sum(r["chips"] for r in rows)
    print(f"total: {total[0]} modules / {total[1]} chips (paper Table 1)")
    return 0


def _cmd_activation(args: argparse.Namespace) -> int:
    from .characterization.activation import activation_success_distribution
    from .characterization.experiment import OperatingPoint
    from .characterization.report import format_distribution_table

    scope = _scope_from(args)
    executor = _executor_from(args)
    point = OperatingPoint(t1_ns=args.t1, t2_ns=args.t2)
    with executor:
        rows = {
            f"{n}-row": activation_success_distribution(
                scope, n, point, executor
            )
            for n in args.rows
        }
    print(format_distribution_table(
        f"Many-row activation success (%) at t1={args.t1} t2={args.t2}", rows
    ))
    _print_stats(args, executor)
    return 0


def _cmd_majority(args: argparse.Namespace) -> int:
    from .characterization.majority import MAJX_POINT, majx_success_distribution
    from .characterization.report import format_distribution_table

    scope = _scope_from(args)
    executor = _executor_from(args)
    rows = {}
    with executor:
        for x in args.x:
            for n in args.rows:
                if n < x:
                    continue
                rows[f"MAJ{x}@{n}-row"] = majx_success_distribution(
                    scope, x, n, MAJX_POINT, executor
                )
    print(format_distribution_table("MAJX success (%), best timings", rows))
    _print_stats(args, executor)
    return 0


def _cmd_rowcopy(args: argparse.Namespace) -> int:
    from .characterization.report import format_distribution_table
    from .characterization.rowcopy import COPY_POINT, multi_row_copy_distribution

    scope = _scope_from(args)
    executor = _executor_from(args)
    with executor:
        rows = {
            f"->{m} rows": multi_row_copy_distribution(
                scope, m, COPY_POINT, executor
            )
            for m in args.destinations
        }
    print(format_distribution_table("Multi-RowCopy success (%)", rows))
    _print_stats(args, executor)
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from .characterization.report import format_scalar_table
    from .dram.power import PowerModel

    model = PowerModel()
    print(format_scalar_table(
        "Average operation power (Fig 5)", model.figure5_series(), unit="mW"
    ))
    print(f"\n32-row activation headroom below REF: "
          f"{model.headroom_vs_ref(32):.2%} (paper: 21.19%)")
    return 0


def _cmd_spice(args: argparse.Namespace) -> int:
    from .characterization.report import format_series_table
    from .spice.majority_sim import (
        PROCESS_VARIATIONS,
        figure15a_deviation,
        figure15b_success,
    )

    deviations = figure15a_deviation(n_sets=args.sets)
    table = {
        f"N={n}": {v: deviations[(n, v)].mean for v in PROCESS_VARIATIONS}
        for n in (1, 4, 8, 16, 32)
    }
    print(format_series_table(
        "Fig 15a: mean bitline deviation (mV) vs process variation",
        table, column_order=PROCESS_VARIATIONS, as_percent=False,
    ))
    success = figure15b_success(n_sets=args.sets, iterations=4)
    table = {
        f"N={n}": {v: success[(n, v)] for v in PROCESS_VARIATIONS}
        for n in (4, 8, 16, 32)
    }
    print()
    print(format_series_table(
        "Fig 15b: MAJ3 success vs process variation (%)",
        table, column_order=PROCESS_VARIATIONS,
    ))
    return 0


def _cmd_coldboot(args: argparse.Namespace) -> int:
    from .casestudies.coldboot import figure17_speedups
    from .characterization.report import format_scalar_table

    print(format_scalar_table(
        "Destruction speedup over RowClone-based (Fig 17)",
        figure17_speedups(), unit="x",
    ))
    return 0


def _cmd_speedups(args: argparse.Namespace) -> int:
    from .casestudies.perfmodel import figure16_speedups
    from .characterization.report import format_series_table

    for mfr, per_bench in figure16_speedups().items():
        table = {
            name: {f"MAJ{x}": value for x, value in by_x.items()}
            for name, by_x in per_bench.items()
        }
        columns = ["MAJ5", "MAJ7"] + (["MAJ9"] if mfr == "H" else [])
        print(format_series_table(
            f"Fig 16 (Mfr. {mfr}): speedup over the MAJ3 baseline (x)",
            table, column_order=columns, as_percent=False,
        ))
        print()
    return 0


def _cmd_trng(args: argparse.Namespace) -> int:
    from .bender.testbench import TestBench
    from .core.trng import (
        TrngGenerator,
        longest_run,
        monobit_fraction,
        serial_correlation,
    )
    from .dram.vendor import TESTED_MODULES

    config = SimulationConfig(seed=args.seed, columns_per_row=args.columns)
    bench = TestBench.for_spec(TESTED_MODULES[0], config=config)
    generator = TrngGenerator(bench, group_size=args.group_size)
    bits = generator.generate(args.bits)
    stats = generator.last_stats
    print(f"generated {args.bits} bits with {stats.apa_operations} APAs "
          f"({args.group_size}-row activation)")
    print(f"  monobit fraction : {monobit_fraction(bits):.4f}")
    print(f"  longest run      : {longest_run(bits)}")
    print(f"  serial correlation: {serial_correlation(bits):+.4f}")
    if args.hex:
        import numpy as np

        print(np.packbits(bits).tobytes().hex())
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .engine.fleet import run_worker
    from .errors import ExperimentError

    try:
        run_worker(args.connect)
    except (ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .characterization.campaign import (
        Campaign,
        RetryPolicy,
        check_experiments,
        refuse_combinations,
    )
    from .characterization.store import ResultStore
    from .chaos import ChaosConfig
    from .errors import ConfigurationError, ExperimentError
    from .health import BreakerPolicy, HealthTracker

    try:
        # A refused campaign leaves no results directory behind and
        # starts no worker.
        check_experiments(args.experiments)
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.fleet and args.fleet_chips:
        from .engine.fleet import fleet_scope

        scope = fleet_scope(
            args.fleet_chips,
            config=SimulationConfig(
                seed=args.seed, columns_per_row=args.columns
            ),
            groups_per_size=args.groups,
            trials=args.trials,
        )
    else:
        scope = _scope_from(args)
    chaos = None
    if args.chaos:
        chaos = ChaosConfig.light(
            seed=args.chaos_seed,
            rate=args.chaos_rate,
            max_faults_per_kind=args.chaos_max_faults,
        )
    health = None
    if args.supervise:
        health = HealthTracker(
            BreakerPolicy(failure_threshold=args.breaker_threshold)
        )
    adaptive = None
    if args.adaptive:
        from .engine import AdaptiveConfig

        try:
            adaptive = AdaptiveConfig(
                ci_target=args.ci_target,
                round_trials=args.round_trials,
                max_trials=args.max_trials,
                seed=args.seed,
            )
        except ExperimentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        # Refused pairs fail before any worker starts.
        refuse_combinations(chaos=chaos, health=health, adaptive=adaptive)
        store = ResultStore(Path(args.results_dir))
        with contextlib.ExitStack() as stack:
            if args.fleet:
                # The fused-parallel executor over dial-in workers;
                # --executor and --jobs do not apply.
                from .engine.fleet import LocalFleet

                executor = stack.enter_context(LocalFleet(workers=args.fleet))
                executor.cache = _cache_from(args)
            else:
                executor = stack.enter_context(_executor_from(args))
            campaign = Campaign(
                scope,
                store=store,
                retry=RetryPolicy(
                    max_attempts=args.retries, base_delay_s=args.backoff_s
                ),
                time_budget_s=args.time_budget_s,
                chaos=chaos,
                executor=executor,
                health=health,
                pipeline=args.pipeline,
                adaptive=adaptive,
            )
            stack.enter_context(_graceful_signals())
            result = campaign.run(
                args.experiments,
                resume=args.resume,
                retry_failed=args.retry_failed,
            )
    except (ConfigurationError, ExperimentError) as exc:
        # Includes StoreLockedError: another live campaign owns the
        # store; a second writer would interleave manifest updates.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(campaign.render(result))
    workers = f" across {args.fleet} fleet worker(s)" if args.fleet else ""
    print(f"\nCampaign over {len(scope.benches)} modules{workers} "
          f"-> {result.stored_at}/")
    for line in result.summary_lines():
        print(line)
    if chaos is not None:
        print(f"chaos faults injected: {result.chaos_faults_injected}")
    if result.health is not None:
        quarantined = result.health.get("quarantined") or []
        print(
            f"fleet health: {len(quarantined)} module(s) quarantined, "
            f"coverage {result.health.get('coverage', 1.0):.0%}, "
            f"{result.health.get('breaker_trips', 0)} breaker trip(s)"
        )
        for serial in quarantined:
            print(f"  quarantined: {serial}")
    _print_stats(args, executor)
    if result.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_OK if result.succeeded else EXIT_FAILURES


def _cmd_audit(args: argparse.Namespace) -> int:
    from .characterization.store import ResultStore
    from .errors import ExperimentError
    from .health import audit_store

    store = ResultStore(Path(args.results_dir))
    # Audits only ever consume cache entries the serial reference
    # itself produced; anything else would certify an executor
    # against its own stored output.
    cache = _cache_from(args, require_origin="serial")
    try:
        report = audit_store(
            store, sample=args.sample, seed=args.seed, cache=cache
        )
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"audit of {store.directory}/")
    for line in report.summary_lines():
        print(line)
    store.save(
        "audit-report",
        report.as_dict(),
        notes="result-integrity audit report",
    )
    return 0 if report.passed else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from .characterization.repair import repair_store
    from .characterization.store import ResultStore
    from .errors import ExperimentError

    store = ResultStore(Path(args.results_dir))
    try:
        report = repair_store(
            store, delete=args.delete, dry_run=args.dry_run
        )
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"repair of {store.directory}/")
    for line in report.summary_lines():
        print(line)
    if args.dry_run and report.damage_found:
        return EXIT_FAILURES
    return EXIT_OK


def _cmd_besttiming(args: argparse.Namespace) -> int:
    from .characterization.timing_search import (
        best_activation_timing,
        best_copy_timing,
        best_majx_timing,
    )

    scope = _scope_from(args)
    executor = _executor_from(args)
    searches = {
        "activation": lambda: best_activation_timing(scope, executor=executor),
        "majx": lambda: best_majx_timing(scope, x=args.x, executor=executor),
        "copy": lambda: best_copy_timing(scope, executor=executor),
    }
    with executor:
        result = searches[args.operation]()
    print(f"best {args.operation} timing: t1={result.best_t1_ns}ns, "
          f"t2={result.best_t2_ns}ns (mean success {result.best_mean:.2%})")
    print("full grid (best to worst):")
    for (t1, t2), mean in result.ranked():
        print(f"  t1={t1:>5.1f}  t2={t2:>4.1f}  ->  {mean:7.2%}")
    _print_stats(args, executor)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .bender.selftest import run_self_test
    from .bender.testbench import TestBench
    from .dram.vendor import TESTED_MODULES

    config = SimulationConfig(seed=args.seed, columns_per_row=args.columns)
    failures = 0
    for spec in TESTED_MODULES:
        bench = TestBench.for_spec(spec, config=config)
        report = run_self_test(bench)
        status = "PASS" if report.passed else "FAIL"
        print(f"{spec.module_identifier:<24} {status} "
              f"({report.checks_run} checks)")
        for failure in report.failures:
            print(f"    failed: {failure}")
            failures += 1
    return 1 if failures else 0


def _cmd_decoder(args: argparse.Namespace) -> int:
    from .dram.row_decoder import activation_set, field_layout_for_subarray_rows

    layout = field_layout_for_subarray_rows(args.subarray_rows)
    rows = activation_set(args.rf, args.rs, layout, args.subarray_rows)
    print(f"ACT {args.rf} -> PRE -> ACT {args.rs} "
          f"({args.subarray_rows}-row subarray):")
    print(f"  {len(rows)} rows simultaneously activated: {sorted(rows)}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .characterization.reader import ResultReader
    from .engine import render_stats_dict
    from .errors import ExperimentError

    # Stats never writes: read through the lock-free reader, so it
    # works while a live campaign holds the store's writer lock.
    store = ResultReader(Path(args.results_dir))
    try:
        payload = store.load("engine-stats")
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: run `simra-dram campaign --executor ...` first",
              file=sys.stderr)
        return 2
    if store.has("audit-report"):
        audit = store.load("audit-report")
        payload = dict(payload)
        payload["audit_mismatches"] = audit.get("mismatches", 0)
    print(render_stats_dict(payload))
    if store.has("audit-report"):
        verdict = "PASS" if audit.get("passed") else "FAIL"
        print(
            f"last audit: {verdict} "
            f"({audit.get('artifacts_checked', 0)} artifacts checked, "
            f"{audit.get('figures_recomputed', 0)} figures recomputed, "
            f"{audit.get('mismatches', 0)} mismatches)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .characterization.reader import ResultReader
    from .errors import ConfigurationError
    from .health.breaker import BreakerPolicy
    from .service import HotFigureCache, ResultServer, ResultService
    from .service.resilience import ResiliencePolicy

    directory = Path(args.results_dir)
    if not directory.is_dir():
        print(f"error: no result store at {directory}/", file=sys.stderr)
        print("hint: run `simra-dram campaign` first", file=sys.stderr)
        return EXIT_USAGE
    try:
        policy = ResiliencePolicy(
            max_concurrent_requests=args.max_concurrent_requests,
            max_connections=args.max_connections,
            request_timeout_s=args.request_timeout,
            drain_timeout_s=args.drain_timeout,
            read_workers=args.read_workers,
            breaker=BreakerPolicy(
                failure_threshold=args.breaker_threshold,
                cooldown_probes=args.breaker_cooldown,
            ),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reader = ResultReader(directory)
    chaos_rates = {
        "read_delay_rate": args.chaos_read_delay_rate,
        "read_error_rate": args.chaos_read_error_rate,
        "read_digest_mismatch_rate": args.chaos_digest_mismatch_rate,
    }
    if any(rate > 0 for rate in chaos_rates.values()):
        from .chaos import ChaosConfig, ChaosEngine, ChaoticReader

        try:
            chaos = ChaosConfig(
                seed=args.chaos_seed,
                read_delay_s=args.chaos_read_delay_s,
                max_faults_per_kind=args.chaos_max_faults,
                **chaos_rates,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        reader = ChaoticReader(reader, ChaosEngine(chaos))
        print(
            f"chaos: reader-path fault injection armed (seed {chaos.seed})",
            flush=True,
        )
    service = ResultService(
        reader, cache=HotFigureCache(reader, capacity=args.cache_size)
    )
    server = ResultServer(
        service, host=args.host, port=args.port, policy=policy
    )
    outcome = {"interrupted": False, "clean": True}

    async def _run() -> None:
        await server.start()
        host, port = server.address
        # The smoke/benchmark harnesses parse this line for the bound
        # port, so keep its shape stable (and flush through pipes).
        print(
            f"serving {len(reader.names())} stored result(s) from "
            f"{directory}/ on http://{host}:{port}",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        drain_requested = loop.create_future()

        def _request_drain(signame: str) -> None:
            if not drain_requested.done():
                drain_requested.set_result(signame)

        installed = []
        for signame in ("SIGTERM", "SIGINT"):
            signum = getattr(signal, signame, None)
            if signum is None:
                continue
            try:
                loop.add_signal_handler(signum, _request_drain, signame)
            except (ValueError, OSError, RuntimeError, NotImplementedError):
                continue
            installed.append(signum)
        serve_task = asyncio.ensure_future(server.serve_forever())
        try:
            await asyncio.wait(
                {serve_task, drain_requested},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if drain_requested.done():
                outcome["interrupted"] = True
                print(
                    f"\n{drain_requested.result()}: draining (budget "
                    f"{server.policy.drain_timeout_s:g}s) ...",
                    flush=True,
                )
                outcome["clean"] = await server.drain()
                serve_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve_task
        finally:
            for signum in installed:
                with contextlib.suppress(
                    ValueError, OSError, RuntimeError, NotImplementedError
                ):
                    loop.remove_signal_handler(signum)
            await server.stop()

    try:
        with _graceful_signals():
            asyncio.run(_run())
    except KeyboardInterrupt:
        # add_signal_handler was unavailable (non-main thread, exotic
        # platform), so the _graceful_signals fallback turned SIGTERM
        # into this.  The loop is already unwound -- no drain
        # choreography -- but the stop is still a resumable interrupt.
        outcome["interrupted"] = True
    if outcome["interrupted"]:
        if not outcome["clean"]:
            print(
                "drain budget exceeded: cancelled in-flight request(s)",
                file=sys.stderr,
            )
            return EXIT_FAILURES
        print("server stopped: drain complete", flush=True)
        return EXIT_INTERRUPTED
    return EXIT_OK


def _cmd_cache(args: argparse.Namespace) -> int:
    from .engine import TrialCache

    cache = TrialCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached trial outcome(s) from "
              f"{args.cache_dir}/")
        return 0
    stats = cache.stats()
    print(f"trial cache at {args.cache_dir}/")
    print(f"  entries     : {stats['entries']}")
    print(f"  disk bytes  : {stats['disk_bytes']}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .engine.benchmark import (
        run_campaign_benchmark,
        run_engine_benchmark,
        write_benchmark_json,
    )

    report = run_engine_benchmark(
        columns=args.columns,
        groups_per_size=args.groups,
        trials=args.trials,
        seed=args.seed,
        executors=args.executors,
        jobs=args.jobs,
        scaling_jobs=tuple(args.scaling_jobs),
    )
    if args.campaign:
        report.campaign = run_campaign_benchmark(
            columns=args.columns,
            groups_per_size=args.groups,
            trials=args.campaign_trials,
            seed=args.seed,
            jobs=args.jobs,
        )
        report.speedup["campaign"] = report.campaign["speedup"]
    path = write_benchmark_json(report, Path(args.output))
    for line in report.summary_lines():
        print(line)
    print(f"wrote {path}")
    if report.campaign is not None and not report.campaign["identical"]:
        return 1
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from .characterization.store import ResultStore

    source = ResultStore(Path(args.results_dir))
    target = ResultStore(Path(args.out), columnar=args.columnar)
    failures = 0
    migrated = 0
    for name in source.names():
        status = source.verify(name)
        if status in ("corrupt", "mismatch"):
            print(f"skipping {name!r}: integrity status {status}",
                  file=sys.stderr)
            failures += 1
            continue
        meta = source.metadata(name)
        target.save(
            name,
            source.load(name),
            config=meta.get("config"),
            notes=meta.get("notes") or "",
            quality=meta.get("quality"),
        )
        to_version = target.metadata(name).get("format_version")
        print(f"migrated {name!r}: "
              f"v{meta.get('format_version')} -> v{to_version}")
        migrated += 1
    manifest = source.load_manifest()
    if manifest is not None:
        target.save_manifest(manifest)
        print("copied campaign manifest")
    print(f"{migrated} result(s) migrated to {target.directory}/, "
          f"{failures} skipped")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="simra-dram",
        description="SiMRA-DRAM reproduction (DSN 2024) command line",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("info", help="tested-chip catalog (Table 1)")
    sub.set_defaults(handler=_cmd_info)

    sub = subparsers.add_parser("activation", help="section 4 characterization")
    _add_scale_arguments(sub)
    sub.add_argument("--rows", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    sub.add_argument("--t1", type=float, default=3.0)
    sub.add_argument("--t2", type=float, default=3.0)
    sub.set_defaults(handler=_cmd_activation)

    sub = subparsers.add_parser("majority", help="section 5 characterization")
    _add_scale_arguments(sub)
    sub.add_argument("--x", type=int, nargs="+", default=[3, 5, 7, 9])
    sub.add_argument("--rows", type=int, nargs="+", default=[32])
    sub.set_defaults(handler=_cmd_majority)

    sub = subparsers.add_parser("rowcopy", help="section 6 characterization")
    _add_scale_arguments(sub)
    sub.add_argument(
        "--destinations", type=int, nargs="+", default=[1, 3, 7, 15, 31]
    )
    sub.set_defaults(handler=_cmd_rowcopy)

    sub = subparsers.add_parser("power", help="Fig 5 power model")
    sub.set_defaults(handler=_cmd_power)

    sub = subparsers.add_parser("spice", help="Fig 15 circuit Monte-Carlo")
    sub.add_argument("--sets", type=int, default=500)
    sub.set_defaults(handler=_cmd_spice)

    sub = subparsers.add_parser("coldboot", help="Fig 17 content destruction")
    sub.set_defaults(handler=_cmd_coldboot)

    sub = subparsers.add_parser("speedups", help="Fig 16 microbenchmarks")
    sub.set_defaults(handler=_cmd_speedups)

    sub = subparsers.add_parser("trng", help="random numbers from APA ties")
    sub.add_argument("--bits", type=int, default=4096)
    sub.add_argument("--group-size", type=int, default=32)
    sub.add_argument("--columns", type=int, default=1024)
    sub.add_argument("--seed", type=int, default=2024)
    sub.add_argument("--hex", action="store_true",
                     help="print the bits as hex")
    sub.set_defaults(handler=_cmd_trng)

    sub = subparsers.add_parser(
        "campaign",
        help="failure-isolated multi-figure sweep with checkpoint/resume",
    )
    _add_scale_arguments(sub)
    sub.add_argument(
        "--experiments", nargs="+", default=["fig3", "fig6", "fig10"],
        help="figure ids to run (default: fig3 fig6 fig10)",
    )
    sub.add_argument("--results-dir", default="campaign_results",
                     help="ResultStore directory (default campaign_results)")
    sub.add_argument("--resume", action="store_true",
                     help="skip figures the store manifest records as done")
    sub.add_argument("--retries", type=int, default=3,
                     help="max attempts per experiment on transient faults")
    sub.add_argument("--backoff-s", type=float, default=0.05,
                     help="base exponential-backoff delay in seconds")
    sub.add_argument("--time-budget-s", type=float, default=None,
                     help="per-experiment wall-clock retry budget")
    sub.add_argument("--chaos", action="store_true",
                     help="inject seeded transient rig faults (soak test)")
    sub.add_argument("--chaos-rate", type=float, default=0.05,
                     help="per-opportunity fault rate for every kind")
    sub.add_argument("--chaos-seed", type=int, default=7,
                     help="chaos schedule seed")
    sub.add_argument("--chaos-max-faults", type=int, default=4,
                     help="cap on injected faults per kind")
    sub.add_argument("--supervise", action="store_true",
                     help="probe benches and quarantine unhealthy modules "
                          "via per-module circuit breakers")
    sub.add_argument("--breaker-threshold", type=int, default=3,
                     help="consecutive probe failures that trip a module's "
                          "breaker (with --supervise)")
    sub.add_argument("--retry-failed", action="store_true",
                     help="on --resume, retry figures recorded as failed "
                          "for a non-transient cause")
    sub.add_argument("--pipeline", action=argparse.BooleanOptionalAction,
                     default=None,
                     help="force (--pipeline) or disable (--no-pipeline) "
                          "pipelined cross-experiment scheduling; the "
                          "default engages it automatically for "
                          "multi-figure runs on a pipelining executor")
    sub.add_argument("--fleet", type=int, default=None, metavar="N",
                     help="run the fused-parallel executor on N localhost "
                          "worker processes that dial in over the fleet "
                          "socket protocol (replaces --executor/--jobs; "
                          "combines with --chaos, --supervise and "
                          "--adaptive; artifacts stay byte-equal to a "
                          "single-host run)")
    sub.add_argument("--fleet-chips", type=int, default=None, metavar="N",
                     help="with --fleet: characterize N sampled "
                          "vendor-profile chips instead of the paper's "
                          "one-module-per-spec catalog scope")
    sub.add_argument("--adaptive", action="store_true",
                     help="run the corner matrix through the adaptive "
                          "planner: cells stop at the target CI "
                          "half-width and freed trials steer to the "
                          "high-variance cells")
    sub.add_argument("--ci-target", type=float, default=0.02, metavar="W",
                     help="with --adaptive: bootstrap-CI half-width at "
                          "which a cell stops sampling (default 0.02)")
    sub.add_argument("--round-trials", type=int, default=4, metavar="N",
                     help="with --adaptive: base trials per cell per "
                          "round, and the per-cell floor (default 4)")
    sub.add_argument("--max-trials", type=int, default=32, metavar="M",
                     help="with --adaptive: per-task trial ceiling per "
                          "cell -- the fixed-budget baseline the "
                          "savings are measured against (default 32)")
    sub.set_defaults(handler=_cmd_campaign)

    sub = subparsers.add_parser(
        "worker",
        help="run plan slices for a fused-parallel dispatcher over the "
             "length-prefixed columnar socket protocol",
    )
    sub.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="dispatcher address to dial into")
    sub.set_defaults(handler=_cmd_worker)

    sub = subparsers.add_parser(
        "audit",
        help="verify stored-result checksums and recompute a sample "
             "against the serial reference executor",
    )
    sub.add_argument("--results-dir", default="campaign_results",
                     help="ResultStore directory (default campaign_results)")
    sub.add_argument("--sample", type=int, default=2,
                     help="completed figures to recompute (default 2)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the deterministic sample choice")
    sub.add_argument("--cache", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="reuse serial-origin trial-cache entries for the "
                          "recompute sample")
    sub.add_argument("--cache-dir", default=".simra-cache",
                     help="trial-cache directory (default .simra-cache)")
    sub.set_defaults(handler=_cmd_audit)

    sub = subparsers.add_parser(
        "repair",
        help="scan a result store for crash/rot damage, quarantine or "
             "delete bad artifacts, and patch the manifest so "
             "`campaign --resume` re-runs them",
    )
    sub.add_argument("--results-dir", default="campaign_results",
                     help="ResultStore directory (default campaign_results)")
    sub.add_argument("--delete", action="store_true",
                     help="delete damaged files instead of moving them "
                          "into the store's quarantine/ subdirectory")
    sub.add_argument("--dry-run", action="store_true",
                     help="report what would be repaired without touching "
                          "the store (exit 1 when damage is found)")
    sub.set_defaults(handler=_cmd_repair)

    sub = subparsers.add_parser(
        "besttiming", help="search the issueable (t1, t2) grid"
    )
    _add_scale_arguments(sub)
    sub.add_argument(
        "--operation",
        choices=("activation", "majx", "copy"),
        default="majx",
    )
    sub.add_argument("--x", type=int, default=3, help="MAJ width for majx")
    sub.set_defaults(handler=_cmd_besttiming)

    sub = subparsers.add_parser("selftest", help="rig diagnostics per spec")
    sub.add_argument("--columns", type=int, default=512)
    sub.add_argument("--seed", type=int, default=2024)
    sub.set_defaults(handler=_cmd_selftest)

    sub = subparsers.add_parser(
        "stats", help="render a stored campaign's trial-engine metrics"
    )
    sub.add_argument("--results-dir", default="campaign_results",
                     help="ResultStore directory (default campaign_results)")
    sub.set_defaults(handler=_cmd_stats)

    sub = subparsers.add_parser(
        "serve",
        help="serve stored results over an asyncio HTTP query API "
             "(lock-free reads; safe beside a live campaign)",
    )
    sub.add_argument("--results-dir", default="campaign_results",
                     help="ResultStore directory (default campaign_results)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8774,
                     help="bind port; 0 picks a free one (default 8774)")
    sub.add_argument("--cache-size", type=int, default=32,
                     help="hot-figure cache capacity (default 32)")
    sub.add_argument("--max-concurrent-requests", type=int, default=64,
                     help="admission budget: store-backed requests in "
                          "flight before shedding with 503 (default 64)")
    sub.add_argument("--max-connections", type=int, default=4096,
                     help="open-socket budget before new connections are "
                          "shed with 503 (default 4096)")
    sub.add_argument("--request-timeout", type=float, default=5.0,
                     help="per-request store-read deadline in seconds; "
                          "past it the client gets 504 (default 5.0)")
    sub.add_argument("--drain-timeout", type=float, default=10.0,
                     help="graceful-drain budget in seconds on "
                          "SIGTERM/SIGINT (default 10.0)")
    sub.add_argument("--read-workers", type=int, default=8,
                     help="store-read thread-pool size (default 8)")
    sub.add_argument("--breaker-threshold", type=int, default=5,
                     help="consecutive store-read faults that open the "
                          "circuit breaker (default 5)")
    sub.add_argument("--breaker-cooldown", type=int, default=10,
                     help="breaker consultations skipped while open "
                          "before a half-open probe (default 10)")
    sub.add_argument("--chaos-read-delay-rate", type=float, default=0.0,
                     help="chaos: rate of store reads that stall "
                          "(default 0 = off)")
    sub.add_argument("--chaos-read-delay-s", type=float, default=0.25,
                     help="chaos: how long an injected slow read stalls "
                          "(default 0.25s)")
    sub.add_argument("--chaos-read-error-rate", type=float, default=0.0,
                     help="chaos: rate of store reads that raise a "
                          "transient I/O error (default 0 = off)")
    sub.add_argument("--chaos-digest-mismatch-rate", type=float,
                     default=0.0,
                     help="chaos: rate of store reads that fail digest "
                          "verification (default 0 = off)")
    sub.add_argument("--chaos-max-faults", type=int, default=None,
                     help="chaos: cap on injected faults per kind "
                          "(default unlimited)")
    sub.add_argument("--chaos-seed", type=int, default=7,
                     help="chaos: fault-schedule seed (default 7)")
    sub.set_defaults(handler=_cmd_serve)

    sub = subparsers.add_parser(
        "bench", help="time a figure sweep on every executor"
    )
    sub.add_argument("--columns", type=int, default=256)
    sub.add_argument("--groups", type=int, default=2)
    sub.add_argument("--trials", type=int, default=32)
    sub.add_argument("--seed", type=int, default=2024)
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes for the fused-parallel executor")
    sub.add_argument(
        "--executors", nargs="+", type=_executor_name,
        default=list(EXECUTORS), choices=EXECUTORS,
    )
    sub.add_argument("--scaling-jobs", type=int, nargs="*", default=[1, 2, 4],
                     help="worker counts for the fused-parallel "
                          "worker-scaling curve (empty to skip)")
    sub.add_argument("--campaign", action="store_true",
                     help="also time a multi-figure campaign sequentially "
                          "vs pipelined through the persistent worker pool")
    sub.add_argument("--campaign-trials", type=int, default=16,
                     help="trials per test for the campaign benchmark")
    sub.add_argument("--output", default="BENCH_engine.json",
                     help="where to write the benchmark JSON")
    sub.set_defaults(handler=_cmd_bench)

    sub = subparsers.add_parser(
        "migrate",
        help="re-save a result store in the columnar v3 artifact format",
    )
    sub.add_argument("--results-dir", default="campaign_results",
                     help="source ResultStore directory")
    sub.add_argument("--out", required=True,
                     help="target ResultStore directory")
    sub.add_argument("--columnar", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="write columnar v3 documents (--no-columnar "
                          "re-saves as plain v2 instead)")
    sub.set_defaults(handler=_cmd_migrate)

    sub = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk trial cache"
    )
    sub.add_argument("action", choices=("stats", "clear"))
    sub.add_argument("--cache-dir", default=".simra-cache",
                     help="trial-cache directory (default .simra-cache)")
    sub.set_defaults(handler=_cmd_cache)

    sub = subparsers.add_parser("decoder", help="activation-set lookup")
    sub.add_argument("--rf", type=int, required=True)
    sub.add_argument("--rs", type=int, required=True)
    sub.add_argument("--subarray-rows", type=int, default=512)
    sub.set_defaults(handler=_cmd_decoder)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
