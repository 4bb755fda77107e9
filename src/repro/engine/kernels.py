"""Trial kernels: the operation a plan measures.

A kernel provides two equivalent implementations of one measurement
trial:

- :meth:`TrialKernel.run_trial` drives the full bender/testbench path
  (program scheduling, bank state machine, host readback) for one
  trial -- the reference semantics;
- :meth:`TrialKernel.run_slice` computes many tasks' trials at once
  as packed bit-planes straight from the
  :class:`~repro.dram.behavior.ReliabilityModel`, gathering every keyed
  draw of the slice into block RNG calls (the fused executors' path).
  It resolves each contest's stable mask first and draws a
  ``context_noise`` row only for contests with an unstable column
  (:func:`_noise_where`): most contests are stable in every column,
  and their coin flips would be read nowhere.

Both paths skip the same rows: the bank's noise sites draw a row only
when its stable mask has an unstable column, too.  The reference
still makes each draw itself, one ``default_rng(seed)`` per row, and
never through :mod:`repro.rngblock`, so the audit's recompute stays
independent of the block RNG it cross-checks.

The fused kernels read their test data -- activation's ``act-wr``
reference rows, MAJX's ``operand`` rows, Multi-RowCopy's ``mrc-src``
sources -- through the bench host's pattern memo
(:meth:`~repro.bender.host.TestHost.pattern_rows`).  A pattern row
depends on the pattern, the column count and its identity tokens,
never on the operating point, so a sweep draws each distinct row once
per bench.  The memo lives on the bench's host, not in a module: it
goes away with its scope, and a pool worker's cached bench keeps it
across shards.  The reference calls ``DataPattern.row_bits`` on every
trial and never reads the memo, so the audit's recompute shares no
state with the path it checks.

Bit-identity between the paths is guaranteed by construction: every
stochastic draw is identity-keyed (thresholds, group offsets, sense-amp
bias, pattern bits) or keyed by the shared measurement context
(:func:`measurement_context` -> ``ReliabilityModel.context_noise``),
so both paths consult the same random bits.  ``run_slice`` is gated on
the APA semantic the executor's probe reads off the bank's decision
table: it models every semantic in ``fused_semantics`` and is told
which one the probe resolved, so no kernel re-derives the timing
regime.  Any other regime falls back to the per-trial reference path,
which is always correct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .. import rng
from ..bender.program import apa_program
from ..bender.testbench import TestBench
from ..core.majority import execute_majx, plan_majx
from ..core.multirowcopy import execute_multi_row_copy
from ..core.operations import simultaneous_activation_test
from ..core.patterns import DataPattern
from ..dram.bank import pattern_regularity_block
from ..dram.behavior import OperationClass, ReliabilityModel
from ..dram.cell import LEVEL_HALF, bits_to_levels
from . import bitplane
from .plan import TrialTask

if TYPE_CHECKING:  # characterization imports the engine; avoid the cycle
    from ..characterization.experiment import OperatingPoint


def point_token(point: "OperatingPoint") -> str:
    """Stable identity of an operating point for noise keying."""
    return (
        f"{point.t1_ns}:{point.t2_ns}:{point.temperature_c}:"
        f"{point.vpp}:{point.pattern.kind}"
    )


def measurement_context(
    kernel: "TrialKernel", point: "OperatingPoint", task: TrialTask, trial: int
) -> Tuple[rng.Token, ...]:
    """The noise-context tokens for one trial of one task.

    Includes the kernel signature and operating point so distinct
    experiments that happen to sample the same row group draw
    independent noise, and the group identity + trial index so the
    draw does not depend on execution order.
    """
    return (kernel.signature, point_token(point), task.group_token, trial)


def _resolve_majority(
    bench: TestBench,
    task: TrialTask,
    point: "OperatingPoint",
    levels: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Charge-share the task's opened rows, as a majority APA does.

    ``levels`` is a ``(trials, rows, columns)`` stack of the charge
    levels the group's rows hold when the APA opens them.  Returns the
    sense amplifiers' regenerated majority and the mask of columns
    stable enough to latch it, both ``(trials, columns)`` -- the math of
    ``Bank._apply_majority``, per trial.
    """
    reliability = bench.module.reliability
    device_bank = bench.module.bank(task.bank)
    imbalance = (levels.astype(np.int64) - 1).sum(axis=1)
    ideal = device_bank.subarray(task.subarray).sense_amps.resolve(
        np.sign(imbalance)
    )
    # pattern_regularity is a per-trial scalar; trials sharing a value
    # share one 2-D majority_column_z call.
    scales = pattern_regularity_block(levels)
    z_columns = np.empty(imbalance.shape, dtype=np.float64)
    for scale in np.unique(scales):
        where = np.nonzero(scales == scale)[0]
        z_columns[where] = reliability.majority_column_z(
            imbalance[where],
            n_rows=task.group.size,
            t1_ns=point.t1_ns,
            t2_ns=point.t2_ns,
            pattern_scale=float(scale),
            temp_c=device_bank.temperature_c,
            vpp=device_bank.vpp,
        )
    stable = reliability.stable_mask_vector(
        z_columns, task.bank, task.subarray, task.group.rows,
        OperationClass.MAJORITY,
    )
    return ideal, stable


def _noise_where(
    reliability: ReliabilityModel,
    entries: Sequence[Tuple[int, int, str, Tuple[rng.Token, ...]]],
    needed: Sequence[bool],
    columns: int,
) -> np.ndarray:
    """``context_noise_block`` rows for the flagged entries only.

    Row ``i`` of the ``(len(entries), columns)`` result is entry
    ``i``'s noise where ``needed[i]``, else zero.  Callers flag a
    contest whose stable mask has an unstable column; every use of a
    noise row is ``where(stable, ..., noise)`` or ``stable | (noise ==
    ...)``, so an unflagged row is read nowhere.
    """
    noise = np.zeros((len(entries), columns), dtype=np.uint8)
    flagged = np.flatnonzero(needed)
    if flagged.size:
        noise[flagged] = reliability.context_noise_block(
            [entries[i] for i in flagged], columns
        )
    return noise


class TrialKernel:
    """Base protocol for plan kernels (see module docstring)."""

    op_name: str = "trial"
    signature: str = "trial"
    fused_semantics: Optional[FrozenSet[str]] = None
    """APA semantics :meth:`run_slice` models (the fused gate); a kernel
    modelling several branches on the ``semantic`` argument of
    :meth:`run_slice`.  ``None`` skips the gate (the kernel is
    regime-independent), and its probe then replays one real APA for
    :meth:`finalize` to audit."""

    def setup(self, bench: TestBench, task: TrialTask, point: OperatingPoint) -> None:
        """Once-per-task preparation (default: nothing)."""

    def run_trial(
        self, bench: TestBench, task: TrialTask, point: OperatingPoint, trial: int
    ) -> np.ndarray:
        """One trial through the full bench; returns a (cells,) bool vector."""
        raise NotImplementedError

    def run_slice(
        self,
        bench: TestBench,
        tasks: Sequence[TrialTask],
        point: OperatingPoint,
        semantic: str,
    ) -> List[np.ndarray]:
        """All trials of many tasks sharing one bench, packed.

        ``semantic`` is what the executor's probe resolved for every
        task of the slice (one of :attr:`fused_semantics`, or anything
        for a regime-independent kernel).  Returns one
        ``(trials, words)`` uint64 plane stack per task (see
        :mod:`repro.engine.bitplane`), bit-identical to the per-trial
        reference.
        """
        raise NotImplementedError

    def finalize(
        self, bench: TestBench, task: TrialTask, point: OperatingPoint
    ) -> Optional[np.ndarray]:
        """Optional end-of-task audit ANDed into the accumulated mask."""
        return None


class ActivationKernel(TrialKernel):
    """Section 3.2 recipe: init -> APA -> WR -> readback."""

    op_name = "activation"
    signature = "activation"
    fused_semantics = frozenset({"majority"})

    def run_trial(self, bench, task, point, trial):
        result = simultaneous_activation_test(
            bench,
            task.bank,
            task.group,
            t1_ns=point.t1_ns,
            t2_ns=point.t2_ns,
            pattern=point.pattern,
            trial=trial,
        )
        return result.flattened()

    def run_slice(self, bench, tasks, point, semantic):
        module = bench.module
        reliability = module.reliability
        columns = module.config.columns_per_row
        # Gather every keyed draw of the slice: one pattern block for
        # the (task x trial) reference rows, one noise block for the
        # (task x trial x row) WR contests of tasks with an unstable
        # column (the stable mask is trial-independent).
        reference_ids = []
        noise_entries = []
        needed = []
        stables = []
        for task in tasks:
            device_bank = module.bank(task.bank)
            group = task.group
            z = reliability.activation_z(
                group.size,
                point.t1_ns,
                point.t2_ns,
                device_bank.temperature_c,
                device_bank.vpp,
            )
            stable = reliability.stable_mask(
                z, task.bank, task.subarray, group.rows,
                OperationClass.ACTIVATION, columns,
            )
            stables.append(stable)
            rows_sorted = sorted(group.rows)
            for trial in range(
                task.trial_offset, task.trial_offset + task.trials
            ):
                reference_ids.append(("act-wr", group.row_first, trial))
                context = measurement_context(self, point, task, trial)
                for local_row in rows_sorted:
                    noise_entries.append(
                        (task.bank, task.subarray, f"wr-{local_row}", context)
                    )
            needed.extend([not stable.all()] * (task.trials * group.size))
        references = bench.host.pattern_rows(point.pattern, columns, reference_ids)
        noise = _noise_where(reliability, noise_entries, needed, columns)
        planes: List[np.ndarray] = []
        reference_offset = 0
        noise_offset = 0
        for task, stable in zip(tasks, stables):
            group = task.group
            wr_bits = point.pattern.inverse_bits(
                references[reference_offset:reference_offset + task.trials]
            )
            count = task.trials * group.size
            task_noise = noise[noise_offset:noise_offset + count].reshape(
                task.trials, group.size, columns
            )
            matrix = np.logical_or(
                task_noise == wr_bits[:, None, :], stable[None, None, :]
            )
            planes.append(
                bitplane.pack_matrix(matrix.reshape(task.trials, task.cells))
            )
            reference_offset += task.trials
            noise_offset += count
        return planes


class MajXKernel(TrialKernel):
    """Section 3.3 recipe: operands + neutral rows -> APA -> RD."""

    op_name = "majority"
    fused_semantics = frozenset({"majority"})

    def __init__(self, x: int, replicas: Optional[int] = None):
        self.x = x
        self.replicas = replicas
        self.signature = f"majx:{x}:r{0 if replicas is None else replicas}"

    def run_trial(self, bench, task, point, trial):
        columns = bench.module.config.columns_per_row
        plan = plan_majx(self.x, task.group, replicas=self.replicas)
        operands = [
            point.pattern.operand_bits(columns, op, task.serial, task.bank, trial)
            for op in range(self.x)
        ]
        result = execute_majx(
            bench, task.bank, plan, operands,
            t1_ns=point.t1_ns, t2_ns=point.t2_ns,
        )
        return result.correct

    def run_slice(self, bench, tasks, point, semantic):
        module = bench.module
        reliability = module.reliability
        columns = module.config.columns_per_row
        plans = [
            plan_majx(self.x, task.group, replicas=self.replicas)
            for task in tasks
        ]
        operand_ids = []
        frac_entries = []
        frac_needed = []
        maj_entries = []
        neutral_stables = []
        for task, plan in zip(tasks, plans):
            device_bank = module.bank(task.bank)
            first_row = sorted(task.group.rows)[0]
            # Neutral-row stability is identity-keyed, so a Frac row
            # needs its coin flips only if some column can miss VDD/2.
            frac_z = reliability.frac_z(
                device_bank.temperature_c, device_bank.vpp
            )
            neutral_stable = {
                local_row: reliability.stable_mask(
                    frac_z, task.bank, task.subarray, frozenset({local_row}),
                    OperationClass.FRAC, columns,
                )
                for local_row in plan.neutral_rows
            }
            neutral_stables.append(neutral_stable)
            unstable = [
                not neutral_stable[local_row].all()
                for local_row in plan.neutral_rows
            ]
            for trial in range(
                task.trial_offset, task.trial_offset + task.trials
            ):
                context = measurement_context(self, point, task, trial)
                for op in range(self.x):
                    operand_ids.append(
                        ("operand", op, task.serial, task.bank, trial)
                    )
                for local_row in plan.neutral_rows:
                    frac_entries.append(
                        (task.bank, task.subarray, f"frac-{local_row}", context)
                    )
                frac_needed.extend(unstable)
                maj_entries.append(
                    (task.bank, task.subarray, f"maj-{first_row}", context)
                )
        operands = bench.host.pattern_rows(point.pattern, columns, operand_ids)
        frac_noise = _noise_where(
            reliability, frac_entries, frac_needed, columns
        )
        # The majority contest's stability depends on the Frac-resolved
        # levels, so resolve every task before drawing its noise.
        resolved = []
        maj_needed = []
        operand_offset = frac_offset = 0
        for task, plan, neutral_stable in zip(tasks, plans, neutral_stables):
            group = task.group
            rows_sorted = sorted(group.rows)
            trials = task.trials
            ops = operands[
                operand_offset:operand_offset + trials * self.x
            ].reshape(trials, self.x, columns)
            n_neutral = len(plan.neutral_rows)
            task_frac = frac_noise[
                frac_offset:frac_offset + trials * n_neutral
            ].reshape(trials, n_neutral, columns)
            neutral_index = {
                local_row: j for j, local_row in enumerate(plan.neutral_rows)
            }
            levels = np.empty((trials, group.size, columns), dtype=np.uint8)
            for position, local_row in enumerate(rows_sorted):
                operand_index = plan.operand_of_row.get(local_row)
                if operand_index is not None:
                    levels[:, position, :] = bits_to_levels(
                        ops[:, operand_index, :]
                    )
                else:
                    levels[:, position, :] = np.where(
                        neutral_stable[local_row],
                        LEVEL_HALF,
                        bits_to_levels(
                            task_frac[:, neutral_index[local_row], :]
                        ),
                    ).astype(np.uint8)
            ideal, stable = _resolve_majority(bench, task, point, levels)
            resolved.append((ops, ideal, stable))
            maj_needed.extend(~stable.all(axis=1))
            operand_offset += trials * self.x
            frac_offset += trials * n_neutral
        maj_noise = _noise_where(reliability, maj_entries, maj_needed, columns)
        planes: List[np.ndarray] = []
        maj_offset = 0
        for task, (ops, ideal, stable) in zip(tasks, resolved):
            task_maj = maj_noise[maj_offset:maj_offset + task.trials]
            result = np.where(stable, ideal, task_maj).astype(np.uint8)
            expected = (
                ops.astype(np.int64).sum(axis=1) * 2 > self.x
            ).astype(np.uint8)
            planes.append(bitplane.pack_matrix(result == expected))
            maj_offset += task.trials
        return planes


class MultiRowCopyKernel(TrialKernel):
    """Section 3.4 recipe: init source/destinations -> APA -> readback."""

    op_name = "rowcopy"
    signature = "mrc"
    fused_semantics = frozenset({"copy", "majority"})

    def run_trial(self, bench, task, point, trial):
        module = bench.module
        columns = module.config.columns_per_row
        subarray_rows = module.profile.subarray_rows
        device_bank = module.bank(task.bank)
        group = task.group
        source_global = group.global_pair(subarray_rows)[0]
        source_bits = point.pattern.row_bits(
            columns, "mrc-src", task.serial, task.bank, trial
        )
        destination_bits = point.pattern.inverse_bits(source_bits)
        for global_row in group.global_rows(subarray_rows):
            device_bank.write_row(
                global_row,
                source_bits if global_row == source_global else destination_bits,
            )
        result = execute_multi_row_copy(
            bench, task.bank, group, t1_ns=point.t1_ns, t2_ns=point.t2_ns
        )
        return np.concatenate(
            [np.asarray(row, dtype=bool) for row in result.correctness]
        )

    def run_slice(self, bench, tasks, point, semantic):
        module = bench.module
        reliability = module.reliability
        columns = module.config.columns_per_row
        # A driven first ACT copies the source ("copy"); one too short
        # to drive the sense amplifiers leaves the APA to charge-share
        # the opened rows ("majority").  Each keys its per-row coin
        # flips under its own bank tag.
        tag = "maj" if semantic == "majority" else "mrc"
        source_ids = []
        noise_entries = []
        destination_lists = []
        for task in tasks:
            destinations = [
                local_row for local_row in sorted(task.group.rows)
                if local_row != task.group.row_first
            ]
            destination_lists.append(destinations)
            for trial in range(
                task.trial_offset, task.trial_offset + task.trials
            ):
                source_ids.append(("mrc-src", task.serial, task.bank, trial))
                context = measurement_context(self, point, task, trial)
                for local_row in destinations:
                    noise_entries.append(
                        (task.bank, task.subarray, f"{tag}-{local_row}", context)
                    )
        sources = bench.host.pattern_rows(point.pattern, columns, source_ids)
        # Either regime's stable mask depends on the sources alone, so a
        # (trial, destination) contest draws noise only when its trial
        # has an unstable column.  Stable columns latch ``latched``.
        resolved = []
        needed = []
        source_offset = 0
        for task, destinations in zip(tasks, destination_lists):
            group = task.group
            trials = task.trials
            task_sources = sources[source_offset:source_offset + trials]
            if semantic == "majority":
                # The source row among its inverse in every destination,
                # in row order as the bank charge-shares them: stable
                # columns latch the majority.
                rows = np.repeat(
                    point.pattern.inverse_bits(task_sources)[:, None, :],
                    group.size, axis=1,
                )
                rows[:, sorted(group.rows).index(group.row_first)] = task_sources
                latched, stable = _resolve_majority(
                    bench, task, point, bits_to_levels(rows)
                )
            else:
                device_bank = module.bank(task.bank)
                temp_c = device_bank.temperature_c
                vpp = device_bank.vpp
                z_values = np.array([
                    reliability.multi_row_copy_z(
                        n_destinations=max(1, group.size - 1),
                        t1_ns=point.t1_ns,
                        t2_ns=point.t2_ns,
                        source_ones_fraction=float(
                            np.mean(task_sources[trial])
                        ),
                        temp_c=temp_c,
                        vpp=vpp,
                    )
                    for trial in range(trials)
                ])
                stable = reliability.stable_mask_block(
                    z_values, task.bank, task.subarray, [group.rows] * trials,
                    OperationClass.MULTI_ROW_COPY, columns,
                )
                latched = task_sources
            resolved.append((task_sources, latched, stable))
            needed.extend(np.repeat(~stable.all(axis=1), len(destinations)))
            source_offset += trials
        noise = _noise_where(reliability, noise_entries, needed, columns)
        planes: List[np.ndarray] = []
        noise_offset = 0
        for task, destinations, (task_sources, latched, stable) in zip(
            tasks, destination_lists, resolved
        ):
            count = task.trials * len(destinations)
            task_noise = noise[noise_offset:noise_offset + count].reshape(
                task.trials, len(destinations), columns
            )
            # Unstable columns flip a coin per destination row.
            matrix = (
                np.where(stable[:, None, :], latched[:, None, :], task_noise)
                == task_sources[:, None, :]
            )
            planes.append(
                bitplane.pack_matrix(matrix.reshape(task.trials, task.cells))
            )
            noise_offset += count
        return planes


class DisturbanceKernel(TrialKernel):
    """Limitation-3 audit: hammer a group, watch the bystanders.

    The fused path leans on a structural property of the behavior
    model -- APA resolution only ever writes simultaneously *asserted*
    rows, so bystanders cannot flip -- and proves it per task with a
    real read-back audit in :meth:`finalize` (the audit is ANDed into
    the accumulated mask by every executor).  With no regime gate, the
    fused executors' probe replays a real APA on the group between
    :meth:`setup` and :meth:`finalize`, so the audit checks a hammered
    bank.
    """

    op_name = "disturbance"
    signature = "disturbance"

    def __init__(self, pattern: DataPattern, bystanders: Tuple[int, ...]):
        self.pattern = pattern
        self.bystanders = tuple(bystanders)

    def _reference(self, columns: int, row: int) -> np.ndarray:
        return self.pattern.row_bits(columns, "disturb-bystander", row)

    def setup(self, bench, task, point):
        device_bank = bench.module.bank(task.bank)
        columns = bench.module.config.columns_per_row
        for row in self.bystanders:
            device_bank.write_row(row, self._reference(columns, row))

    def run_trial(self, bench, task, point, trial):
        module = bench.module
        device_bank = module.bank(task.bank)
        columns = module.config.columns_per_row
        subarray_rows = module.profile.subarray_rows
        for global_row in task.group.global_rows(subarray_rows):
            device_bank.write_row(
                global_row,
                self.pattern.row_bits(
                    columns, "disturb-active", global_row, trial
                ),
            )
        rf_global, rs_global = task.group.global_pair(subarray_rows)
        bench.run(
            apa_program(task.bank, rf_global, rs_global, point.t1_ns, point.t2_ns)
        )
        # Rotating per-trial probe; finalize() audits every bystander.
        correct = np.ones(task.cells, dtype=bool)
        probe_index = trial % len(self.bystanders)
        probe = self.bystanders[probe_index]
        segment = device_bank.read_row(probe) == self._reference(columns, probe)
        correct[probe_index * columns:(probe_index + 1) * columns] = segment
        return correct

    def run_slice(self, bench, tasks, point, semantic):
        # Every trial passes; finalize() carries the whole verdict.
        return [
            bitplane.pack_matrix(
                np.ones((task.trials, task.cells), dtype=bool)
            )
            for task in tasks
        ]

    def finalize(self, bench, task, point):
        device_bank = bench.module.bank(task.bank)
        columns = bench.module.config.columns_per_row
        return np.concatenate([
            device_bank.read_row(row) == self._reference(columns, row)
            for row in self.bystanders
        ])
