"""Result-integrity audits over a stored campaign.

Checksums catch bytes that rotted on disk; they cannot catch a result
that was *written* wrong (a buggy executor, a mis-restored rig).  The
audit closes that gap with two passes over a
:class:`~repro.characterization.store.ResultStore`:

1. **Integrity** -- every stored artifact's content checksum is
   re-verified (``store.verify``).
2. **Recompute** -- a deterministic sample of completed figures is
   recomputed from scratch with a
   :class:`~repro.engine.SerialExecutor` (the reference executor) on
   the same module fleet the stored run used -- rebuilt from the
   campaign manifest and restricted to the healthy subset recorded in
   each artifact's data-quality annotation -- and compared
   bit-for-bit against the stored payload.  A campaign whose
   fingerprint carries ``adaptive`` knobs is recomputed through the
   same :class:`~repro.engine.AdaptivePlanner` (rebuilt from those
   knobs) instead of at the program's fixed budget: the planner's
   round schedule, bootstrap, and allocation are all seeded pure
   functions of the observations, so its serial recompute lands on
   identical bits too.

Everything the audit needs to rebuild the measurement context is in
the store: the manifest carries the config fingerprint and the full
serial list; each artifact carries ``quality["modules_active"]``.
Because all measurement noise is context-keyed (never history-keyed),
the recompute lands on identical bits unless the stored data is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import rng
from ..errors import ExperimentError


@dataclass(frozen=True)
class AuditFinding:
    """One artifact's audit outcome."""

    name: str
    kind: str
    """``"integrity"`` (checksum pass) or ``"recompute"`` (cross-check)."""
    status: str
    """Integrity: ``ok`` / ``legacy`` / ``mismatch`` / ``corrupt`` /
    ``missing``, plus the store-debris findings ``orphaned-tmp`` (a
    stale temp file from a writer that died mid-write) and
    ``orphaned-sidecar`` (a ``.columns.npz`` no document references).
    Recompute: ``match`` / ``mismatch`` / ``skipped``."""
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Whether this finding is benign."""
        return self.status in ("ok", "legacy", "match", "skipped")


@dataclass
class AuditReport:
    """Outcome of one audit run over a stored campaign."""

    findings: List[AuditFinding] = field(default_factory=list)
    artifacts_checked: int = 0
    figures_recomputed: int = 0

    @property
    def mismatches(self) -> int:
        """Findings that indicate wrong or damaged data."""
        return sum(1 for finding in self.findings if not finding.ok)

    @property
    def passed(self) -> bool:
        """Whether every artifact survived both passes."""
        return self.mismatches == 0

    def summary_lines(self) -> List[str]:
        """One line per non-trivial finding, plus totals."""
        lines = [
            f"  artifacts checked: {self.artifacts_checked}",
            f"  figures recomputed: {self.figures_recomputed}",
        ]
        for finding in self.findings:
            if finding.kind == "integrity" and finding.status == "ok":
                continue
            marker = "ok" if finding.ok else "FAIL"
            detail = f" ({finding.detail})" if finding.detail else ""
            lines.append(
                f"  [{marker}] {finding.kind} {finding.name}: "
                f"{finding.status}{detail}"
            )
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return lines

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (what ``simra-dram audit`` persists)."""
        return {
            "artifacts_checked": self.artifacts_checked,
            "figures_recomputed": self.figures_recomputed,
            "mismatches": self.mismatches,
            "passed": self.passed,
            "findings": [
                {
                    "name": finding.name,
                    "kind": finding.kind,
                    "status": finding.status,
                    "detail": finding.detail,
                }
                for finding in self.findings
            ],
        }


def scope_from_manifest(manifest) -> "CharacterizationScope":  # noqa: F821
    """Rebuild the stored campaign's measurement scope.

    The manifest's fingerprint carries the config identity and the
    scope knobs; its serial list names the module fleet.  Benches are
    rebuilt by looking each serial's spec up in the tested-module
    catalog -- which works because the simulated fleet is itself a
    pure function of (spec, instance, config).
    """
    # Imported lazily: this module sits below the campaign layer in
    # the package graph, but the scope types live beside it.
    from ..bender.testbench import TestBench
    from ..characterization.experiment import CharacterizationScope
    from ..config import SimulationConfig
    from ..dram.vendor import TESTED_MODULES

    fingerprint = manifest.fingerprint or {}
    required = ("seed", "columns_per_row", "trials_per_test")
    if not all(key in fingerprint for key in required):
        raise ExperimentError(
            "campaign manifest has no usable config fingerprint; "
            "cannot rebuild the audit scope"
        )
    if not manifest.serials:
        raise ExperimentError(
            "campaign manifest records no module serials (pre-health-layer "
            "campaign?); pass an explicit scope to audit_store"
        )
    config = SimulationConfig(
        seed=int(fingerprint["seed"]),
        columns_per_row=int(fingerprint["columns_per_row"]),
        trials_per_test=int(fingerprint["trials_per_test"]),
        functional_only=bool(fingerprint.get("functional_only", False)),
    )
    specs_by_identifier = {
        spec.module_identifier: spec for spec in TESTED_MODULES
    }
    benches = []
    for serial in manifest.serials:
        identifier, sep, instance = serial.rpartition("#")
        if not sep or identifier not in specs_by_identifier:
            raise ExperimentError(
                f"manifest serial {serial!r} does not name a catalog module"
            )
        benches.append(
            TestBench.for_spec(
                specs_by_identifier[identifier], int(instance), config=config
            )
        )
    return CharacterizationScope(
        benches=benches,
        banks=tuple(fingerprint.get("banks", (0,))),
        subarrays=tuple(fingerprint.get("subarrays", (0,))),
        groups_per_size=int(fingerprint.get("groups_per_size", 4)),
        trials=int(fingerprint.get("trials", 8)),
    )


def _restricted(scope, serials: Optional[List[str]]):
    """The scope narrowed to the serials a stored figure actually used."""
    import dataclasses

    if not serials:
        return scope
    wanted = set(serials)
    benches = [b for b in scope.benches if b.module.serial in wanted]
    if not benches:
        return None
    return dataclasses.replace(scope, benches=benches)


def audit_store(
    store,
    sample: int = 2,
    seed: int = 0,
    scope=None,
) -> AuditReport:
    """Audit one stored campaign: checksums for all, recompute a sample.

    ``sample`` figures (deterministically chosen by ``seed``) are
    recomputed with the reference serial executor and compared against
    the stored bits.  ``scope`` overrides the manifest-rebuilt scope
    (useful when auditing inside a live session that already holds the
    benches).  Every recompute runs from scratch on a fresh
    :class:`~repro.engine.executors.SerialExecutor`, so an audit never
    consumes the output of an executor it is supposed to cross-check.
    """
    # The campaign layer imports repro.health; import it lazily here so
    # the health package never imports it at module load.
    from ..characterization.campaign import EXPERIMENT_PROGRAMS
    from ..characterization.reader import canonical_data
    from ..engine import AdaptiveConfig, SerialExecutor

    if sample < 0:
        raise ExperimentError("audit sample size must be non-negative")

    report = AuditReport()
    # Audits are read-only: everything below goes through the store's
    # lock-free read path (a bare ResultReader is accepted directly).
    reader = getattr(store, "reader", store)

    # Pass 1: integrity of every artifact, plus crashed-writer debris
    # (stale temp files, sidecars no document references).
    scan = reader.verify()
    for name, status in scan["artifacts"].items():
        report.artifacts_checked += 1
        report.findings.append(
            AuditFinding(name=name, kind="integrity", status=status)
        )
    for filename in scan["orphaned_tmp"]:
        report.findings.append(
            AuditFinding(
                name=filename,
                kind="integrity",
                status="orphaned-tmp",
                detail="stale temp file from an interrupted write; "
                "run simra-dram repair",
            )
        )
    for filename in scan["unreferenced_sidecars"]:
        report.findings.append(
            AuditFinding(
                name=filename,
                kind="integrity",
                status="orphaned-sidecar",
                detail="column sidecar no stored document references; "
                "run simra-dram repair",
            )
        )

    # Pass 2: recompute a deterministic sample of completed figures.
    manifest = reader.load_manifest()
    candidates = []
    if manifest is not None:
        candidates = [
            name
            for name in manifest.completed
            if name in EXPERIMENT_PROGRAMS
            and reader.has(name)
            and reader.verify(name) == "ok"
        ]
    if sample and candidates:
        order = rng.generator("audit", seed).permutation(len(candidates))
        chosen = [candidates[int(i)] for i in order[:sample]]
        audit_scope = scope
        scope_error = None
        if audit_scope is None:
            try:
                audit_scope = scope_from_manifest(manifest)
            except ExperimentError as exc:
                scope_error = str(exc)
        adaptive = None
        adaptive_payload = (manifest.fingerprint or {}).get("adaptive")
        if adaptive_payload:
            try:
                adaptive = AdaptiveConfig.from_dict(adaptive_payload)
            except (ExperimentError, KeyError, TypeError, ValueError) as exc:
                audit_scope = None
                scope_error = (
                    "manifest records unusable adaptive knobs: "
                    f"{adaptive_payload!r} ({exc})"
                )
        for name in sorted(chosen):
            if audit_scope is None:
                report.findings.append(
                    AuditFinding(
                        name=name,
                        kind="recompute",
                        status="skipped",
                        detail=scope_error or "no scope available",
                    )
                )
                continue
            quality = (reader.metadata(name) or {}).get("quality") or {}
            figure_scope = _restricted(
                audit_scope, quality.get("modules_active")
            )
            if figure_scope is None:
                report.findings.append(
                    AuditFinding(
                        name=name,
                        kind="recompute",
                        status="skipped",
                        detail="no bench in scope matches the stored "
                        "modules_active annotation",
                    )
                )
                continue
            program = EXPERIMENT_PROGRAMS[name](figure_scope)
            reference = SerialExecutor()
            if adaptive is not None:
                # Same planner, same knobs, reference executor: the
                # round schedule replays deterministically, so the
                # figure value must match the stored bits exactly.
                value = adaptive.planner(reference).run_program(program).value
            else:
                value = program.run(reference)
            fresh = canonical_data(value)
            stored = reader.load(name)
            report.figures_recomputed += 1
            if fresh == stored:
                report.findings.append(
                    AuditFinding(name=name, kind="recompute", status="match")
                )
            else:
                report.findings.append(
                    AuditFinding(
                        name=name,
                        kind="recompute",
                        status="mismatch",
                        detail="serial recompute disagrees with stored data",
                    )
                )
    return report
