"""Store repair: classify crash/rot damage and make resume safe.

``simra-dram repair`` (and :func:`repair_store` behind it) closes the
loop the durability machinery opens: atomic writes, checksums, the
write-ahead commit journal, and the store-wide :meth:`ResultStore.verify`
scan can *detect* every damage class a killed writer or rotting disk
produces, and this module *acts* on them:

- a damaged artifact (torn JSON, checksum mismatch, missing or corrupt
  ``.columns.npz`` sidecar) is quarantined -- moved into a
  ``quarantine/`` subdirectory for post-mortem -- or deleted with
  ``delete=True``;
- the campaign manifest is patched so every damaged or missing
  experiment leaves ``completed`` and the next ``--resume`` re-runs it
  (bit-identically, because all measurement noise is context-keyed);
- journal ``commit-intent`` entries with no matching ``commit-done``
  are redone or rolled back: an intact artifact's manifest entry is
  completed, a damaged one follows the quarantine path;
- stale ``*.tmp`` files are deleted, unreferenced sidecars follow the
  quarantine/delete rule, a dead holder's lockfile is removed, and the
  journal is cleared once its information is folded in.

``dry_run=True`` reports everything without touching the store.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ExperimentError
from .store import CampaignManifest, ResultStore

_QUARANTINE_DIRNAME = "quarantine"


@dataclass(frozen=True)
class RepairFinding:
    """One damaged or suspicious item and what repair did about it."""

    name: str
    classification: str
    """What was wrong: a :meth:`ResultReader.validate` damage class,
    ``missing-artifact`` (manifest names it, no file), ``orphaned-tmp``,
    ``orphaned-sidecar``, ``interrupted-commit`` (journal intent with
    no done), ``corrupt-manifest``, or ``stale-lock``."""
    action: str
    """``quarantined`` / ``deleted`` / ``manifest-patched`` /
    ``redone`` / ``none``, with a ``would-`` prefix under dry-run."""
    detail: str = ""


@dataclass
class RepairReport:
    """Outcome of one repair pass over a store."""

    findings: List[RepairFinding] = field(default_factory=list)
    dry_run: bool = False

    @property
    def damage_found(self) -> bool:
        """Whether the scan found anything to repair."""
        return bool(self.findings)

    @property
    def repaired(self) -> int:
        """Items actually (or would-be) acted on."""
        return sum(
            1
            for finding in self.findings
            if finding.action.removeprefix("would-") != "none"
        )

    def summary_lines(self) -> List[str]:
        """One line per finding, plus a verdict."""
        lines = []
        for finding in self.findings:
            detail = f" ({finding.detail})" if finding.detail else ""
            lines.append(
                f"  {finding.name}: {finding.classification} -> "
                f"{finding.action}{detail}"
            )
        if not self.findings:
            lines.append("  store is clean; nothing to repair")
        elif self.dry_run:
            lines.append(
                f"  {self.repaired} item(s) need repair (dry run; "
                "nothing was changed)"
            )
        else:
            lines.append(f"  {self.repaired} item(s) repaired")
        return lines

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON form."""
        return {
            "dry_run": self.dry_run,
            "repaired": self.repaired,
            "findings": [
                {
                    "name": finding.name,
                    "classification": finding.classification,
                    "action": finding.action,
                    "detail": finding.detail,
                }
                for finding in self.findings
            ],
        }


def _quarantine(store: ResultStore, filename: str) -> None:
    """Move one store file into the quarantine subdirectory."""
    source = store.directory / filename
    target_dir = store.directory / _QUARANTINE_DIRNAME
    target_dir.mkdir(exist_ok=True)
    shutil.move(str(source), str(target_dir / filename))


def repair_store(
    store: ResultStore, delete: bool = False, dry_run: bool = False
) -> RepairReport:
    """Scan a store, remove/quarantine damage, patch the manifest.

    After a non-dry run the store is ``verify()``-clean: every
    remaining artifact checks out, no debris remains, and the manifest
    only lists experiments whose artifacts are intact -- so the next
    ``campaign --resume`` re-runs exactly the damaged ones.
    """
    report = RepairReport(dry_run=dry_run)
    # Every read goes through the store's lock-free read path; only
    # quarantine moves, manifest patches, and the journal clear touch
    # the write path.
    reader = getattr(store, "reader", store)

    def act(action: str) -> str:
        return f"would-{action}" if dry_run else action

    def remove_artifact(name: str, classification: str, detail: str) -> None:
        # The canonical sidecar plus any generation files a live
        # rewrite parked next to it -- damage takes them all along.
        files = [f"{name}.json"] + reader.sidecar_names(name)
        if not dry_run:
            for filename in files:
                if delete:
                    (store.directory / filename).unlink(missing_ok=True)
                else:
                    _quarantine(store, filename)
        report.findings.append(
            RepairFinding(
                name=name,
                classification=classification,
                action=act("deleted" if delete else "quarantined"),
                detail=detail,
            )
        )

    # The manifest itself can be the casualty (torn mid-checkpoint).
    manifest: Optional[CampaignManifest] = None
    manifest_dirty = False
    try:
        manifest = reader.load_manifest()
    except (ExperimentError, json.JSONDecodeError) as exc:
        if not dry_run:
            _quarantine(store, store.manifest_path.name)
        report.findings.append(
            RepairFinding(
                name=store.manifest_path.name,
                classification="corrupt-manifest",
                action=act("quarantined"),
                detail=f"unreadable checkpoint: {exc}",
            )
        )

    # Damaged artifacts: quarantine/delete, and drop from the manifest
    # so resume re-runs them.
    damaged: List[str] = []
    for name in reader.names():
        classification = reader.validate(name)
        if classification in ("ok", "legacy"):
            continue
        damaged.append(name)
        remove_artifact(
            name,
            classification,
            "artifact failed its integrity diagnosis",
        )
    if manifest is not None:
        for name in damaged:
            if name in manifest.completed:
                manifest.completed.remove(name)
                manifest_dirty = True
        for name in list(manifest.completed):
            if not reader.has(name):
                manifest.completed.remove(name)
                manifest_dirty = True
                report.findings.append(
                    RepairFinding(
                        name=name,
                        classification="missing-artifact",
                        action=act("manifest-patched"),
                        detail="manifest listed it as completed but no "
                        "artifact exists; resume will re-run it",
                    )
                )

    # Journal redo/rollback: an intent with no matching done means the
    # writer died somewhere inside the commit.  If the artifact is
    # intact the only possibly-lost step is the manifest update -- redo
    # it; anything else was handled by the damage scan above.
    done = {
        entry.get("experiment")
        for entry in reader.journal_entries()
        if entry.get("event") == "commit-done"
    }
    for entry in reader.journal_entries():
        if entry.get("event") != "commit-intent":
            continue
        name = entry.get("experiment")
        if not isinstance(name, str) or name in done:
            continue
        done.add(name)  # report each suspect once
        if (
            manifest is not None
            and reader.has(name)
            and reader.validate(name) in ("ok", "legacy")
        ):
            if name not in manifest.completed:
                manifest.completed.append(name)
                manifest_dirty = True
            report.findings.append(
                RepairFinding(
                    name=name,
                    classification="interrupted-commit",
                    action=act("redone"),
                    detail="journal intent without done, artifact "
                    "intact; manifest entry completed",
                )
            )
        else:
            report.findings.append(
                RepairFinding(
                    name=name,
                    classification="interrupted-commit",
                    action=act("none"),
                    detail="journal intent without done; artifact "
                    "absent or already quarantined -- resume re-runs it",
                )
            )

    # Crashed-writer debris.
    for filename in reader.orphaned_tmp_files():
        if not dry_run:
            (store.directory / filename).unlink(missing_ok=True)
        report.findings.append(
            RepairFinding(
                name=filename,
                classification="orphaned-tmp",
                action=act("deleted"),
                detail="stale temp file from an interrupted write",
            )
        )
    for filename in reader.unreferenced_sidecars():
        if not dry_run:
            if delete:
                (store.directory / filename).unlink(missing_ok=True)
            else:
                _quarantine(store, filename)
        report.findings.append(
            RepairFinding(
                name=filename,
                classification="orphaned-sidecar",
                action=act("deleted" if delete else "quarantined"),
                detail="column sidecar no stored document references",
            )
        )

    # A lockfile whose holder is gone would be stolen by the next
    # campaign anyway; removing it here keeps the scan's "clean" verdict
    # honest.  A live holder's lock is left alone (and is the caller's
    # cue not to repair a store mid-campaign).
    lock = reader.lock_path
    if lock.exists():
        from .store import _pid_alive

        try:
            holder = int(lock.read_text().strip() or "0")
        except (OSError, ValueError):
            holder = 0
        if not _pid_alive(holder):
            if not dry_run:
                lock.unlink(missing_ok=True)
            report.findings.append(
                RepairFinding(
                    name=lock.name,
                    classification="stale-lock",
                    action=act("deleted"),
                    detail=f"holder pid {holder} is not running",
                )
            )

    if not dry_run:
        if manifest is not None and manifest_dirty:
            store.save_manifest(manifest)
        store.clear_journal()
    return report
