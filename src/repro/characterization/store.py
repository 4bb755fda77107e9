"""Persistence of characterization results (the write path).

Long campaigns (the full-fidelity settings in EXPERIMENTS.md) should
not be re-run to re-render a table.  :class:`ResultStore` writes
experiment outputs as JSON next to a metadata header (seed, scale,
library version), and reloads them with
:class:`~repro.characterization.stats.DistributionSummary` objects
reconstructed.

The storage layer is split in two:

- :class:`~repro.characterization.reader.ResultReader` (the read
  path) loads, verifies, and classifies stored artifacts without ever
  touching the ``.store.lock`` -- arbitrarily many concurrent readers;
- :class:`ResultStore` (this module, the write path) owns every
  mutation -- atomic artifact writes, the campaign manifest, the
  write-ahead journal, and the single-writer lock -- and *delegates
  all reads* to an embedded reader (exposed as :attr:`ResultStore.
  reader`), so the writer and its consumers interpret bytes
  identically.

Robustness contract (a campaign can be killed at any instant, and
stored bytes can rot between runs):

- every write lands via a same-directory temp file and ``os.replace``,
  so a reader never observes a half-written document;
- every document carries a schema-version stamp and a content
  checksum (SHA-256 over the canonical JSON of its data payload);
  loads verify the checksum, so a file damaged *after* a clean write
  raises :class:`~repro.errors.ChecksumMismatchError` instead of being
  trusted silently on resume;
- version-3 documents may move their summary numbers into a columnar
  ``<name>.columns.npz`` sidecar (one float64 array per summary field)
  whose arrays carry their own checksum; the document's main digest is
  always computed over the reconstructed version-2-equivalent payload,
  so a version-2 and version-3 write of the same data share one digest
  and ``simra-dram audit`` recompute checks need no format awareness;
- a truncated or hand-damaged file raises
  :class:`~repro.errors.ResultCorruptionError` (an
  :class:`~repro.errors.ExperimentError`) rather than a bare
  ``json.JSONDecodeError``;
- a :class:`CampaignManifest` checkpoint records which experiments of
  a campaign completed or failed (and on which module fleet), letting
  ``--resume`` skip finished figures and ``simra-dram audit`` rebuild
  the scope for a recompute cross-check.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

import numpy as np

from ..config import SimulationConfig
from ..errors import ExperimentError, StoreLockedError
from .reader import (  # noqa: F401  (re-exported: the codec and manifest live with the reader)
    _CHECKSUM_ALGORITHM,
    _COLUMN_FIELDS,
    _COLUMN_REF,
    _COLUMNAR_FORMAT_VERSION,
    _COLUMNS_CHECKSUM_ALGORITHM,
    _COLUMNS_SUFFIX,
    _FORMAT_VERSION,
    _JOURNAL_FILENAME,
    _LOCK_FILENAME,
    _MANIFEST_FILENAME,
    _MANIFEST_VERSION,
    _SUMMARY_MARKER,
    _SUPPORTED_MANIFEST_VERSIONS,
    _SUPPORTED_VERSIONS,
    CampaignManifest,
    ResultReader,
    _columns_checksum,
    _decode,
    _encode,
    _pid_alive,
    _restore_summaries,
    _strip_summaries,
    canonical_data,
    content_checksum,
    storable,
)


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to disk (the rename half of the
    fsync-before-rename discipline).  Best-effort: some filesystems do
    not support directory fsync, and losing it only widens the crash
    window, it never corrupts."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` so that ``path`` is always absent or complete."""
    handle = tempfile.NamedTemporaryFile(
        "w",
        dir=path.parent,
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


class ResultStore:
    """Directory of named experiment results (the single writer).

    With ``columnar=True`` (or ``save(..., columnar=True)``), payloads
    containing :class:`DistributionSummary` objects are written in
    format version 3: the summary numbers land in a checksummed
    ``<name>.columns.npz`` sidecar and the JSON document keeps only
    ``{"__column_ref__": i}`` stubs.  Loads reconstruct the exact
    version-2 payload, and the main content digest is unchanged across
    the two encodings.

    Every read-side method (``load`` / ``metadata`` / ``verify`` /
    ``names`` / ...) is served by the embedded :attr:`reader`;
    consumers that never write should take the reader directly and
    skip the store (and its lock) entirely.
    """

    def __init__(self, directory: Path, columnar: bool = False):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._columnar = bool(columnar)
        self._reader = ResultReader(self._directory)

    @property
    def directory(self) -> Path:
        """Where results live."""
        return self._directory

    @property
    def columnar(self) -> bool:
        """Whether saves default to the columnar (version 3) format."""
        return self._columnar

    @property
    def reader(self) -> ResultReader:
        """The store's read path (lock-free, digest-memoizing)."""
        return self._reader

    def _path(self, name: str) -> Path:
        return self._reader.path_for(name)

    def _columns_path(self, name: str) -> Path:
        return self._reader.columns_path_for(name)

    def _write_columns(self, path: Path, arrays: Dict[str, np.ndarray]) -> None:
        """Write the sidecar arrays so ``path`` is always absent or complete."""
        handle = tempfile.NamedTemporaryFile(
            "wb",
            dir=path.parent,
            prefix=f".{path.name}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                np.savez(handle, **arrays)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
            _fsync_directory(path.parent)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    def save(
        self,
        name: str,
        data: Any,
        config: Optional[Union[SimulationConfig, Dict[str, Any]]] = None,
        notes: str = "",
        quality: Optional[Dict[str, Any]] = None,
        columnar: Optional[bool] = None,
    ) -> Path:
        """Persist one experiment's output (atomically, checksummed).

        ``quality`` carries explicit data-quality annotations (e.g.
        which modules were quarantined while this figure ran) so a
        degraded campaign never shrinks its fleet silently.

        ``columnar`` overrides the store's default format for this one
        save; a columnar request for a payload with no summaries falls
        back to a plain version-2 document.  ``config`` also accepts an
        already-serialized header dict, so ``simra-dram migrate`` can
        re-save an artifact without rebuilding its
        :class:`~repro.config.SimulationConfig`.
        """
        from .. import __version__

        encoded = _encode(data)
        document = {
            "format_version": _FORMAT_VERSION,
            "library_version": __version__,
            "notes": notes,
            "config": (
                dict(config)
                if isinstance(config, dict)
                else (
                    {
                        "seed": config.seed,
                        "columns_per_row": config.columns_per_row,
                        "trials_per_test": config.trials_per_test,
                    }
                    if config is not None
                    else None
                )
            ),
            "quality": quality,
            "checksum": {
                "algorithm": _CHECKSUM_ALGORITHM,
                "digest": content_checksum(encoded),
            },
            "data": encoded,
        }
        path = self._path(name)
        sidecar = self._columns_path(name)
        self._reader.invalidate(name)
        use_columnar = self._columnar if columnar is None else bool(columnar)
        if use_columnar:
            columns: List[Dict[str, Any]] = []
            stripped = _strip_summaries(encoded, columns)
            if columns:
                arrays = {
                    field: np.asarray(
                        [record[field] for record in columns],
                        dtype=np.int64 if field == "n" else np.float64,
                    )
                    for field in _COLUMN_FIELDS
                }
                arrays_digest = _columns_checksum(arrays)
                if sidecar.exists():
                    # Rewriting a live columnar artifact: park the new
                    # arrays under a generation-unique name instead of
                    # replacing the referenced file in place, so a
                    # concurrent lockless reader (or a crash between
                    # the two writes) still finds the old document
                    # paired with its old, intact sidecar.  The stale
                    # generation is swept once the document flips.
                    sidecar = self._directory / (
                        f"{name}.g{arrays_digest[:12]}{_COLUMNS_SUFFIX}"
                    )
                document["format_version"] = _COLUMNAR_FORMAT_VERSION
                document["data"] = stripped
                document["columns"] = {
                    "file": sidecar.name,
                    "count": len(columns),
                    "checksum": {
                        "algorithm": _COLUMNS_CHECKSUM_ALGORITHM,
                        "digest": arrays_digest,
                    },
                }
                # Sidecar first: until the document flips, readers
                # resolve the previous pair; afterwards, the new one.
                self._write_columns(sidecar, arrays)
                _write_atomic(
                    path, json.dumps(document, indent=2, sort_keys=True)
                )
                self._sweep_stale_sidecars(name, keep=sidecar.name)
                return path
        _write_atomic(path, json.dumps(document, indent=2, sort_keys=True))
        self._sweep_stale_sidecars(name, keep=None)
        return path

    def _sweep_stale_sidecars(self, name: str, keep: Optional[str]) -> None:
        """Drop this artifact's sidecar files except ``keep``.

        Best-effort: a swept generation may be mid-read by a lockless
        reader, whose load then retries against the fresh document.
        """
        for filename in self._reader.sidecar_names(name):
            if filename == keep:
                continue
            try:
                (self._directory / filename).unlink()
            except OSError:
                pass

    # -- read path (delegated to the embedded ResultReader) -----------------

    def load(self, name: str, verify: bool = True) -> Any:
        """Reload a result's data payload (integrity-checked)."""
        return self._reader.load(name, verify=verify)

    def metadata(self, name: str) -> Dict[str, Any]:
        """Reload a result's header (version, config, notes, quality)."""
        return self._reader.metadata(name)

    def verify(self, name: Optional[str] = None) -> Union[str, Dict[str, Any]]:
        """Integrity status of one artifact, or a store-wide scan.

        See :meth:`ResultReader.verify`.
        """
        return self._reader.verify(name)

    def orphaned_tmp_files(self) -> List[str]:
        """Stale ``*.tmp`` files left by writers that died mid-write."""
        return self._reader.orphaned_tmp_files()

    def unreferenced_sidecars(self) -> List[str]:
        """``.columns.npz`` sidecars no live document points at."""
        return self._reader.unreferenced_sidecars()

    def has(self, name: str) -> bool:
        """Whether a result with this name is stored."""
        return self._reader.has(name)

    def names(self) -> List[str]:
        """All stored result names, sorted (campaign manifest excluded)."""
        return self._reader.names()

    def clean_stale_tmp(self) -> List[str]:
        """Delete orphaned temp files; returns the names removed.

        Safe whenever no other writer holds the store lock: every live
        temp file belongs to the (single) writer that created it.
        """
        removed = []
        for filename in self._reader.orphaned_tmp_files():
            try:
                (self._directory / filename).unlink()
            except FileNotFoundError:
                continue
            removed.append(filename)
        return removed

    # -- campaign manifest -------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """Where this store's campaign checkpoint lives."""
        return self._reader.manifest_path

    def save_manifest(self, manifest: CampaignManifest) -> Path:
        """Checkpoint a campaign's progress (atomically)."""
        document = {
            "format_version": _MANIFEST_VERSION,
            "planned": list(manifest.planned),
            "completed": list(manifest.completed),
            "fingerprint": manifest.fingerprint,
            "failures": dict(manifest.failures),
            "serials": list(manifest.serials),
        }
        path = self.manifest_path
        _write_atomic(path, json.dumps(document, indent=2, sort_keys=True))
        return path

    def load_manifest(self) -> Optional[CampaignManifest]:
        """Reload the campaign checkpoint, or ``None`` if none exists."""
        return self._reader.load_manifest()

    def clear_manifest(self) -> None:
        """Forget the campaign checkpoint (results stay)."""
        try:
            self.manifest_path.unlink()
        except FileNotFoundError:
            pass

    # -- write-ahead journal -----------------------------------------------

    @property
    def journal_path(self) -> Path:
        """Where the append-only commit journal lives."""
        return self._reader.journal_path

    def journal_append(self, entry: Dict[str, Any]) -> None:
        """Append one fsync'd JSON line to the commit journal.

        The campaign writes a ``commit-intent`` line before each
        artifact save and a ``commit-done`` line after the manifest
        update; an intent with no matching done marks the artifact a
        crash may have left half-committed, which ``simra-dram
        repair`` inspects.
        """
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def journal_entries(self) -> List[Dict[str, Any]]:
        """All parsable journal entries, in append order."""
        return self._reader.journal_entries()

    def clear_journal(self) -> None:
        """Forget the commit journal (results and manifest stay)."""
        try:
            self.journal_path.unlink()
        except FileNotFoundError:
            pass

    # -- writer lock -------------------------------------------------------

    @property
    def lock_path(self) -> Path:
        """Where the single-writer lockfile lives."""
        return self._reader.lock_path

    def acquire_lock(self) -> None:
        """Take the store's single-writer lock, or raise.

        The lockfile records the holder's pid; a lock whose pid is dead
        (or is this very process, i.e. a previous run in the same
        interpreter was hard-killed mid-campaign) is stolen.  A lock
        held by a different live process raises
        :class:`~repro.errors.StoreLockedError`.
        """
        path = self.lock_path
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    holder = int(path.read_text().strip() or "0")
                except (OSError, ValueError):
                    holder = 0
                if holder == os.getpid() or not _pid_alive(holder):
                    try:
                        path.unlink()
                    except FileNotFoundError:
                        pass
                    continue
                raise StoreLockedError(
                    f"result store {self._directory} is locked by running "
                    f"process {holder}; a second writer would interleave "
                    "manifest updates"
                )
            try:
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.fsync(fd)
            finally:
                os.close(fd)
            return

    def release_lock(self) -> None:
        """Drop the single-writer lock if this process holds it."""
        path = self.lock_path
        try:
            holder = int(path.read_text().strip() or "0")
        except (OSError, ValueError):
            return
        if holder == os.getpid():
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    @contextlib.contextmanager
    def locked(self) -> Iterator["ResultStore"]:
        """Hold the single-writer lock for the duration of a block."""
        self.acquire_lock()
        try:
            yield self
        finally:
            self.release_lock()
