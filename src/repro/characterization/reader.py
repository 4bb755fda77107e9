"""The lock-free read path of the result store.

:class:`ResultReader` is everything about a stored campaign that does
not mutate it: loading artifacts, verifying checksums, classifying
damage, and summarizing store state.  It is the single source of truth
for artifact *interpretation* -- :class:`~repro.characterization.store.
ResultStore` (the write path), ``simra-dram audit``, ``simra-dram
repair``, ``simra-dram stats``, the campaign resume path, and the HTTP
result service all read through one reader so their classifications
cannot drift.

Read-path contract:

- **No lock acquisition.**  A reader never touches ``.store.lock``:
  the writer's atomic-rename discipline (same-directory temp file,
  fsync, ``os.replace``) guarantees a reader observes either the old
  or the new document, never a torn one, so arbitrarily many readers
  run concurrently with the single writer without contention.
- **Memory-mapped sidecars.**  ``<name>.columns.npz`` sidecars are
  ``np.savez``-written uncompressed (``ZIP_STORED``), so their member
  arrays can be served straight off a shared read-only ``mmap`` --
  zero copies per reader -- with a transparent ``np.load`` fallback
  for anything the fast path cannot prove safe.  The sidecar code is
  the only code here that needs numpy and imports it where it runs,
  so reading a version-2 document (the served hot path) loads none.
- **Memoized digests.**  Content sha256 digests are cached per
  artifact, keyed by the ``(mtime_ns, size, inode)`` stat signatures
  of the document and of the sidecar it references.  The memo holds
  only digests computed from those bytes, so a repeated verifying
  read of an unchanged artifact skips the checksum recompute, and a
  digest merely copied out of a document can never stand in for one.
- **One read, one damage taxonomy.**  Every view of an artifact
  version -- :meth:`ResultReader.load_version`, :meth:`validate`,
  :meth:`verify`, :meth:`content_digest` -- is one private read: it
  parses the document, maps and checks the sidecar, checks the
  content checksum through the memo, and retries against a rewrite
  in flight.  Damage raises :class:`~repro.errors.ResultCorruptionError`
  carrying its fine class (``torn-json`` / ``checksum-mismatch`` /
  ``sidecar-missing`` / ``sidecar-corrupt`` / ``sidecar-mismatch``);
  :meth:`validate` reports it (or ``legacy`` / ``ok`` / ``missing``),
  :meth:`verify` coarsens it, and ``repair``'s findings and the HTTP
  service's ``/figures`` rows are built from the same verdicts, so
  loading and classifying cannot drift.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import struct
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..errors import (
    ChecksumMismatchError,
    ExperimentError,
    ResultCorruptionError,
)
from .stats import DistributionSummary

if TYPE_CHECKING:
    import numpy as np

_FORMAT_VERSION = 2
_COLUMNAR_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
"""Version 1 documents predate content checksums; they still load but
``verify`` reports them as ``"legacy"``.  Version 3 documents park
their summary numbers in a columnar ``.npz`` sidecar."""
_CHECKSUM_ALGORITHM = "sha256-canonical-json"
_COLUMNS_CHECKSUM_ALGORITHM = "sha256-column-arrays"
_SUMMARY_MARKER = "__distribution_summary__"
_COLUMN_REF = "__column_ref__"
_COLUMN_FIELDS = ("mean", "minimum", "q1", "median", "q3", "maximum", "n")
_MANIFEST_FILENAME = "campaign-manifest.json"
_MANIFEST_VERSION = 2
_SUPPORTED_MANIFEST_VERSIONS = (1, 2)
_JOURNAL_FILENAME = "campaign-journal.jsonl"
_LOCK_FILENAME = ".store.lock"
_COLUMNS_SUFFIX = ".columns.npz"
_GENERATION_MARK = ".g"
"""Rewriting a live columnar artifact parks the new arrays in
``<name>.g<digest12>.columns.npz`` instead of replacing the canonical
``<name>.columns.npz`` in place, so concurrent lockless readers (and a
crash between the sidecar and document writes) always find the old
document still paired with the old, intact sidecar.  The document's
``columns.file`` field is the source of truth for which file is live;
superseded generations are swept by the writer and reported as
unreferenced debris until then."""
_GENERATION_SIDECAR = re.compile(
    r"(.+)" + re.escape(_GENERATION_MARK) + r"[0-9a-f]{12}"
    + re.escape(_COLUMNS_SUFFIX) + r"\Z"
)
"""A parked sidecar generation's file name; group 1 is the artifact."""

_COARSE_STATUS = {
    "ok": "ok",
    "legacy": "legacy",
    "missing": "missing",
    "torn-json": "corrupt",
    "sidecar-missing": "corrupt",
    "sidecar-corrupt": "corrupt",
    "checksum-mismatch": "mismatch",
    "sidecar-mismatch": "mismatch",
}
"""Fine :meth:`~ResultReader.validate` classification to the coarse
:meth:`~ResultReader.verify` status."""

_HEADER_FIELDS = (
    "format_version",
    "library_version",
    "config",
    "notes",
    "quality",
    "checksum",
    "columns",
)
"""The document fields :meth:`ResultReader.metadata` returns."""


# -- payload codec (shared by the reader and the writer) -------------------


def _encode(value: Any) -> Any:
    if isinstance(value, DistributionSummary):
        payload = asdict(value)
        payload[_SUMMARY_MARKER] = True
        return payload
    if isinstance(value, dict):
        return {str(key): _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ExperimentError(f"cannot persist value of type {type(value)!r}")


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if value.get(_SUMMARY_MARKER):
            fields = {k: v for k, v in value.items() if k != _SUMMARY_MARKER}
            return DistributionSummary(**fields)
        return {key: _decode(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode(item) for item in value]
    return value


def storable(data: Any) -> Any:
    """Convert tuple keys (t1, t2) to strings for JSON persistence."""
    if isinstance(data, dict):
        return {
            (
                ",".join(str(part) for part in key)
                if isinstance(key, tuple)
                else str(key)
            ): storable(value)
            for key, value in data.items()
        }
    return data


def canonical_data(data: Any) -> Any:
    """The persistence-normal form of a payload (what ``load`` returns).

    Recomputed figures pass through this before being compared against
    stored ones, so tuple keys, numpy scalars converted upstream, and
    summary objects all land in the same representation.
    """
    return _decode(_encode(storable(data)))


def content_checksum(encoded: Any) -> str:
    """SHA-256 of the canonical JSON form of an encoded data payload."""
    canonical = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _strip_summaries(encoded: Any, columns: List[Dict[str, Any]]) -> Any:
    """Replace encoded summary dicts with ``{_COLUMN_REF: i}`` stubs.

    Appends each stripped summary to ``columns`` in document order, so
    index ``i`` in the sidecar arrays is the ``i``-th summary a reader
    encounters walking the payload.
    """
    if isinstance(encoded, dict):
        if encoded.get(_SUMMARY_MARKER):
            index = len(columns)
            columns.append(encoded)
            return {_COLUMN_REF: index}
        return {key: _strip_summaries(item, columns) for key, item in encoded.items()}
    if isinstance(encoded, list):
        return [_strip_summaries(item, columns) for item in encoded]
    return encoded


def _restore_summaries(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`_strip_summaries`: stubs back to summary dicts."""
    if isinstance(value, dict):
        if _COLUMN_REF in value:
            index = value[_COLUMN_REF]
            record: Dict[str, Any] = {
                name: (
                    int(arrays[name][index])
                    if name == "n"
                    else float(arrays[name][index])
                )
                for name in _COLUMN_FIELDS
            }
            record[_SUMMARY_MARKER] = True
            return record
        return {key: _restore_summaries(item, arrays) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore_summaries(item, arrays) for item in value]
    return value


def _columns_checksum(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the sidecar arrays' dtypes, shapes, and raw bytes.

    Hashing array *contents* (not the ``.npz`` file bytes) keeps the
    digest independent of zip metadata such as entry timestamps.
    """
    import numpy as np

    digest = hashlib.sha256()
    for name in _COLUMN_FIELDS:
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def artifact_path(directory: Path, name: str) -> Path:
    """The JSON document path of a named artifact (name-validated)."""
    if not name or "/" in name or name.startswith("."):
        raise ExperimentError(f"invalid result name {name!r}")
    if f"{name}.json" == _MANIFEST_FILENAME:
        raise ExperimentError(
            f"result name {name!r} is reserved for the campaign manifest"
        )
    return directory / f"{name}.json"


def _header(document: Dict[str, Any]) -> Dict[str, Any]:
    """A parsed document's header fields (everything but the data)."""
    return {key: document.get(key) for key in _HEADER_FIELDS}


def _status(metadata: Dict[str, Any]) -> str:
    """``"ok"`` or ``"legacy"``: the status of an undamaged version,
    by whether its header carries a checksum record."""
    return "ok" if isinstance(metadata.get("checksum"), dict) else "legacy"


# -- memory-mapped sidecar access -------------------------------------------


_NPY_HEADER = re.compile(
    rb"\{'descr': '(<f8|<i8)', 'fortran_order': False, "
    rb"'shape': \((\d+),\), \} *\n"
)
"""The version-1.0 ``.npy`` header ``np.savez`` writes for a 1-D
little-endian float64 or int64 column, the only members a sidecar
holds (group 1 is the dtype, group 2 the row count)."""


def _npy_from_buffer(
    buffer, offset: int, dtype: str, count: Optional[int]
) -> Optional[np.ndarray]:
    """View one ``.npy`` column member in place, zero-copy.

    The header must be exactly the one the writer produces for a
    ``dtype`` column of ``count`` rows (any row count when ``count``
    is ``None``); it is matched, never evaluated.  Anything else
    returns ``None`` and the caller falls back to ``np.load``.
    """
    import numpy as np

    if bytes(buffer[offset : offset + 8]) != b"\x93NUMPY\x01\x00":
        return None
    (header_len,) = struct.unpack(
        "<H", bytes(buffer[offset + 8 : offset + 10])
    )
    header_start = offset + 10
    header = _NPY_HEADER.fullmatch(
        bytes(buffer[header_start : header_start + header_len])
    )
    if header is None or header.group(1).decode("ascii") != dtype:
        return None
    rows = int(header.group(2))
    if count is not None and rows != count:
        return None
    try:
        return np.frombuffer(
            buffer, dtype=dtype, count=rows, offset=header_start + header_len
        )
    except ValueError:
        return None


def mmap_npz_columns(
    path: Path, count: Optional[int] = None
) -> Optional[Dict[str, np.ndarray]]:
    """Map an uncompressed ``.npz`` sidecar and view its column arrays.

    ``np.savez`` writes ``ZIP_STORED`` members, so each array's bytes
    sit contiguously inside the archive; the returned arrays are
    read-only views over one shared ``mmap`` (their ``.base`` chain
    keeps it alive).  Returns ``None`` whenever the archive is not in
    the exact shape the writer produces -- compressed members, missing
    fields, damaged headers, a row count other than ``count`` -- so
    the caller can fall back to ``np.load`` (which then raises the
    usual corruption errors).
    """
    try:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError):
        return None
    try:
        archive = zipfile.ZipFile(mapped)
        arrays: Dict[str, np.ndarray] = {}
        for field in _COLUMN_FIELDS:
            info = archive.getinfo(f"{field}.npy")
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            local = info.header_offset
            if bytes(mapped[local : local + 4]) != b"PK\x03\x04":
                return None
            name_len, extra_len = struct.unpack(
                "<HH", bytes(mapped[local + 26 : local + 30])
            )
            arr = _npy_from_buffer(
                mapped,
                local + 30 + name_len + extra_len,
                "<i8" if field == "n" else "<f8",
                count,
            )
            if arr is None:
                return None
            arrays[field] = arr
        return arrays
    except (zipfile.BadZipFile, KeyError, OSError, ValueError, struct.error):
        return None


def _pid_alive(pid: int) -> bool:
    """Whether a process with this pid currently exists."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _stat_signature(path: Path) -> Optional[Tuple[int, int, int]]:
    """``(mtime_ns, size, inode)`` of a file, or ``None`` if absent.

    Atomic-rename writers always produce a fresh inode, so the
    signature changes on every replace even when mtime granularity or
    size collide.
    """
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


StatSignature = Tuple[int, int, int]
Signatures = Tuple[Optional[StatSignature], Optional[StatSignature]]
"""``(document, referenced sidecar)`` stat signatures of one artifact
version; the sidecar's is ``None`` for a document that references
none."""
ArtifactKey = Tuple[
    Optional[StatSignature],
    Optional[StatSignature],
    Tuple[Tuple[str, Optional[StatSignature]], ...],
]
"""One artifact's slice of the state token: its document and canonical
sidecar signatures, then every parked sidecar generation's file name
and signature, in name order."""


@dataclass
class CampaignManifest:
    """Checkpoint of one campaign: what was planned, what finished."""

    planned: List[str]
    completed: List[str] = field(default_factory=list)
    fingerprint: Optional[Dict[str, Any]] = None
    """:meth:`~repro.config.SimulationConfig.fingerprint` of the run."""
    failures: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    """Experiments the campaign gave up on, by name: ``reason`` /
    ``attempts`` / ``error`` / ``chain``.  Non-transient failures are
    skipped on resume unless ``--retry-failed`` is passed."""
    serials: List[str] = field(default_factory=list)
    """Module serials of the campaign's full scope, in bench order --
    what ``simra-dram audit`` rebuilds the recompute scope from."""


class StoreScan(NamedTuple):
    """What one ``os.scandir`` pass over a store saw."""

    artifacts: Dict[str, ArtifactKey]
    """Every artifact's key, in name order (manifest excluded)."""
    manifest: Optional[StatSignature]
    journal: Optional[StatSignature]

    @property
    def token(self) -> str:
        """The :meth:`ResultReader.state_token` of this scan."""
        digest = hashlib.sha256()
        for name, (document, sidecar, generations) in self.artifacts.items():
            digest.update(name.encode("utf-8"))
            digest.update(repr(document).encode("utf-8"))
            digest.update(repr(sidecar).encode("utf-8"))
            for filename, signature in generations:
                digest.update(filename.encode("utf-8"))
                digest.update(repr(signature).encode("utf-8"))
        digest.update(repr(self.manifest).encode("utf-8"))
        digest.update(repr(self.journal).encode("utf-8"))
        return digest.hexdigest()


class StoredVersion(NamedTuple):
    """One artifact version, everything taken from a single document read."""

    signatures: Signatures
    """Stat signatures of the document (taken just before it was read)
    and of the sidecar it references."""
    sidecar: Optional[str]
    """The column sidecar file the document references, if any."""
    digest: str
    """Content sha256: memoized or recomputed for these bytes, or the
    recorded checksum when the read did not verify (what
    :meth:`ResultReader.content_digest` returns for the same bytes)."""
    metadata: Dict[str, Any]
    """The header fields :meth:`ResultReader.metadata` returns."""
    payload: Any
    """The decoded data payload :meth:`ResultReader.load` returns."""


class ResultReader:
    """Lock-free, digest-memoizing read access to one result store.

    Many readers may share a directory with the (single) writer: the
    writer's atomic renames mean every document read lands on a
    complete old or new version, and the reader never creates, locks,
    or mutates anything.
    """

    def __init__(self, directory: Union[str, Path]):
        self._directory = Path(directory)
        # name -> (signatures, digest): a digest computed from exactly
        # the bytes those signatures describe.
        self._digest_cache: Dict[str, Tuple[Signatures, str]] = {}
        self.digest_recomputes = 0
        """Times a content sha256 was actually recomputed (cache misses)."""
        self.digest_reuses = 0
        """Times a memoized digest short-circuited a checksum recompute."""

    @property
    def directory(self) -> Path:
        """Where results live."""
        return self._directory

    # -- paths ---------------------------------------------------------------

    def path_for(self, name: str) -> Path:
        """The JSON document path of a named artifact."""
        return artifact_path(self._directory, name)

    def columns_path_for(self, name: str) -> Path:
        """The columnar sidecar path of a named artifact."""
        return self._directory / f"{name}{_COLUMNS_SUFFIX}"

    @property
    def manifest_path(self) -> Path:
        """Where the store's campaign checkpoint lives."""
        return self._directory / _MANIFEST_FILENAME

    @property
    def journal_path(self) -> Path:
        """Where the append-only commit journal lives."""
        return self._directory / _JOURNAL_FILENAME

    @property
    def lock_path(self) -> Path:
        """Where the single-writer lockfile lives (never acquired here)."""
        return self._directory / _LOCK_FILENAME

    # -- inventory -----------------------------------------------------------

    def names(self) -> List[str]:
        """All stored result names, sorted (campaign manifest excluded)."""
        if not self._directory.is_dir():
            return []
        return sorted(
            p.stem
            for p in self._directory.glob("*.json")
            if p.name != _MANIFEST_FILENAME and not p.name.startswith(".")
        )

    def has(self, name: str) -> bool:
        """Whether a result with this name is stored."""
        return self.path_for(name).exists()

    def orphaned_tmp_files(self) -> List[str]:
        """Stale ``*.tmp`` files left by writers that died mid-write.

        The atomic-write discipline only leaves these behind on a hard
        kill (SIGKILL, ``os._exit``) or an out-of-space failure between
        the temp write and the rename; a clean unwind unlinks them.
        """
        if not self._directory.is_dir():
            return []
        return sorted(
            p.name
            for p in self._directory.glob("*.tmp")
            if p.is_file() and p.name != _LOCK_FILENAME
        )

    def unreferenced_sidecars(self) -> List[str]:
        """``.columns.npz`` sidecars no live document points at.

        A sidecar is referenced only when some version-3 document's
        ``columns.file`` names it; anything else is debris -- a
        crashed columnar write, an injected fault, or a superseded
        generation a live rewrite left behind.
        """
        if not self._directory.is_dir():
            return []
        referenced = set()
        for name in self.names():
            try:
                document = self.read_document(name)
            except (OSError, ResultCorruptionError):
                continue
            if document.get("format_version") == _COLUMNAR_FORMAT_VERSION:
                columns = document.get("columns")
                if isinstance(columns, dict):
                    referenced.add(columns.get("file"))
        return [
            sidecar.name
            for sidecar in sorted(self._directory.glob(f"*{_COLUMNS_SUFFIX}"))
            if not sidecar.name.startswith(".")
            and sidecar.name not in referenced
        ]

    def sidecar_names(self, name: str) -> List[str]:
        """On-disk sidecar files belonging to one artifact.

        The canonical ``<name>.columns.npz`` plus any
        ``<name>.g<digest12>.columns.npz`` generations a live rewrite
        parked next to it -- what ``repair`` must quarantine together
        with a damaged document.
        """
        if not self._directory.is_dir():
            return []
        pattern = re.compile(
            re.escape(name)
            + r"(\.g[0-9a-f]{12})?"
            + re.escape(_COLUMNS_SUFFIX)
            + r"\Z"
        )
        return [
            sidecar.name
            for sidecar in sorted(
                self._directory.glob(f"{name}*{_COLUMNS_SUFFIX}")
            )
            if pattern.fullmatch(sidecar.name)
        ]

    # -- document access -----------------------------------------------------

    def read_document(self, name: str, path: Optional[Path] = None) -> Dict[str, Any]:
        """Parse a raw result document (no checksum verification)."""
        path = self.path_for(name) if path is None else path
        try:
            document = json.loads(path.read_bytes())
        except ValueError as exc:  # not JSON, or not UTF-8 at all
            raise ResultCorruptionError(
                f"stored result {name!r} is corrupt or truncated: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ResultCorruptionError(
                f"stored result {name!r} is not a result document"
            )
        return document

    def signatures(
        self, name: str, sidecar: Optional[str] = None
    ) -> Signatures:
        """Stat signatures of an artifact's document and of ``sidecar``.

        ``sidecar`` is the column sidecar file name a version's
        document references (:attr:`StoredVersion.sidecar`).  Every
        committed rewrite replaces the document (a fresh inode), and
        damage to the referenced sidecar moves its signature, so an
        unchanged pair means unchanged bytes -- the freshness check
        behind the digest memo and the hot-figure cache.
        """
        return (
            _stat_signature(self.path_for(name)),
            None
            if sidecar is None
            else _stat_signature(self._directory / sidecar),
        )

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop memoized digests (one artifact, or all of them).

        Stale entries are already harmless -- every cache hit is
        re-keyed against the current stat signature -- but the writer
        calls this after a save so the cache never outlives the data
        it described.
        """
        if name is None:
            self._digest_cache.clear()
        else:
            self._digest_cache.pop(name, None)

    def _read(self, name: str, verify: bool = True) -> Optional[StoredVersion]:
        """The one read of an artifact version; ``None`` if absent.

        Takes the document's stat signature, parses the document, maps
        the sidecar it references and (with ``verify``) checks the
        sidecar's array checksum, then checks the content checksum
        through the digest memo.  The returned payload is still in its
        encoded form.  Damage raises
        :class:`~repro.errors.ResultCorruptionError` carrying its fine
        class (``exc.damage``); a document in a format this reader does
        not know is ``torn-json`` too, since nothing in it can be
        trusted.

        Lockless reads race the writer's commits: damage seen while
        the document changed underneath the read is a rewrite in
        flight, so the read retries against the fresh document/sidecar
        pair.  Damage with a *stable* document signature raises.
        """
        path = self.path_for(name)
        attempts = 3
        for attempt in range(attempts):
            document_signature = _stat_signature(path)
            if document_signature is None:
                return None
            try:
                document = self.read_document(name, path)
                version = document.get("format_version")
                if version not in _SUPPORTED_VERSIONS:
                    raise ResultCorruptionError(
                        f"result {name!r} uses unsupported format {version}"
                    )
                payload = document.get("data")
                sidecar: Optional[str] = None
                sidecar_signature = None
                if version == _COLUMNAR_FORMAT_VERSION:
                    payload, sidecar, sidecar_signature = self._columns(
                        name, document, verify
                    )
                signatures = (document_signature, sidecar_signature)
                digest = self._digest(
                    name, document.get("checksum"), payload, signatures, verify
                )
            except ResultCorruptionError:
                changed = _stat_signature(path) != document_signature
                if changed and attempt + 1 < attempts:
                    continue
                raise
            return StoredVersion(
                signatures=signatures,
                sidecar=sidecar,
                digest=digest,
                metadata=_header(document),
                payload=payload,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def _columns(
        self, name: str, document: Dict[str, Any], verify: bool
    ) -> Tuple[Any, str, StatSignature]:
        """A version-3 document's payload rebuilt from its sidecar.

        Returns the version-2-equivalent encoded payload, the sidecar
        file name and its stat signature.  The sidecar is memory-mapped
        when it has the writer's exact shape, else read by ``np.load``;
        with ``verify`` its arrays must match their recorded checksum.
        """
        columns = document.get("columns")
        if not isinstance(columns, dict):
            raise ResultCorruptionError(
                f"stored result {name!r} is columnar but lists no column sidecar"
            )
        sidecar = str(columns.get("file", ""))
        path = self._directory / sidecar
        signature = _stat_signature(path)
        if signature is None:
            raise ResultCorruptionError(
                f"stored result {name!r} is missing its column sidecar "
                f"{sidecar!r}",
                damage="sidecar-missing",
            )
        count = columns.get("count")
        arrays = mmap_npz_columns(
            path, count if isinstance(count, int) else None
        )
        if arrays is None:
            # Fallback: let np.load produce the canonical corruption errors.
            import numpy as np

            try:
                with np.load(path) as archive:
                    arrays = {
                        field: archive[field] for field in _COLUMN_FIELDS
                    }
            except Exception as exc:
                raise ResultCorruptionError(
                    f"column sidecar of result {name!r} is corrupt: {exc}",
                    damage="sidecar-corrupt",
                ) from exc
        if verify:
            recorded = (columns.get("checksum") or {}).get("digest")
            actual = _columns_checksum(arrays)
            if recorded != actual:
                raise ChecksumMismatchError(
                    f"column sidecar of result {name!r} failed its integrity "
                    f"check: recorded digest {recorded!r}, recomputed {actual!r}",
                    damage="sidecar-mismatch",
                )
        try:
            payload = _restore_summaries(document.get("data"), arrays)
        except (IndexError, KeyError, TypeError) as exc:
            raise ChecksumMismatchError(
                f"stored result {name!r} references columns its sidecar "
                f"does not hold: {exc}"
            ) from exc
        return payload, sidecar, signature

    def _digest(
        self,
        name: str,
        checksum: Any,
        payload: Any,
        signatures: Signatures,
        verify: bool,
    ) -> str:
        """The content digest of one read's encoded payload.

        A digest memoized for the same signatures is reused.  Otherwise
        a document with a ``checksum`` record has it checked against
        the recomputed sha256 (``verify``) or copied unchecked; a
        legacy version-1 document, which has none, gets its digest
        computed.  Only computed digests are memoized.
        """
        legacy = not isinstance(checksum, dict)
        recorded = None if legacy else checksum.get("digest")
        cached = self._digest_cache.get(name)
        if (
            cached is not None
            and cached[0] == signatures
            and (legacy or recorded == cached[1])
        ):
            self.digest_reuses += 1
            return cached[1]
        if not legacy and not verify and isinstance(recorded, str):
            return recorded
        self.digest_recomputes += 1
        actual = content_checksum(payload)
        if not legacy and verify and recorded != actual:
            raise ChecksumMismatchError(
                f"stored result {name!r} failed its integrity check: "
                f"recorded digest {recorded!r}, recomputed {actual!r}"
            )
        self._digest_cache[name] = (signatures, actual)
        return actual

    def load(self, name: str, verify: bool = True) -> Any:
        """Reload a result's data payload (integrity-checked).

        The payload of :meth:`load_version`.
        """
        return self.load_version(name, verify=verify).payload

    def load_version(self, name: str, verify: bool = True) -> StoredVersion:
        """One artifact version -- signatures, digest, header and decoded
        payload -- from a single document read.

        Everything returned describes the same bytes, so a caller never
        pairs one version's data with another's notes.  Repeated loads
        of an unchanged artifact reuse the memoized digest instead of
        recomputing the content sha256, and a load racing a commit
        retries against the fresh version (see :meth:`_read`).
        """
        version = self._read(name, verify)
        if version is None:
            raise ExperimentError(f"no stored result named {name!r}")
        return version._replace(payload=_decode(version.payload))

    def metadata(self, name: str) -> Dict[str, Any]:
        """Reload a result's header (version, config, notes, quality)."""
        path = self.path_for(name)
        if not path.exists():
            raise ExperimentError(f"no stored result named {name!r}")
        return _header(self.read_document(name, path))

    def content_digest(self, name: str) -> str:
        """The artifact's content sha256 (the HTTP service's ETag key).

        The digest of one unverified read: the memoized digest of these
        bytes, else the checksum version-2/3 documents record at save
        time (nothing recomputed), else -- for legacy version-1
        documents -- computed over the canonical payload and memoized.
        Version-2 and version-3 encodings of the same data share one
        digest, so the ETag survives a ``simra-dram migrate``.
        """
        version = self._read(name, verify=False)
        if version is None:
            raise ExperimentError(f"no stored result named {name!r}")
        return version.digest

    # -- integrity classification --------------------------------------------

    def validate(self, name: str) -> str:
        """Fine-grained damage classification of one stored artifact.

        The verdict of one verifying read: the damage class it raised
        -- ``"torn-json"`` (truncated, non-JSON or unsupported
        document), ``"checksum-mismatch"`` (document bytes altered
        after the save), ``"sidecar-missing"`` / ``"sidecar-corrupt"``
        / ``"sidecar-mismatch"`` (columnar sidecar damage) -- or the
        benign ``"ok"`` / ``"legacy"`` (no checksum record) /
        ``"missing"``.  :meth:`verify`'s coarse statuses and
        ``simra-dram repair``'s findings are both derived from it.
        """
        try:
            version = self._read(name)
        except ResultCorruptionError as exc:
            return exc.damage
        if version is None:
            return "missing"
        return _status(version.metadata)

    def verify(self, name: Optional[str] = None) -> Union[str, Dict[str, Any]]:
        """Integrity status of one artifact, or a store-wide scan.

        With ``name``, returns the coarse status :meth:`validate` maps
        to: ``"ok"`` (checksum verified), ``"legacy"`` (version-1
        document with no checksum), ``"corrupt"`` (unparsable, or a
        columnar document whose sidecar is missing or unreadable),
        ``"mismatch"`` (parses, but the content -- document or sidecar
        arrays -- no longer matches its recorded digest), or
        ``"missing"``.

        Without ``name``, returns a store-wide report dict: per-name
        statuses under ``"artifacts"``, plus the debris a crashed
        writer leaves behind -- stale ``*.tmp`` files under
        ``"orphaned_tmp"`` and ``.columns.npz`` sidecars no document
        references under ``"unreferenced_sidecars"``.
        """
        if name is None:
            return {
                "artifacts": {n: self.verify(n) for n in self.names()},
                "orphaned_tmp": self.orphaned_tmp_files(),
                "unreferenced_sidecars": self.unreferenced_sidecars(),
            }
        return _COARSE_STATUS[self.validate(name)]

    # -- campaign checkpoint / journal (read side) -----------------------------

    def load_manifest(self) -> Optional[CampaignManifest]:
        """Reload the campaign checkpoint, or ``None`` if none exists."""
        path = self.manifest_path
        if not path.exists():
            return None
        document = self.read_document("campaign manifest", path)
        if document.get("format_version") not in _SUPPORTED_MANIFEST_VERSIONS:
            raise ExperimentError(
                "campaign manifest uses unsupported format "
                f"{document.get('format_version')}"
            )
        return CampaignManifest(
            planned=list(document.get("planned", [])),
            completed=list(document.get("completed", [])),
            fingerprint=document.get("fingerprint"),
            failures=dict(document.get("failures", {})),
            serials=list(document.get("serials", [])),
        )

    def journal_entries(self) -> List[Dict[str, Any]]:
        """All parsable journal entries, in append order.

        A torn final line (the writer died mid-append) is skipped
        rather than raised: the journal is advisory damage-tracking
        metadata, never the source of truth for result bits.
        """
        path = self.journal_path
        if not path.exists():
            return []
        entries = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
        return entries

    def lock_holder(self) -> Optional[int]:
        """Pid of the live writer holding the store lock, or ``None``.

        Purely observational: a reader never acquires, steals, or
        removes the lock.
        """
        try:
            holder = int(self.lock_path.read_text().strip() or "0")
        except (OSError, ValueError):
            return None
        return holder if _pid_alive(holder) else None

    def scan(self) -> StoreScan:
        """Names, per-artifact keys, manifest and journal in one pass.

        One ``os.scandir`` finds the files and stats only those a key
        covers: each artifact's document, canonical sidecar and parked
        sidecar generations (after a live columnar rewrite the document
        reads a generation, so damage to it must move the key), plus
        the manifest and journal.  The lockfile and ``*.tmp`` debris
        are never stat'ed.
        """
        entries: Dict[str, os.DirEntry] = {}
        try:
            with os.scandir(self._directory) as listing:
                for entry in listing:
                    if entry.name.endswith((".json", _COLUMNS_SUFFIX)) or (
                        entry.name == _JOURNAL_FILENAME
                    ):
                        entries[entry.name] = entry
        except (FileNotFoundError, NotADirectoryError):
            pass

        def signature(filename: str) -> Optional[StatSignature]:
            entry = entries.get(filename)
            if entry is None:
                return None
            try:
                stat = entry.stat()
            except OSError:
                return None
            return (stat.st_mtime_ns, stat.st_size, stat.st_ino)

        names = sorted(
            filename[: -len(".json")]
            for filename in entries
            if filename.endswith(".json")
            and filename != _MANIFEST_FILENAME
            and not filename.startswith(".")
        )
        generations: Dict[str, List[str]] = {}
        for filename in entries:
            parked = _GENERATION_SIDECAR.match(filename)
            if parked is not None:
                generations.setdefault(parked.group(1), []).append(filename)
        return StoreScan(
            artifacts={
                name: (
                    signature(f"{name}.json"),
                    signature(f"{name}{_COLUMNS_SUFFIX}"),
                    tuple(
                        (filename, signature(filename))
                        for filename in sorted(generations.get(name, ()))
                    ),
                )
                for name in names
            },
            manifest=signature(_MANIFEST_FILENAME),
            journal=signature(_JOURNAL_FILENAME),
        )

    def state_token(self) -> str:
        """A digest of the store's observable state, for list ETags.

        The hash of one :meth:`scan`: every artifact's key plus the
        manifest and journal signatures, so any committed write (or
        repair, or damage to a live sidecar) changes the token -- the
        coarse invalidation signal behind the list ETags and the
        ``/figures`` body memo, whose rows are keyed by the same scan's
        per-artifact keys.
        """
        return self.scan().token
