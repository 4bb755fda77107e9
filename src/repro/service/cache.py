"""In-process hot-figure cache for the result read path.

Decoded figure payloads are expensive relative to a ``stat`` call
(JSON parse, checksum, summary reconstruction), and the figures
millions of readers want are few: exactly the shape an LRU of
immutable versions serves well.  :class:`HotFigureCache` holds one
:class:`FigureEntry` per figure, built from **one** document read
(:meth:`~repro.characterization.reader.ResultReader.load_version`), so
the entry's digest, header and payload always describe the same
bytes.  Entries are keyed by the artifact's ``(document, sidecar)``
stat signatures:

- a **hit** costs two ``stat`` calls and no hashing, parsing, or
  verification;
- any committed rewrite replaces the document (a fresh inode), the
  signatures differ, and the stale entry is rebuilt -- the stat check
  *is* the freshness check, there is no timer to race.  That includes
  rewrites that keep the content digest (a ``simra-dram migrate``, a
  new ``notes``): the rebuilt entry carries the same ETag, so clients'
  revalidations still answer ``304``.

An entry also memoizes what the service derives from it: the encoded
``/figures/{name}`` body (rendered on first use) and up to
:data:`CI_MEMO_LIMIT` ``/ci`` answers keyed by their query knobs.  A
new version is a new entry, so neither memo can outlive its data.

The same instance backs the CLI and the HTTP service, so a service
colocated with analytics tooling shares one working set.

The cache is thread-safe: the server offloads store reads to a small
thread pool, so ``get`` races itself.  A lock guards the LRU
bookkeeping; the miss-path load runs *outside* it (a slow disk read
must not serialize every other reader), so two racing misses may both
load -- the last insert wins, and a loser that carried an older
version fails the next signature check and is rebuilt.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional

from ..characterization.reader import ResultReader, Signatures

CI_MEMO_LIMIT = 32
"""Most ``/ci`` answers one entry keeps; the least recently used
query is dropped first."""


@dataclass(frozen=True, eq=False)
class FigureEntry:
    """One stored figure version, as a single document read saw it."""

    name: str
    signatures: Signatures
    """``(document, sidecar)`` stat signatures the entry is keyed by."""
    digest: str
    """Content sha256 (the ETag's key; survives ``migrate``)."""
    metadata: Dict[str, Any]
    """Header fields of the same document read (notes, config, ...)."""
    payload: Any
    """Decoded data payload; shared by every reader, never mutated."""
    _body: Optional[bytes] = field(default=None, init=False, repr=False)
    _ci: "OrderedDict[Hashable, bytes]" = field(
        default_factory=OrderedDict, init=False, repr=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    @property
    def etag(self) -> str:
        """The strong ETag of this version's ``/figures/{name}``."""
        return f'"sha256:{self.digest}"'

    def body(self, render: Callable[["FigureEntry"], bytes]) -> bytes:
        """The encoded 200 body, rendered on first use only.

        Racing first uses may both render; both produce the same bytes.
        """
        if self._body is None:
            object.__setattr__(self, "_body", render(self))
        return self._body

    def ci(self, key: Hashable, compute: Callable[[], bytes]) -> bytes:
        """A memoized ``/ci`` answer for ``key`` (the query knobs).

        ``compute`` runs unlocked on a miss; its exceptions propagate
        and nothing is stored.  At most :data:`CI_MEMO_LIMIT` answers
        stay resident.
        """
        with self._lock:
            answer = self._ci.get(key)
            if answer is not None:
                self._ci.move_to_end(key)
                return answer
        answer = compute()
        with self._lock:
            self._ci[key] = answer
            self._ci.move_to_end(key)
            while len(self._ci) > CI_MEMO_LIMIT:
                self._ci.popitem(last=False)
        return answer


class HotFigureCache:
    """LRU of immutable figure versions keyed by stat signature."""

    def __init__(self, reader: ResultReader, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self._reader = reader
        self._capacity = int(capacity)
        self._entries: "OrderedDict[str, FigureEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def reader(self) -> ResultReader:
        """The read path this cache fronts."""
        return self._reader

    @property
    def capacity(self) -> int:
        """Maximum number of resident figures."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str) -> FigureEntry:
        """The current version of one stored figure.

        A hit is two ``stat`` calls.  A miss runs one verified
        ``reader.load_version``; corruption and missing-artifact
        errors propagate to the caller untouched -- a damaged artifact
        is never cached.
        """
        signatures = self._reader.signatures(name)
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and entry.signatures == signatures:
                self.hits += 1
                self._entries.move_to_end(name)
                return entry
            if entry is not None:
                self.invalidations += 1
                self._entries.pop(name, None)
            self.misses += 1
        # The load runs unlocked: a slow read must not serialize every
        # other reader.  Racing misses both load; last insert wins.
        entry = FigureEntry(name, **self._reader.load_version(name)._asdict())
        with self._lock:
            self._entries[name] = entry
            self._entries.move_to_end(name)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def clear(self) -> None:
        """Drop every resident entry."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Counters for ``/figures`` headers and the benchmark report."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
