"""Route handling for the result query service (transport-agnostic).

:class:`ResultService` maps HTTP-shaped requests onto the storage
read path and the PR 5 analytics, returning plain
:class:`ServiceResponse` records the asyncio transport (or a test)
serializes.  Keeping it synchronous and transport-free means the same
handler is exercised by unit tests, the stdlib HTTP server, and the
load benchmark without a socket in sight.

Endpoints (all ``GET``/``HEAD``):

- ``/`` -- endpoint index and store location;
- ``/figures`` -- stored figure inventory (name, format, ETag);
- ``/figures/{name}`` -- one figure's metadata + decoded payload;
- ``/fleet/summary`` -- campaign manifest + per-figure summary
  statistics across the module fleet;
- ``/ci/{name}`` -- seeded percentile-bootstrap CI over the figure's
  per-group summary means (``?confidence=&resamples=&seed=``);
- ``/audit/status`` -- last stored ``audit-report``, lock holder, and
  journal depth;
- ``/healthz`` / ``/readyz`` / ``/metrics`` -- liveness, readiness
  (store reachable, not draining, store-read breaker closed), and the
  resilience counters.  These are *control* endpoints: the transport
  answers them inline on the event loop -- never admitted against the
  request budget, never offloaded to the read pool -- so probes keep
  working while the store path is saturated or broken.

Conditional requests: every 200 carries a strong ``ETag`` derived
from the store's content digests (``"sha256:<digest>"`` for one
figure -- stable across a v2->v3 ``migrate`` because both encodings
share a digest -- and a state-token digest for list endpoints).  Each
route resolves to its ETag plus a body builder, and ``handle``
compares ``If-None-Match`` before building anything, so a ``304``
encodes nothing.

Saved work: a figure is served from one immutable
:class:`~repro.service.cache.FigureEntry` per stored version, whose
ETag, header and payload come from a single document read (a commit
between two reads can no longer pair one version's data with another's
notes).  The entry memoizes its encoded ``/figures/{name}`` body and
its ``/ci`` answers.  A ``/figures`` row is a view of the same entry
(or of the damage class its read raised), so a row, its figure body
and its ``/ci`` answers share one read per version.  The ``/figures``
body is memoized by the store scan its state token hashes, and its
rows per artifact, each keyed by that artifact's stat signatures, so a
commit re-reads only the rows it touched.

Error mapping: an absent artifact is ``404``; a stored artifact that
fails integrity (:class:`~repro.errors.ResultCorruptionError`,
including checksum mismatches) is ``409 Conflict`` -- the data exists
but cannot be trusted; a store locked against the operation
(:class:`~repro.errors.StoreLockedError`) is ``503`` with
``Retry-After``; a *transient* read fault (``OSError`` out of the
filesystem) is also ``503 + Retry-After`` -- retryable, unlike the
409s; malformed query parameters are ``400``.

Figure reads are guarded by the store-read circuit breaker in the
bound :class:`~repro.service.resilience.ResilienceState`: repeated
read faults trip it, an open breaker turns figure reads into fast
``503``s (and flips ``/readyz``) until a half-open probe read
succeeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from ..characterization.reader import (
    _COARSE_STATUS,
    ArtifactKey,
    ResultReader,
    StoreScan,
    _encode,
    _status,
)
from ..characterization.stats import (
    DistributionSummary,
    bootstrap_mean_ci,
    summarize,
)
from ..errors import (
    ExperimentError,
    ResultCorruptionError,
    StoreLockedError,
)
from .cache import FigureEntry, HotFigureCache
from .resilience import ResilienceState

_JSON_TYPE = "application/json; charset=utf-8"

CONTROL_PATHS = ("/healthz", "/readyz", "/metrics")
"""Endpoints the transport must answer inline (no admission, no
offload): degradation signals have to work while the store path
doesn't."""


@dataclass
class ServiceResponse:
    """One materialized HTTP response (status, headers, JSON body)."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def reason(self) -> str:
        return {
            200: "OK",
            304: "Not Modified",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            500: "Internal Server Error",
            503: "Service Unavailable",
            504: "Gateway Timeout",
        }.get(self.status, "Unknown")


class _HttpError(Exception):
    """Internal routing error carrying an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


Route = Tuple[Optional[str], Callable[[], bytes]]
"""What a route resolves to: its ETag (known before any body exists)
and the function that builds the 200 body if no 304 answers first."""


def _dumps(payload: Any) -> bytes:
    """The JSON wire form of every body."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _json_response(
    status: int,
    payload: Any,
    etag: Optional[str] = None,
    extra_headers: Optional[Dict[str, str]] = None,
) -> ServiceResponse:
    body = _dumps(payload)
    headers = {"Content-Type": _JSON_TYPE}
    if etag is not None:
        headers["ETag"] = etag
    if extra_headers:
        headers.update(extra_headers)
    return ServiceResponse(status=status, headers=headers, body=body)


def _etag_matches(header_value: str, etag: str) -> bool:
    """Whether an ``If-None-Match`` header revalidates this ETag."""
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        if candidate == "*" or candidate == etag:
            return True
    return False


def _summary_means(payload: Any) -> List[float]:
    """Every summary's mean in a decoded payload, in document order."""
    means: List[float] = []

    def walk(value: Any) -> None:
        if isinstance(value, DistributionSummary):
            means.append(float(value.mean))
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    walk(payload)
    return means


def _render_figure(entry: FigureEntry) -> bytes:
    """The ``/figures/{name}`` body of one version (memoized per entry)."""
    meta = entry.metadata
    return _dumps({
        "name": entry.name,
        "etag": entry.etag,
        "format_version": meta.get("format_version"),
        "library_version": meta.get("library_version"),
        "config": meta.get("config"),
        "notes": meta.get("notes"),
        "quality": meta.get("quality"),
        # Decoded payloads carry DistributionSummary objects;
        # re-encode to the marker-dict JSON form clients parse.
        "data": _encode(entry.payload),
    })


class ResultService:
    """The query service's routing and representation layer."""

    def __init__(
        self,
        reader: ResultReader,
        cache: Optional[HotFigureCache] = None,
        resilience: Optional[ResilienceState] = None,
    ):
        self._reader = reader
        self._cache = cache if cache is not None else HotFigureCache(reader)
        self._resilience = (
            resilience if resilience is not None else ResilienceState()
        )
        self.requests = 0
        self.not_modified = 0
        # (store scan, ETag, encoded /figures body) of the last settled
        # listing, and each artifact's (key, row) it was built from.
        self._listing: Optional[Tuple[StoreScan, str, bytes]] = None
        self._rows: Dict[str, Tuple[ArtifactKey, Dict[str, Any]]] = {}

    @property
    def reader(self) -> ResultReader:
        """The lock-free read path this service fronts."""
        return self._reader

    @property
    def cache(self) -> HotFigureCache:
        """The digest-keyed hot-figure cache."""
        return self._cache

    @property
    def resilience(self) -> ResilienceState:
        """The resilience state behind /readyz, /metrics, and the
        store-read breaker."""
        return self._resilience

    def bind_resilience(self, state: ResilienceState) -> None:
        """Adopt the transport's resilience state (budgets + stats).

        The server calls this on construction so the breaker the
        routing layer feeds is the one whose trips the transport's
        ``/metrics`` and ``/readyz`` report.  A service used without a
        server keeps its own default state, so the control endpoints
        and breaker guard work in unit tests and the benchmark too.
        """
        self._resilience = state

    # -- request entry point -------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        """Route one request; never raises.

        ``headers`` keys are matched case-insensitively.  ``HEAD`` is
        handled by the transport (same headers, no body), so it routes
        like ``GET`` here.
        """
        self.requests += 1
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        if method.upper() not in ("GET", "HEAD"):
            return _json_response(
                405,
                {"error": f"method {method} not allowed"},
                extra_headers={"Allow": "GET, HEAD"},
            )
        split = urlsplit(target)
        path = unquote(split.path)
        query = parse_qs(split.query)
        if path in CONTROL_PATHS:
            return self._control(path)
        try:
            etag, build = self._route(path, query)
            if etag is not None:
                conditional = headers.get("if-none-match")
                if conditional and _etag_matches(conditional, etag):
                    self.not_modified += 1
                    return ServiceResponse(status=304, headers={"ETag": etag})
            body = build()
        except _HttpError as exc:
            extra = (
                {"Retry-After": "1"} if exc.status == 503 else None
            )
            return _json_response(
                exc.status, {"error": str(exc)}, extra_headers=extra
            )
        except ResultCorruptionError as exc:
            return _json_response(409, {"error": str(exc)})
        except StoreLockedError as exc:
            return _json_response(
                503, {"error": str(exc)}, extra_headers={"Retry-After": "1"}
            )
        except OSError as exc:
            # A transient filesystem fault (EIO, chaos injection): the
            # client should retry -- unlike a 409, nothing is known to
            # be damaged.
            self._resilience.stats.count("read_faults")
            return _json_response(
                503,
                {"error": f"transient store read fault: {exc}"},
                extra_headers={"Retry-After": "1"},
            )
        except ExperimentError as exc:
            return _json_response(500, {"error": str(exc)})
        response_headers = {"Content-Type": _JSON_TYPE}
        if etag is not None:
            response_headers["ETag"] = etag
        return ServiceResponse(status=200, headers=response_headers, body=body)

    # -- routing ---------------------------------------------------------------

    def _route(self, path: str, query: Dict[str, List[str]]) -> Route:
        if path in ("", "/"):
            return None, lambda: _dumps(self._index())
        if path == "/figures":
            return self._figures()
        if path.startswith("/figures/"):
            return self._figure(path[len("/figures/"):])
        if path == "/fleet/summary":
            return self._fleet_summary()
        if path.startswith("/ci/"):
            return self._ci(path[len("/ci/"):], query)
        if path == "/audit/status":
            return self._audit_status()
        raise _HttpError(404, f"no such endpoint {path!r}")

    def _index(self) -> Dict[str, Any]:
        return {
            "service": "simra-dram results",
            "store": str(self._reader.directory),
            "endpoints": [
                "/figures",
                "/figures/{name}",
                "/fleet/summary",
                "/ci/{name}",
                "/audit/status",
                "/healthz",
                "/readyz",
                "/metrics",
            ],
            "cache": self._cache.stats(),
        }

    # -- degradation signals ---------------------------------------------------

    def _control(self, path: str) -> ServiceResponse:
        """``/healthz`` / ``/readyz`` / ``/metrics`` (no ETags: live
        signals, not cacheable representations)."""
        if path == "/healthz":
            # Liveness: the process answers, nothing more is claimed.
            return _json_response(200, {"status": "alive"})
        if path == "/readyz":
            ready, checks = self._resilience.readiness(self._reader)
            status = 200 if ready else 503
            extra = None if ready else {"Retry-After": "1"}
            return _json_response(
                status,
                {"ready": ready, "checks": checks},
                extra_headers=extra,
            )
        return _json_response(200, self._metrics())

    def _metrics(self) -> Dict[str, Any]:
        """The counters behind ``/metrics`` (plain JSON, no scraping
        format -- consistent with the rest of the JSON API)."""
        state = self._resilience
        return {
            "server": state.stats.as_dict(),
            "admission": state.admission.as_dict(),
            "breaker": state.breaker.as_dict(),
            "draining": state.draining,
            "service": {
                "requests": self.requests,
                "not_modified": self.not_modified,
            },
            "cache": self._cache.stats(),
        }

    def _figure_name(self, raw: str) -> str:
        name = raw.strip("/")
        if not name or "/" in name or name.startswith("."):
            raise _HttpError(404, f"invalid figure name {raw!r}")
        return name

    def _load(self, name: str) -> FigureEntry:
        """The current version of one figure, with HTTP error mapping.

        Guarded by the store-read circuit breaker: an open breaker
        short-circuits to ``503`` without touching the disk; read
        faults (I/O errors, integrity failures) feed it, successes
        close it again from half-open.  A plain 404 is not a fault.
        """
        breaker = self._resilience.breaker
        if not breaker.allows():
            raise _HttpError(
                503,
                "store-read circuit breaker is open after repeated read "
                "faults; retry shortly",
            )
        if not self._reader.has(name):
            raise _HttpError(404, f"no stored result named {name!r}")
        try:
            entry = self._cache.get(name)
        except (ResultCorruptionError, OSError):
            breaker.record_failure()
            raise
        breaker.record_success()
        return entry

    def _state_etag(self) -> str:
        """The list ETag of the store as it is now."""
        return f'"state:{self._reader.state_token()}"'

    def _figures(self) -> Route:
        scan = self._reader.scan()
        listing = self._listing
        if listing is not None and listing[0] == scan:
            # An unchanged store: no token to hash, no body to build.
            return listing[1], lambda: listing[2]
        etag = f'"state:{scan.token}"'

        def build() -> bytes:
            inventory, settled = self._inventory(scan)
            body = _dumps(inventory)
            # Memoize only a listing no commit overlapped: one that did
            # may mix versions, and must not outlive this response.
            if settled:
                self._listing = (scan, etag, body)
            return body

        return etag, build

    def _inventory(self, scan: StoreScan) -> Tuple[Dict[str, Any], bool]:
        """The ``/figures`` listing of ``scan``, and whether it is settled.

        Rows are memoized per artifact, keyed by that artifact's slice
        of the scan (:data:`~repro.characterization.reader.ArtifactKey`):
        a row whose key is unchanged is reused as built, so a commit
        re-reads only the rows it touched, and rows of deleted
        artifacts are dropped.  A row is kept only if a second scan
        after the build still shows the key the build started from: a
        commit that overlapped the build may have mixed two versions,
        and on a coarse file clock a recycled inode could later show
        the starting key again.  The listing is settled when every row
        in it was kept, so it is exactly the listing of ``scan``'s state.
        """
        held = self._rows
        rows: Dict[str, Tuple[ArtifactKey, Dict[str, Any]]] = {}
        built: List[str] = []
        for name, key in scan.artifacts.items():
            row = held.get(name)
            if row is None or row[0] != key:
                row = (key, self._row(name))
                built.append(name)
            rows[name] = row
        listing = [row for _, row in rows.values()]
        if built:
            after = self._reader.scan().artifacts
            for name in built:
                if after.get(name) != rows[name][0]:
                    del rows[name]
        # Racing listings may overwrite each other's rows: every row
        # held is right for its own key, so a lost one is only rebuilt.
        self._rows = rows
        settled = len(rows) == len(listing)
        return {"figures": listing, "count": len(listing)}, settled

    def _row(self, name: str) -> Dict[str, Any]:
        """One artifact's ``/figures`` row: a view of its current entry.

        The status is the coarse integrity verdict of the entry's read
        (``"ok"`` / ``"legacy"``) or of the damage it raised
        (``"corrupt"`` / ``"mismatch"``); damaged entries stay listed
        -- hiding them would make damage look like deletion -- but
        carry no ETag or metadata.
        """
        try:
            entry = self._cache.get(name)
        except ResultCorruptionError as exc:
            return {"name": name, "status": _COARSE_STATUS[exc.damage]}
        except ExperimentError:  # deleted since the scan
            return {"name": name, "status": "missing"}
        return {
            "name": name,
            "status": _status(entry.metadata),
            "format_version": entry.metadata.get("format_version"),
            "notes": entry.metadata.get("notes"),
            "etag": entry.etag,
        }

    def _figure(self, raw: str) -> Route:
        entry = self._load(self._figure_name(raw))
        return entry.etag, lambda: entry.body(_render_figure)

    def _fleet_summary(self) -> Route:
        etag = self._state_etag()

        def build() -> bytes:
            manifest = self._reader.load_manifest()
            figures: Dict[str, Any] = {}
            for name in self._reader.names():
                try:
                    means = _summary_means(self._load(name).payload)
                except (_HttpError, ResultCorruptionError):
                    continue
                if not means:
                    continue
                figures[name] = {
                    "summaries": len(means),
                    "across_groups": _encode(summarize(means)),
                }
            return _dumps({
                "figures": figures,
                "manifest": (
                    None
                    if manifest is None
                    else {
                        "planned": list(manifest.planned),
                        "completed": list(manifest.completed),
                        "failures": sorted(manifest.failures),
                        "modules": len(manifest.serials),
                    }
                ),
            })

        return etag, build

    def _ci(self, raw: str, query: Dict[str, List[str]]) -> Route:
        name = self._figure_name(raw)

        def _param(key: str, default: float, cast) -> Any:
            values = query.get(key)
            if not values:
                return default
            try:
                return cast(values[-1])
            except (TypeError, ValueError):
                raise _HttpError(
                    400, f"query parameter {key}={values[-1]!r} is not a "
                    f"{cast.__name__}"
                )

        confidence = _param("confidence", 0.95, float)
        resamples = _param("resamples", 2000, int)
        seed = _param("seed", 0, int)
        entry = self._load(name)

        def compute() -> bytes:
            means = _summary_means(entry.payload)
            if not means:
                raise _HttpError(
                    400,
                    f"stored result {name!r} carries no distribution "
                    "summaries to bootstrap",
                )
            try:
                ci = bootstrap_mean_ci(
                    means, confidence=confidence, resamples=resamples,
                    seed=seed,
                )
            except ExperimentError as exc:
                raise _HttpError(400, str(exc))
            return _dumps({
                "name": name,
                "groups": len(means),
                "confidence": ci.confidence,
                "resamples": ci.resamples,
                "seed": seed,
                "mean": ci.mean,
                "low": ci.low,
                "high": ci.high,
                "halfwidth": ci.halfwidth,
            })

        # The CI depends on the query knobs as well as the content, so
        # its ETag extends the artifact digest with them.
        ci_etag = f'"sha256:{entry.digest}:ci:{confidence}:{resamples}:{seed}"'
        key = (confidence, resamples, seed)
        return ci_etag, lambda: entry.ci(key, compute)

    def _audit_status(self) -> Route:
        etag = self._state_etag()

        def build() -> bytes:
            report: Optional[Any] = None
            status = "never-audited"
            if self._reader.has("audit-report"):
                report = _encode(self._load("audit-report").payload)
                status = "pass" if report.get("passed") else "fail"
            manifest = self._reader.load_manifest()
            return _dumps({
                "status": status,
                "report": report,
                "lock_holder": self._reader.lock_holder(),
                "journal_entries": len(self._reader.journal_entries()),
                "completed": (
                    len(manifest.completed) if manifest is not None else 0
                ),
            })

        return etag, build
