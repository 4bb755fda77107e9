"""HTTP read service over a stored characterization campaign.

The service tier sits on the storage layer's read path
(:class:`~repro.characterization.reader.ResultReader`) and never
writes: it serves stored figures, fleet summaries, bootstrap
confidence intervals, and audit status over a small stdlib-only
asyncio HTTP API (``simra-dram serve``), with ETags keyed off the
store's content digests and an in-process hot-figure cache of
immutable figure versions (:class:`FigureEntry`) shared with the CLI.
"""

from .cache import FigureEntry, HotFigureCache
from .resilience import (
    AdmissionController,
    ResiliencePolicy,
    ResilienceState,
    ServerStats,
    StoreReadBreaker,
)
from .api import ResultService, ServiceResponse
from .http import ResultServer

__all__ = [
    "FigureEntry",
    "HotFigureCache",
    "AdmissionController",
    "ResiliencePolicy",
    "ResilienceState",
    "ServerStats",
    "StoreReadBreaker",
    "ResultService",
    "ServiceResponse",
    "ResultServer",
]
