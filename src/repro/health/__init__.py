"""Fleet health supervision for long characterization campaigns.

A real 18-module rig degrades piecewise: one bench's FPGA link dies,
one worker process crashes, one stored file rots.  The paper's
campaigns survive by quarantining what is broken and continuing on
what is not -- this package is that supervision layer:

- :class:`CircuitBreaker` / :class:`BreakerPolicy` -- seeded,
  deterministic closed / open / half-open state machine per module
  (:mod:`repro.health.breaker`).
- :class:`HealthTracker` -- per-module observation counters feeding
  the breakers; quarantine and coverage views the campaign consumes
  (:mod:`repro.health.tracker`).
- :func:`audit_store` / :class:`AuditReport` -- checksum verification
  plus serial-recompute cross-checks over a stored campaign
  (:mod:`repro.health.audit`).

The campaign layer threads this through execution: probes feed the
tracker, tripped modules leave the scope, and every stored result is
annotated with the fleet it was actually measured on.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "AuditFinding": ".audit",
    "AuditReport": ".audit",
    "audit_store": ".audit",
    "scope_from_manifest": ".audit",
    "BreakerPolicy": ".breaker",
    "BreakerState": ".breaker",
    "CircuitBreaker": ".breaker",
    "HealthTracker": ".tracker",
    "ModuleHealth": ".tracker",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
