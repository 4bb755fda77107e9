"""Seeded, deterministic circuit breakers for fleet components.

A :class:`CircuitBreaker` guards one module/bench: consecutive
failures trip it ``CLOSED -> OPEN``, a cooldown measured in *probe
opportunities* (not wall clock, so whole campaigns stay deterministic)
moves it ``OPEN -> HALF_OPEN``, and a successful probe trial closes it
again.  A breaker that keeps re-tripping can latch permanently via
``max_trips``, which is how a persistently dead bench ends up
quarantined for the rest of a campaign instead of burning the retry
budget on every figure.

The optional cooldown jitter is drawn from the repository's stable
hash (:func:`repro.rng.generator`), keyed by the breaker's name and
trip count, so two runs of the same campaign trip, cool down, and
probe on exactly the same schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..errors import ConfigurationError


class BreakerState(Enum):
    """Where in the closed -> open -> half-open cycle a breaker sits."""

    CLOSED = "closed"
    """Healthy: operations flow through, failures are counted."""
    OPEN = "open"
    """Tripped: the guarded module is quarantined until the cooldown
    (counted in :meth:`CircuitBreaker.allows` consultations) expires."""
    HALF_OPEN = "half-open"
    """Cooling down finished: probe trials are admitted; a success
    closes the breaker, a failure re-trips it immediately."""


@dataclass(frozen=True)
class BreakerPolicy:
    """How quickly a breaker trips, cools down, and closes again."""

    failure_threshold: int = 3
    """Consecutive failures (while closed) that trip the breaker."""
    cooldown_probes: int = 2
    """Probe opportunities skipped while open before going half-open."""
    cooldown_jitter: int = 0
    """Up to this many *extra* skipped opportunities, drawn seeded per
    trip so repeated trips don't probe in lockstep across a fleet."""
    half_open_successes: int = 1
    """Successful probe trials needed to close from half-open."""
    max_trips: Optional[int] = None
    """Trips after which the breaker latches open permanently
    (``None`` = keep probing forever)."""
    seed: int = 7
    """Seed for the cooldown-jitter draws."""

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if self.cooldown_probes < 0 or self.cooldown_jitter < 0:
            raise ConfigurationError("cooldown knobs must be non-negative")
        if self.half_open_successes < 1:
            raise ConfigurationError("half_open_successes must be at least 1")
        if self.max_trips is not None and self.max_trips < 1:
            raise ConfigurationError("max_trips must be at least 1 (or None)")


class CircuitBreaker:
    """One guarded component's closed/open/half-open state machine."""

    def __init__(self, name: str, policy: Optional[BreakerPolicy] = None):
        self._name = name
        self._policy = policy if policy is not None else BreakerPolicy()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._half_open_successes = 0
        self._cooldown_remaining = 0
        self._trips = 0
        self._latched = False
        self.failures = 0
        self.successes = 0

    @property
    def name(self) -> str:
        """Which component this breaker guards."""
        return self._name

    @property
    def policy(self) -> BreakerPolicy:
        """The trip/cooldown policy in force."""
        return self._policy

    @property
    def state(self) -> BreakerState:
        """The current breaker state."""
        return self._state

    @property
    def trips(self) -> int:
        """How many times this breaker has tripped open."""
        return self._trips

    @property
    def latched(self) -> bool:
        """Whether the breaker is permanently open (``max_trips`` hit)."""
        return self._latched

    def allows(self) -> bool:
        """Whether the guarded component may be used right now.

        Each consultation while open counts toward the cooldown, so the
        half-open probe schedule is a deterministic function of how
        often the fleet supervisor asks -- no wall clocks involved.
        """
        if self._latched:
            return False
        if self._state is BreakerState.OPEN:
            if self._cooldown_remaining > 0:
                self._cooldown_remaining -= 1
                return False
            self._state = BreakerState.HALF_OPEN
            self._half_open_successes = 0
        return True

    def record_success(self) -> None:
        """Feed one successful operation/probe into the state machine."""
        self.successes += 1
        if self._state is BreakerState.CLOSED:
            self._consecutive_failures = 0
        elif self._state is BreakerState.HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self._policy.half_open_successes:
                self._state = BreakerState.CLOSED
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Feed one failed operation/probe into the state machine."""
        self.failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self.trip()
        elif self._state is BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self._policy.failure_threshold:
                self.trip()

    def trip(self) -> None:
        """Force the breaker open (e.g. on a *persistent* bench error)."""
        if self._latched:
            return
        self._trips += 1
        self._state = BreakerState.OPEN
        self._consecutive_failures = 0
        self._cooldown_remaining = self._policy.cooldown_probes + self._jitter()
        if (
            self._policy.max_trips is not None
            and self._trips >= self._policy.max_trips
        ):
            self._latched = True

    def _jitter(self) -> int:
        if self._policy.cooldown_jitter <= 0:
            return 0
        # Only the jitter needs numpy; the result service's breaker
        # runs without it.
        from .. import rng

        draw = rng.generator(
            "breaker", self._policy.seed, self._name, self._trips
        )
        return int(draw.integers(0, self._policy.cooldown_jitter + 1))

    def as_dict(self) -> dict:
        """Plain-JSON snapshot for health annotations."""
        return {
            "state": self._state.value,
            "trips": self._trips,
            "latched": self._latched,
            "failures": self.failures,
            "successes": self.successes,
        }
