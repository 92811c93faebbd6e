"""Per-tenant circuit breaker: CLOSED → OPEN → HALF_OPEN → CLOSED.

One breaker per grammar fingerprint (tenant).  ``K`` consecutive
selection failures open the circuit; while open, the front door
fast-fails the tenant's requests with a typed
:class:`~repro.errors.CircuitOpenError` instead of burning worker time
on a grammar that is currently poisoned.  After a cooldown the breaker
admits a single half-open *probe* batch: success closes the circuit,
failure reopens it and restarts the cooldown, and a probe that ends
with neither (its deadline passed, its worker died) frees the slot for
the next request.

Transitions are recorded as ``(tenant, from_state, to_state)`` tuples,
the latest :data:`TRANSITION_LOG` of them, so
:class:`~repro.service.frontdoor.SelectionService` can surface the
open → half-open → closed recovery arc in ``stats()`` without a log
that grows for the service's lifetime.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

__all__ = ["CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
#: Transitions each breaker keeps (the latest ones).
TRANSITION_LOG = 32


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker for one tenant.

    Attributes:
        tenant: Tenant key (grammar fingerprint or logical name).
        failure_threshold: Consecutive failures that open the circuit.
        cooldown_s: Seconds the circuit stays open before admitting a
            half-open probe.
        state: Current state (``closed`` / ``open`` / ``half_open``).
        transitions: Chronological ``(tenant, from, to)`` log of the
            latest :data:`TRANSITION_LOG` state changes.

    Not thread-safe on its own; the front door serializes access from
    its event thread.
    """

    tenant: str
    failure_threshold: int
    cooldown_s: float
    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at_ns: int = 0
    probe_in_flight: bool = False
    transitions: deque[tuple[str, str, str]] = field(
        default_factory=lambda: deque(maxlen=TRANSITION_LOG)
    )

    def _move(self, to_state: str) -> None:
        if to_state != self.state:
            self.transitions.append((self.tenant, self.state, to_state))
            self.state = to_state

    def allows(self, now_ns: int | None = None) -> bool:
        """May a request for this tenant be dispatched right now?

        While open, flips to half-open once the cooldown has elapsed
        and admits exactly one probe; further requests fast-fail until
        the probe resolves.
        """
        if self.state == CLOSED:
            return True
        now = time.monotonic_ns() if now_ns is None else now_ns
        if self.state == OPEN:
            if now - self.opened_at_ns < int(self.cooldown_s * 1e9):
                return False
            self._move(HALF_OPEN)
            self.probe_in_flight = False
        # HALF_OPEN: admit a single probe at a time.
        return not self.probe_in_flight

    def mark_dispatched(self) -> None:
        """Record that a half-open probe batch is now in flight."""
        if self.state == HALF_OPEN:
            self.probe_in_flight = True

    def release_probe(self) -> None:
        """A tenant batch ended with no verdict (a deadline, a dead
        worker): free the half-open probe slot for the next request."""
        self.probe_in_flight = False

    def record_success(self) -> None:
        """A tenant batch succeeded: close the circuit."""
        self.consecutive_failures = 0
        self.probe_in_flight = False
        if self.state != CLOSED:
            self._move(CLOSED)

    def record_failure(self, now_ns: int | None = None) -> None:
        """A tenant batch failed: count toward (re)opening the circuit."""
        now = time.monotonic_ns() if now_ns is None else now_ns
        self.consecutive_failures += 1
        self.probe_in_flight = False
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self.opened_at_ns = now
            self._move(OPEN)
        elif self.state == CLOSED and self.consecutive_failures >= self.failure_threshold:
            self.opened_at_ns = now
            self._move(OPEN)

    def snapshot(self) -> dict[str, object]:
        """JSON-ready view for ``ServiceStats``."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "transitions": [list(t) for t in self.transitions],
        }
