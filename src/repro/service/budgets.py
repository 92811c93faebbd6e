"""Request budgets: deadlines threaded through the selection hot loops.

:class:`RequestBudget` is a *per-request* wall-clock budget: it pins a
start instant and exposes the absolute monotonic deadline.  A cold
tenant needs no build budget of its own: its selector labels on demand,
so the first request's state construction runs inside the same label
walk, under the same deadline, as every later request's lookups.

The cooperative cancellation side lives in the engines: when a budget
with a deadline is passed to ``Selector.select_many(budget=...)``, the
label walk and the emission engine check the absolute deadline every
:data:`~repro.selection.resilience.DEADLINE_CHECK_EVERY` steps
(re-exported here) and raise
:class:`~repro.errors.DeadlineExceededError`.  The checks are guarded
by ``deadline is not None`` so the unbudgeted hot path pays a single
predictable branch.

All deadlines are absolute ``time.monotonic_ns()`` instants.  On Linux
``CLOCK_MONOTONIC`` is system-wide, so a deadline computed in the
service front door stays meaningful inside a forked worker process —
the worker protocol ships absolute deadlines, not remaining budgets,
and queue delay costs the request rather than resetting its clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import DeadlineExceededError
from repro.selection.resilience import DEADLINE_CHECK_EVERY

__all__ = ["DEADLINE_CHECK_EVERY", "RequestBudget"]


@dataclass(frozen=True)
class RequestBudget:
    """A wall-clock allowance pinned to a request's start instant.

    Attributes:
        deadline_ns: The *relative* wall-clock allowance (``None``: no
            deadline).
        started_ns: Absolute ``monotonic_ns`` instant the budget
            started ticking.  ``0`` means "unpinned" (no deadline).

    Build with :meth:`start` (relative allowance, pinned now) or
    :meth:`until` (absolute deadline, e.g. received over the worker
    protocol).
    """

    deadline_ns: int | None = None
    started_ns: int = 0

    @classmethod
    def start(cls, timeout_s: float | None) -> RequestBudget:
        """A budget whose clock starts now; ``timeout_s=None`` → no deadline."""
        if timeout_s is None:
            return cls()
        return cls(deadline_ns=int(timeout_s * 1e9), started_ns=time.monotonic_ns())

    @classmethod
    def until(cls, deadline_at_ns: int | None) -> RequestBudget:
        """A budget ending at an absolute monotonic instant."""
        if deadline_at_ns is None:
            return cls()
        now = time.monotonic_ns()
        return cls(deadline_ns=max(0, deadline_at_ns - now), started_ns=now)

    @property
    def deadline_at_ns(self) -> int | None:
        """Absolute monotonic deadline, or ``None`` when unbounded."""
        if self.deadline_ns is None or not self.started_ns:
            return None
        return self.started_ns + self.deadline_ns

    def remaining_ns(self) -> int | None:
        """Nanoseconds left on the clock (clamped at 0), or ``None``."""
        at = self.deadline_at_ns
        if at is None:
            return None
        return max(0, at - time.monotonic_ns())

    def expired(self) -> bool:
        """True when the deadline has passed."""
        at = self.deadline_at_ns
        return at is not None and time.monotonic_ns() > at

    def check(self, phase: str) -> None:
        """Raise :class:`DeadlineExceededError` if the deadline passed."""
        at = self.deadline_at_ns
        if at is not None and time.monotonic_ns() > at:
            raise DeadlineExceededError(
                f"request deadline exceeded during {phase} "
                f"(budget {self.deadline_ns / 1e6:.1f} ms)"
            )
