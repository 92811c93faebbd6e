"""Supervised selection service: worker pool with deadlines, retries,
circuit breaking, and overload shedding.

Layering (bottom up):

* :mod:`repro.service.breaker` — per-tenant :class:`CircuitBreaker`
  (closed → open → half-open → closed).
* :mod:`repro.service.worker` — the forked worker process serving
  ``select_many`` batches over a pipe with typed failure rows.
* :mod:`repro.service.supervisor` — owns the pool: fork, death
  detection, capped-backoff restart, re-dispatch of a dead worker's
  one batch.
* :mod:`repro.service.frontdoor` — :class:`SelectionService`, the
  public face: admission control, batching, retries, watchdog,
  observability.

A request deadline is an absolute ``time.monotonic_ns()`` integer,
pinned at admission and carried unchanged through every stage (queue,
dispatch, the pipe message, the worker's label and emit walks).
"""

from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.service.frontdoor import (
    SelectionService,
    ServiceConfig,
    ServiceFuture,
    ServiceResponse,
    ServiceStats,
)
from repro.service.supervisor import Batch, Supervisor, WorkerHandle
from repro.service.worker import WorkerSettings, worker_main

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "Batch",
    "CircuitBreaker",
    "SelectionService",
    "ServiceConfig",
    "ServiceFuture",
    "ServiceResponse",
    "ServiceStats",
    "Supervisor",
    "WorkerHandle",
    "WorkerSettings",
    "worker_main",
]
