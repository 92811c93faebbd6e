"""Supervisor: owns N worker processes, restarts crashes, re-dispatches.

The supervisor is deliberately passive — it has no thread of its own.
The front door's event loop drives it, and hands it the loop's one
selector at :meth:`Supervisor.start`: forking a worker registers the
worker's pipe connection *and* process sentinel there (each keyed to
its :class:`WorkerHandle`), and reaping it unregisters both, so each
tick of ``SelectionService._tick`` waits on exactly the live workers
without building anything.  The loop calls back into
:meth:`handle_death` / :meth:`due_restarts` / :meth:`dispatch` as
they fire.  Keeping one thread of control means no lock ordering
between request state and worker state.

A batch is pickled (:func:`encode_batch`) before a byte reaches the
pipe, so an unencodable forest raises out of :meth:`dispatch` with the
worker untouched; only an ``OSError`` from the write means the worker
is gone.  A batch that pickles here but fails to unpickle in the worker
comes back as an ``undecodable`` reply, not as a death.

Death detection is two-channel: the process *sentinel* fires on any
exit (including SIGKILL — exit code ``-9``), and the pipe raises
``EOFError``/``BrokenPipeError`` on the next interaction.  Either
signal routes to :meth:`handle_death`, which returns the slot's batch
for transparent re-dispatch — a killed worker never loses a request —
and schedules a replacement fork with capped exponential backoff
(:data:`RESTART_BACKOFF_BASE_S` doubling per consecutive crash, capped
at :data:`RESTART_BACKOFF_MAX_S`), so a crash-looping worker cannot
hot-spin the supervisor.  Workers are forked, not spawned: tenant
grammars carry closures (actions, constraints, dynamic costs) that
cannot pickle, and fork inherits them for free.

Workers run stop-and-wait: a worker holds at most one batch
(:attr:`WorkerHandle.batch`), and only idle workers get a new one.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import TYPE_CHECKING, Any

from repro.errors import ServiceError
from repro.service.worker import WorkerSettings, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.grammar.grammar import Grammar

__all__ = ["Batch", "Supervisor", "WorkerHandle", "encode_batch"]

#: Replacement-fork backoff: ``RESTART_BACKOFF_BASE_S * 2**crashes``,
#: capped at ``RESTART_BACKOFF_MAX_S``; *crashes* counts the slot's
#: consecutive crashes (a completed batch resets it).
RESTART_BACKOFF_BASE_S = 0.02
RESTART_BACKOFF_MAX_S = 1.0


@dataclass
class Batch:
    """One coalesced dispatch unit: same tenant, up to ``MAX_BATCH`` requests."""

    tenant: str
    requests: list[Any]  # frontdoor._Request objects
    deadline_at_ns: int | None
    dispatched_ns: int = 0


def encode_batch(batch: Batch) -> memoryview:
    """*batch*'s wire message, pickled as ``Connection.send`` would.

    Raises whatever the pickler raises (``RecursionError`` for a forest
    deeper than the pickler's recursion limit, ``TypeError`` for an
    unpicklable payload).
    """
    return ForkingPickler.dumps(
        (
            "batch",
            batch.tenant,
            [(request.request_id, request.forest) for request in batch.requests],
            batch.deadline_at_ns,
        )
    )


@dataclass
class WorkerHandle:
    """One supervisor slot: the current process behind a stable slot id."""

    slot: int
    process: Any = None
    conn: "Connection | None" = None
    pid: int = 0
    alive: bool = False
    batch: Batch | None = None
    dispatched: int = 0
    completed: int = 0
    restarts: int = 0
    consecutive_crashes: int = 0
    last_ping_ns: int = 0
    snapshot: dict[str, Any] = field(default_factory=dict)

    def as_row(self) -> dict[str, object]:
        return {
            "slot": self.slot,
            "pid": self.pid,
            "alive": self.alive,
            "in_flight": len(self.batch.requests) if self.batch is not None else 0,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "restarts": self.restarts,
        }


class Supervisor:
    """Owns the worker pool for one :class:`SelectionService`.

    Args:
        tenants: Tenant name → grammar (inherited by workers at fork,
            which build each tenant's on-demand selector on first touch).
        settings: Per-worker :class:`WorkerSettings`.
        workers: Pool size.
    """

    def __init__(
        self,
        tenants: dict[str, "Grammar"],
        settings: WorkerSettings,
        workers: int,
    ) -> None:
        if workers < 1:
            raise ServiceError("worker pool needs at least one worker")
        self.tenants = dict(tenants)
        self.settings = settings
        self.pool_size = workers
        self._ctx = multiprocessing.get_context("fork")
        self.handles: list[WorkerHandle] = [WorkerHandle(slot=i) for i in range(workers)]
        #: slot -> absolute monotonic ns when the replacement may fork.
        self._restart_at: dict[int, int] = {}
        self._selector: selectors.BaseSelector | None = None
        self.restarts_total = 0
        self.kills_total = 0

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self, selector: selectors.BaseSelector) -> None:
        """Fork the pool, registering each worker with *selector*."""
        self._selector = selector
        for handle in self.handles:
            self._spawn(handle)

    def stop(self) -> None:
        for handle in self.handles:
            if handle.alive and handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except Exception:
                    pass
        deadline = time.monotonic() + 1.0
        for handle in self.handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
            handle.alive = False
            if handle.conn is not None:
                handle.conn.close()

    def _spawn(self, handle: WorkerHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.tenants, self.settings),
            daemon=True,
            name=f"repro-selection-worker-{handle.slot}",
        )
        process.start()
        child_conn.close()
        self._selector.register(parent_conn, selectors.EVENT_READ, handle)
        self._selector.register(process.sentinel, selectors.EVENT_READ, handle)
        handle.process = process
        handle.conn = parent_conn
        handle.pid = process.pid or 0
        handle.alive = True
        handle.batch = None

    # ------------------------------------------------------------------
    # Event-loop plumbing

    def live_idle_workers(self) -> list[WorkerHandle]:
        """Live workers with no batch in flight (dispatch candidates)."""
        return [h for h in self.handles if h.alive and h.batch is None]

    def dispatch(self, handle: WorkerHandle, batch: Batch) -> bool:
        """Ship *batch* to *handle*; ``False`` means the worker is dead
        (caller routes through :meth:`handle_death`).

        A batch that cannot be encoded raises the pickler's exception
        before anything is written, leaving the worker as it was.
        """
        message = encode_batch(batch)
        assert handle.conn is not None
        try:
            handle.conn.send_bytes(message)
        except OSError:
            return False
        batch.dispatched_ns = time.monotonic_ns()
        handle.batch = batch
        handle.dispatched += 1
        return True

    # ------------------------------------------------------------------
    # Death, restart, watchdog

    def handle_death(self, handle: WorkerHandle, now_ns: int | None = None) -> Batch | None:
        """Reap a dead worker; return its batch (if any) for re-dispatch.

        Schedules the slot's replacement fork at ``now +
        min(RESTART_BACKOFF_BASE_S * 2^crashes, RESTART_BACKOFF_MAX_S)``.
        """
        if not handle.alive:
            return None
        now = time.monotonic_ns() if now_ns is None else now_ns
        handle.alive = False
        self._selector.unregister(handle.conn)
        self._selector.unregister(handle.process.sentinel)
        handle.process.join(timeout=0.5)
        try:
            handle.conn.close()
        except OSError:
            pass
        orphan, handle.batch = handle.batch, None
        delay_s = min(
            RESTART_BACKOFF_BASE_S * (2**handle.consecutive_crashes), RESTART_BACKOFF_MAX_S
        )
        handle.consecutive_crashes += 1
        self._restart_at[handle.slot] = now + int(delay_s * 1e9)
        return orphan

    def due_restarts(self, now_ns: int | None = None) -> int:
        """Fork replacements whose backoff has elapsed; returns count."""
        now = time.monotonic_ns() if now_ns is None else now_ns
        started = 0
        for slot, at in list(self._restart_at.items()):
            if at > now:
                continue
            del self._restart_at[slot]
            handle = self.handles[slot]
            self._spawn(handle)
            handle.restarts += 1
            self.restarts_total += 1
            started += 1
        return started

    def next_restart_ns(self) -> int | None:
        """Earliest pending restart instant (event-loop timer input)."""
        return min(self._restart_at.values()) if self._restart_at else None

    def kill_worker(self, handle: WorkerHandle) -> bool:
        """SIGKILL a (presumably wedged) worker; the sentinel then fires
        and :meth:`handle_death` re-dispatches its batch.
        Returns ``False`` when the process was already gone."""
        if not handle.alive or not handle.pid:
            return False
        self.kills_total += 1
        try:
            os.kill(handle.pid, signal.SIGKILL)
        except ProcessLookupError:
            return False
        return True

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {
            "pool_size": self.pool_size,
            "alive": sum(1 for h in self.handles if h.alive),
            "restarts_total": self.restarts_total,
            "kills_total": self.kills_total,
            "pending_restarts": len(self._restart_at),
            "workers": [h.as_row() for h in self.handles],
        }
