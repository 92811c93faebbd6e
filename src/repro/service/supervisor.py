"""Supervisor: owns N worker processes, restarts crashes, re-dispatches.

The supervisor is deliberately passive — it has no thread of its own.
The front door's event loop drives it: :meth:`Supervisor.wait_objects`
hands back every pipe connection *and* process sentinel to multiplex in
one ``multiprocessing.connection.wait`` call, and the loop calls back
into :meth:`handle_death` / :meth:`due_restarts` / :meth:`dispatch` as
objects fire.  Keeping one thread of control means no lock ordering
between request state and worker state.

Death detection is two-channel: the process *sentinel* fires on any
exit (including SIGKILL — exit code ``-9``), and the pipe raises
``EOFError``/``BrokenPipeError`` on the next interaction.  Either
signal routes to :meth:`handle_death`, which collects the slot's
in-flight batches for transparent re-dispatch — a killed worker never
loses a request — and schedules a replacement fork with capped
exponential backoff (a crash-looping worker cannot hot-spin the
supervisor).  Workers are forked, not spawned: tenant grammars carry
closures (actions, constraints, dynamic costs) that cannot pickle, and
fork inherits them for free.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ServiceError
from repro.selection.resilience import ArtifactCache, BuildBudget
from repro.service.worker import WorkerSettings, worker_main
from repro.testing.faults import kill_process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.grammar.grammar import Grammar

__all__ = ["Batch", "Supervisor", "WorkerHandle"]


@dataclass
class Batch:
    """One coalesced dispatch unit: same tenant, up to ``max_batch`` requests."""

    batch_id: int
    tenant: str
    requests: list[Any]  # frontdoor._Request objects
    deadline_at_ns: int | None
    dispatched_ns: int = 0


@dataclass
class WorkerHandle:
    """One supervisor slot: the current process behind a stable slot id."""

    slot: int
    process: Any = None
    conn: "Connection | None" = None
    pid: int = 0
    alive: bool = False
    in_flight: dict[int, Batch] = field(default_factory=dict)
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
            "in_flight": sum(len(b.requests) for b in self.in_flight.values()),
            "dispatched": self.dispatched,
            "completed": self.completed,
            "restarts": self.restarts,
        }


class Supervisor:
    """Owns the worker pool for one :class:`SelectionService`.

    Args:
        tenants: Tenant name → grammar (inherited by workers at fork).
        cache_dir: Shared :class:`ArtifactCache` directory.
        settings: Per-worker :class:`WorkerSettings`.
        workers: Pool size.
        restart_backoff_base_s / restart_backoff_max_s: Capped
            exponential backoff between a crash and the replacement
            fork (doubles per *consecutive* crash of the slot; a
            completed batch resets the streak).
    """

    def __init__(
        self,
        tenants: dict[str, "Grammar"],
        cache_dir: str,
        settings: WorkerSettings | None = None,
        *,
        workers: int = 2,
        restart_backoff_base_s: float = 0.02,
        restart_backoff_max_s: float = 1.0,
    ) -> None:
        if workers < 1:
            raise ServiceError("worker pool needs at least one worker")
        self.tenants = dict(tenants)
        self.cache_dir = str(cache_dir)
        self.settings = settings or WorkerSettings()
        self.pool_size = workers
        self.restart_backoff_base_s = restart_backoff_base_s
        self.restart_backoff_max_s = restart_backoff_max_s
        self._ctx = multiprocessing.get_context("fork")
        self.handles: list[WorkerHandle] = [WorkerHandle(slot=i) for i in range(workers)]
        #: slot -> absolute monotonic ns when the replacement may fork.
        self._restart_at: dict[int, int] = {}
        self.restarts_total = 0
        self.kills_total = 0
        self._next_batch_id = 1

    # ------------------------------------------------------------------
    # Lifecycle

    def precompile(self, budget: BuildBudget | None = None) -> int:
        """Build every tenant's artifact once, parent-side.

        One eager build per grammar lands in the shared cache before
        any worker forks; each worker then ``Selector.load()``\\ s the
        fingerprint-keyed artifact in ~1 ms instead of re-compiling —
        the build is amortized across the whole pool.  Returns the
        number of tenants prepared.
        """
        cache = ArtifactCache(self.cache_dir)
        budget = budget or BuildBudget(max_states=self.settings.max_states)
        for grammar in self.tenants.values():
            cache.selector_for(grammar, budget=budget)
        return len(self.tenants)

    def start(self) -> None:
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
            args=(child_conn, self.tenants, self.cache_dir, self.settings),
            daemon=True,
            name=f"repro-selection-worker-{handle.slot}",
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.pid = process.pid or 0
        handle.alive = True
        handle.in_flight = {}

    # ------------------------------------------------------------------
    # Event-loop plumbing

    def live_idle_workers(self) -> list[WorkerHandle]:
        """Live workers with no batch in flight (dispatch candidates)."""
        return [h for h in self.handles if h.alive and not h.in_flight]

    def dispatch(self, handle: WorkerHandle, batch: Batch) -> bool:
        """Ship *batch* to *handle*; ``False`` means the worker is dead
        (caller routes through :meth:`handle_death`)."""
        payload = (
            "batch",
            batch.batch_id,
            batch.tenant,
            [(request.request_id, request.forest) for request in batch.requests],
            batch.deadline_at_ns,
        )
        try:
            assert handle.conn is not None
            handle.conn.send(payload)
        except Exception:
            return False
        batch.dispatched_ns = time.monotonic_ns()
        handle.in_flight[batch.batch_id] = batch
        handle.dispatched += 1
        return True

    def next_batch_id(self) -> int:
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        return batch_id

    # ------------------------------------------------------------------
    # Death, restart, watchdog

    def handle_death(self, handle: WorkerHandle, now_ns: int | None = None) -> list[Batch]:
        """Reap a dead worker; return its in-flight batches for re-dispatch.

        Schedules the slot's replacement fork at ``now + min(base *
        2^crashes, max)`` — capped exponential backoff.
        """
        if not handle.alive:
            return []
        now = time.monotonic_ns() if now_ns is None else now_ns
        handle.alive = False
        process = handle.process
        if process is not None:
            process.join(timeout=0.5)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except Exception:
                pass
        orphans = list(handle.in_flight.values())
        handle.in_flight = {}
        delay_s = min(
            self.restart_backoff_base_s * (2**handle.consecutive_crashes),
            self.restart_backoff_max_s,
        )
        handle.consecutive_crashes += 1
        self._restart_at[handle.slot] = now + int(delay_s * 1e9)
        return orphans

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
        and :meth:`handle_death` re-dispatches its in-flight batches."""
        if not handle.alive or not handle.pid:
            return False
        self.kills_total += 1
        return kill_process(handle.pid)

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
