"""Front door: admission, batching, deadlines, retries, breakers, shedding.

:class:`SelectionService` is the serving layer's public face.  Callers
:meth:`~SelectionService.submit` one forest per request and get a
:class:`ServiceFuture`; a single event thread owns all request and
worker state:

* **admission** — a bounded queue: when ``queue_limit`` requests are
  already waiting, the request is *shed* immediately with a typed
  :class:`~repro.errors.OverloadError` instead of adding unbounded
  latency.  Queue depth high-water is tracked.
* **breakers** — one :class:`~repro.service.breaker.CircuitBreaker` per
  tenant: after :data:`BREAKER_THRESHOLD` consecutive failures the
  tenant's requests fast-fail with
  :class:`~repro.errors.CircuitOpenError` until a
  :data:`BREAKER_COOLDOWN_S` cooldown admits a half-open probe batch; a
  successful probe closes the circuit.
* **batching** — queued requests coalesce per tenant into
  ``select_many`` batches (up to :data:`MAX_BATCH`) dispatched to idle
  workers, one batch per worker at a time.
* **deadlines** — every request carries an absolute monotonic deadline
  (``default_timeout_s`` unless overridden per call).  Deadlines are
  enforced at every stage: expiry in the queue, cooperative
  cancellation inside the worker's label/reduce loops (the same
  ``monotonic_ns`` integer, passed as ``select_many(deadline_at_ns=...)``),
  and a *watchdog* that SIGKILLs a worker whose batch overstays its
  deadline by :data:`HANG_GRACE_NS` (a wedged action cannot hold a slot
  hostage).  A coalesced batch runs under its earliest request
  deadline; when it expires, only the requests whose own deadline has
  passed resolve ``deadline``, and the rest go back to the front of
  the queue.
* **retries** — a failed request is retried with capped, jittered
  exponential backoff up to :data:`RETRIES` times while its deadline
  allows.
* **re-dispatch** — when a worker dies, its batch's requests requeue
  at the *front* transparently; a request that kills
  :data:`MAX_REDISPATCHES` workers in a row is a poison pill and fails
  with :class:`~repro.errors.RequestLostError` instead of crash-looping
  the pool.  A forest that cannot be pickled, or that the worker
  cannot unpickle, is no death: it fails alone with
  :class:`~repro.errors.RequestEncodeError` and the rest of its batch
  requeues uncounted.

Every submitted request resolves to exactly one
:class:`ServiceResponse` — success, or a *typed* failure — which is
the "zero lost requests" contract the chaos bench asserts.

:class:`ServiceConfig` holds only deployment settings (pool size,
queue limit, default timeout, seed).  Policy is fixed in module
constants: :data:`RETRIES`, :data:`BREAKER_THRESHOLD`,
:data:`BREAKER_COOLDOWN_S`, :data:`MAX_REDISPATCHES` and
:data:`HEARTBEAT_INTERVAL_S` below, and the restart backoff in
:mod:`repro.service.supervisor`.
"""

from __future__ import annotations

import os
import pickle
import random
import selectors
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadError,
    RequestEncodeError,
    RequestLostError,
    ServiceError,
)
from repro.obs import MetricsRegistry, resolve_obs
from repro.selection.resilience import new_resilience_counters
from repro.service.breaker import CircuitBreaker
from repro.service.supervisor import Batch, Supervisor, WorkerHandle, encode_batch
from repro.service.worker import WorkerSettings, _merge_counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grammar.grammar import Grammar
    from repro.ir.node import Forest

__all__ = [
    "SelectionService",
    "ServiceConfig",
    "ServiceFuture",
    "ServiceResponse",
    "ServiceStats",
]

_UNSET = object()

#: Most requests coalesced into one worker batch.
MAX_BATCH = 8
#: Retries of a request whose batch returned a failure row.
RETRIES = 2
#: Consecutive failures that open a tenant's circuit, and how long it
#: stays open before admitting a half-open probe.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 0.25
#: Worker deaths a request may cause before it fails as a poison pill.
MAX_REDISPATCHES = 3
#: Seconds between heartbeat pings to each worker.
HEARTBEAT_INTERVAL_S = 0.5
#: Retry backoff: ``RETRY_BACKOFF_BASE_S * 2**(attempt - 1)``, capped at
#: ``RETRY_BACKOFF_MAX_S``, then jittered by a factor in [0.5, 1.5).
RETRY_BACKOFF_BASE_S = 0.01
RETRY_BACKOFF_MAX_S = 0.25
#: How long (2 s) a batch may overstay its deadline before the
#: watchdog SIGKILLs its worker.
HANG_GRACE_NS = 2 * 10**9


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment settings of one :class:`SelectionService`.

    Attributes:
        workers: Worker processes in the pool.
        queue_limit: Requests the admission queue holds before it sheds.
        default_timeout_s: A request's deadline when ``submit`` names
            none (``None``: no deadline).
        seed: Seeds the retry-backoff jitter.
    """

    workers: int = 2
    queue_limit: int = 64
    default_timeout_s: float | None = 30.0
    seed: int | None = None


@dataclass
class ServiceResponse:
    """The terminal outcome of one request (exactly one per submit).

    *status* is one of ``ok`` / ``failure`` / ``deadline`` / ``shed`` /
    ``circuit_open`` / ``cancelled``; *error* holds the typed failure
    (a :class:`~repro.selection.resilience.SelectionFailure` or a
    :class:`~repro.errors.ServiceError` subclass) when not ``ok``.
    """

    request_id: int
    tenant: str
    status: str
    value: Any = None
    error: Any = None
    latency_ns: int = 0
    attempts: int = 0
    re_dispatches: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def error_type(self) -> str | None:
        return type(self.error).__name__ if self.error is not None else None

    def as_row(self) -> dict[str, object]:
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "status": self.status,
            "ok": self.ok,
            "error_type": self.error_type,
            "latency_ns": self.latency_ns,
            "attempts": self.attempts,
            "re_dispatches": self.re_dispatches,
        }


class _Request:
    """Internal request state (the future's backing store)."""

    __slots__ = (
        "request_id",
        "tenant",
        "forest",
        "deadline_at_ns",
        "submitted_ns",
        "attempts",
        "re_dispatches",
        "not_before_ns",
        "event",
        "response",
    )

    def __init__(
        self, request_id: int, tenant: str, forest: "Forest", deadline_at_ns: int | None
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.forest = forest
        self.deadline_at_ns = deadline_at_ns
        self.submitted_ns = time.monotonic_ns()
        self.attempts = 0
        self.re_dispatches = 0
        self.not_before_ns = 0
        self.event = threading.Event()
        self.response: ServiceResponse | None = None


class ServiceFuture:
    """Handle on one in-flight request; blocks in :meth:`result`."""

    def __init__(self, request: _Request) -> None:
        self._request = request

    @property
    def request_id(self) -> int:
        return self._request.request_id

    def done(self) -> bool:
        return self._request.response is not None

    def result(self, timeout: float | None = None) -> ServiceResponse:
        """The request's :class:`ServiceResponse` (waits for it).

        Raises :class:`ServiceError` only if *timeout* elapses first —
        typed failures come back as responses, not exceptions.
        """
        if not self._request.event.wait(timeout):
            raise ServiceError(
                f"request {self._request.request_id} still unresolved "
                f"after {timeout} s"
            )
        response = self._request.response
        assert response is not None
        return response


def _new_tenant_counters() -> dict[str, int]:
    return {
        "requests": 0,
        "ok": 0,
        "failures": 0,
        "retries": 0,
        "deadline": 0,
        "shed": 0,
        "breaker_fastfail": 0,
    }


@dataclass
class ServiceStats:
    """The ``stats()["service"]`` counter block."""

    submitted: int = 0
    completed_ok: int = 0
    completed_failed: int = 0
    retries: int = 0
    re_dispatches: int = 0
    shed: int = 0
    breaker_fastfail: int = 0
    deadline_failures: int = 0
    poison_pills: int = 0
    batches: int = 0
    batched_requests: int = 0
    queue_depth_high_water: int = 0
    per_tenant: dict[str, dict[str, int]] = field(default_factory=dict)

    def tenant(self, name: str) -> dict[str, int]:
        counters = self.per_tenant.get(name)
        if counters is None:
            counters = self.per_tenant[name] = _new_tenant_counters()
        return counters

    def outstanding(self) -> int:
        return self.submitted - self.completed_ok - self.completed_failed

    def as_dict(self) -> dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed_ok": self.completed_ok,
            "completed_failed": self.completed_failed,
            "outstanding": self.outstanding(),
            "retries": self.retries,
            "re_dispatches": self.re_dispatches,
            "shed": self.shed,
            "breaker_fastfail": self.breaker_fastfail,
            "deadline_failures": self.deadline_failures,
            "poison_pills": self.poison_pills,
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "queue_depth_high_water": self.queue_depth_high_water,
            "per_tenant": {name: dict(c) for name, c in self.per_tenant.items()},
        }


class SelectionService:
    """The supervised multi-tenant selection service (see module docs).

    Args:
        tenants: Tenant name → grammar.  Grammars may carry closures —
            workers are forked, not spawned.
        cache_dir: Unused; nothing is written to it.  Accepted only
            because existing callers pass a directory positionally, and
            due to go once they pass it by keyword.
        config: A :class:`ServiceConfig`.
        context_factory: Builds a fresh emit context per worker batch.
        obs: Observability wiring (``None``/``False`` disabled, ``True``
            for a private bundle, or a shared
            :class:`~repro.obs.Observability`).  When enabled, the
            front door records ``service.request``/``service.batch``
            spans, per-tenant request counts and latencies, and
            heartbeat round trips; workers run with their own bundles,
            and their metric snapshots (riding home on result tuples)
            aggregate into ``stats()["obs"]``.
    """

    def __init__(
        self,
        tenants: dict[str, "Grammar"],
        cache_dir: object = None,
        config: ServiceConfig | None = None,
        *,
        context_factory: Callable[[], Any] | None = None,
        obs: Any = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._obs = resolve_obs(obs)
        if self._obs is not None:
            self._obs_rtt = self._obs.metrics.histogram("service_heartbeat_rtt_ns")
        settings = WorkerSettings(
            context_factory=context_factory, observe=self._obs is not None
        )
        self.supervisor = Supervisor(tenants, settings, self.config.workers)
        self._lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._stats = ServiceStats()
        self._rng = random.Random(self.config.seed)
        self._running = False
        self._thread: threading.Thread | None = None
        self._next_request_id = 1
        #: The event loop's latest 32 errors.
        self._loop_errors: deque[str] = deque(maxlen=32)

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> "SelectionService":
        if self._running:
            return self
        # One selector for the service's life: the wake pipe here, and
        # each worker's pipe and sentinel from fork to reap.
        self._wake_r, self._wake_w = os.pipe()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self.supervisor.start(self._selector)
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name="selection-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if not self._running:
                return
            self._running = False
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.supervisor.stop()
        # Fold every worker's final metric snapshot into the service
        # registry, so post-stop exports see the whole pool's work.
        for handle in self.supervisor.handles:
            self._absorb_worker_obs(handle)
        # Outstanding requests resolve to a typed cancellation — never
        # a hang — even on an abrupt stop.
        with self._lock:
            outstanding = list(self._queue)
            self._queue.clear()
        for handle in self.supervisor.handles:
            if handle.batch is not None:
                outstanding.extend(handle.batch.requests)
                handle.batch = None
        now = time.monotonic_ns()
        with self._lock:
            for request in outstanding:
                self._resolve_locked(
                    request, "cancelled", error=ServiceError("service stopped"), now=now
                )
        self._selector.close()
        os.close(self._wake_r)
        os.close(self._wake_w)

    def __enter__(self) -> "SelectionService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except OSError:  # pragma: no cover - closed during stop
            pass

    # ------------------------------------------------------------------
    # Submission (caller threads)

    def submit(
        self, tenant: str, forest: "Forest", *, timeout_s: Any = _UNSET
    ) -> ServiceFuture:
        """Enqueue one forest for *tenant*; returns a :class:`ServiceFuture`.

        Sheds (:class:`OverloadError`) when the admission queue is
        full and fast-fails (:class:`CircuitOpenError`) while the
        tenant's breaker is open — both as immediate typed responses,
        not exceptions.
        """
        if timeout_s is _UNSET:
            timeout_s = self.config.default_timeout_s
        now = time.monotonic_ns()
        with self._lock:
            if not self._running:
                raise ServiceError("service is not running (call start())")
            if tenant not in self.supervisor.tenants:
                raise ServiceError(f"unknown tenant {tenant!r}")
            stats = self._stats
            stats.submitted += 1
            tenant_counters = stats.tenant(tenant)
            tenant_counters["requests"] += 1
            request_id = self._next_request_id
            self._next_request_id += 1
            deadline_at = None if timeout_s is None else now + int(timeout_s * 1e9)
            request = _Request(request_id, tenant, forest, deadline_at)
            breaker = self._breaker(tenant)
            if not breaker.allows(now):
                stats.breaker_fastfail += 1
                tenant_counters["breaker_fastfail"] += 1
                self._resolve_locked(
                    request,
                    "circuit_open",
                    error=CircuitOpenError(
                        f"tenant {tenant!r} circuit is {breaker.state} after "
                        f"{breaker.consecutive_failures} consecutive failures"
                    ),
                    now=now,
                )
                return ServiceFuture(request)
            if len(self._queue) >= self.config.queue_limit:
                stats.shed += 1
                tenant_counters["shed"] += 1
                self._resolve_locked(
                    request,
                    "shed",
                    error=OverloadError(
                        f"admission queue full ({self.config.queue_limit} waiting)"
                    ),
                    now=now,
                )
                return ServiceFuture(request)
            self._queue.append(request)
            depth = len(self._queue)
            if depth > stats.queue_depth_high_water:
                stats.queue_depth_high_water = depth
        self._wake()
        return ServiceFuture(request)

    def select(
        self,
        tenant: str,
        forest: "Forest",
        *,
        timeout_s: Any = _UNSET,
        wait_s: float | None = None,
    ) -> ServiceResponse:
        """Synchronous sugar: submit and wait for the response."""
        return self.submit(tenant, forest, timeout_s=timeout_s).result(wait_s)

    def drain(self, timeout_s: float = 10.0, poll_s: float = 0.005) -> bool:
        """Block until every submitted request has resolved."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with self._lock:
                if self._stats.outstanding() <= 0:
                    return True
            time.sleep(poll_s)
        return False

    def _breaker(self, tenant: str) -> CircuitBreaker:
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = self._breakers[tenant] = CircuitBreaker(
                tenant, BREAKER_THRESHOLD, BREAKER_COOLDOWN_S
            )
        return breaker

    # ------------------------------------------------------------------
    # Resolution (lock held)

    def _resolve_locked(
        self,
        request: _Request,
        status: str,
        *,
        value: Any = None,
        error: Any = None,
        now: int | None = None,
    ) -> None:
        if request.response is not None:
            return
        now = time.monotonic_ns() if now is None else now
        stats = self._stats
        tenant_counters = stats.tenant(request.tenant)
        if status == "ok":
            stats.completed_ok += 1
            tenant_counters["ok"] += 1
        else:
            stats.completed_failed += 1
            if status == "deadline":
                stats.deadline_failures += 1
                tenant_counters["deadline"] += 1
        latency_ns = max(0, now - request.submitted_ns)
        request.response = ServiceResponse(
            request_id=request.request_id,
            tenant=request.tenant,
            status=status,
            value=value,
            error=error,
            latency_ns=latency_ns,
            attempts=request.attempts,
            re_dispatches=request.re_dispatches,
        )
        obs = self._obs
        if obs is not None:
            metrics = obs.metrics
            metrics.counter(
                "service_requests_total", tenant=request.tenant, status=status
            ).inc()
            metrics.histogram(
                "service_request_latency_ns", tenant=request.tenant
            ).observe(latency_ns)
            # End pinned to start + latency so the span duration IS the
            # response's latency_ns, exactly.
            obs.tracer.record(
                "service.request",
                request.submitted_ns,
                request.submitted_ns + latency_ns,
                tenant=request.tenant,
                status=status,
                attempts=request.attempts,
                re_dispatches=request.re_dispatches,
            )
        request.event.set()

    # ------------------------------------------------------------------
    # Event loop (the single control thread)

    def _run(self) -> None:
        timeout_s = 0.0
        while True:
            with self._lock:
                if not self._running:
                    return
            try:
                timeout_s = self._tick(timeout_s)
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                self._loop_errors.append(f"{type(exc).__name__}: {exc}")
                time.sleep(0.01)

    def _tick(self, timeout_s: float) -> float:
        """One turn of the loop; returns how long the next one may sleep.

        Waits up to *timeout_s* on the service's one selector, reads
        each ready worker pipe once (a pipe with more to say is ready
        again next turn), reaps the workers whose sentinel fired or
        whose pipe broke, then forks due restarts, pings, runs
        :meth:`_dispatch`'s one walk of the queue and the watchdog.
        The next sleep lasts until the earliest timed event they report
        (a queued deadline or retry backoff, a watchdog kill, a
        restart), clamped to [5 ms, 200 ms]; a submit or a worker's
        message wakes it sooner.
        """
        deaths: list[WorkerHandle] = []
        ready = self._selector.select(timeout_s)
        now = time.monotonic_ns()
        for key, _ in ready:
            handle = key.data
            if handle is None:  # the wake pipe
                os.read(self._wake_r, 65536)
            elif key.fileobj is handle.conn:
                try:
                    self._on_message(handle, handle.conn.recv(), now)
                except (EOFError, OSError):
                    deaths.append(handle)
            else:  # the process sentinel: the worker exited
                deaths.append(handle)
        for handle in deaths:
            self._on_death(handle, now)
        supervisor = self.supervisor
        supervisor.due_restarts(now)
        self._heartbeat(now)
        due = min(self._dispatch(now), self._watchdog(now))
        restart_ns = supervisor.next_restart_ns()
        if restart_ns is not None:
            due = min(due, restart_ns)
        return min(0.2, max(0.005, (due - now) / 1e9))

    # ------------------------------------------------------------------
    # Worker messages

    def _on_message(self, handle: WorkerHandle, message: tuple, now: int) -> None:
        kind = message[0]
        if kind == "pong":
            # A pong echoes the ping's monotonic-ns token, so now - token
            # is the heartbeat round trip.
            if self._obs is not None:
                self._obs_rtt.observe(max(0, now - message[1]))
            return
        batch, handle.batch = handle.batch, None
        if batch is None:  # pragma: no cover - defensive
            return
        if kind == "undecodable":
            self._reject_unencodable(batch, ServiceError(message[1]), now)
            return
        _, rows, snapshot = message
        handle.snapshot = snapshot
        handle.completed += 1
        handle.consecutive_crashes = 0
        if self._obs is not None and batch.dispatched_ns:
            self._obs.tracer.record(
                "service.batch",
                batch.dispatched_ns,
                now,
                tenant=batch.tenant,
                requests=len(batch.requests),
                worker_pid=snapshot.get("pid") if isinstance(snapshot, dict) else None,
            )
        by_id = {request.request_id: request for request in batch.requests}
        rerun: list[_Request] = []
        with self._lock:
            breaker = self._breaker(batch.tenant)
            stats = self._stats
            tenant_counters = stats.tenant(batch.tenant)
            for request_id, status, payload in rows:
                request = by_id.pop(request_id, None)
                if request is None or request.response is not None:
                    continue
                if status == "ok":
                    breaker.record_success()
                    self._resolve_locked(request, "ok", value=payload, now=now)
                elif status == "deadline":
                    breaker.release_probe()
                    if request.deadline_at_ns is None or now < request.deadline_at_ns:
                        # The batch ran under its earliest deadline, a
                        # neighbour's: this request still has time.
                        rerun.append(request)
                        continue
                    self._resolve_locked(
                        request,
                        "deadline",
                        error=DeadlineExceededError(str(payload)),
                        now=now,
                    )
                else:
                    breaker.record_failure(now)
                    tenant_counters["failures"] += 1
                    expired = (
                        request.deadline_at_ns is not None
                        and now >= request.deadline_at_ns
                    )
                    if request.attempts < RETRIES and not expired:
                        request.attempts += 1
                        stats.retries += 1
                        tenant_counters["retries"] += 1
                        backoff_s = min(
                            RETRY_BACKOFF_BASE_S * (2 ** (request.attempts - 1)),
                            RETRY_BACKOFF_MAX_S,
                        ) * (0.5 + self._rng.random())
                        request.not_before_ns = now + int(backoff_s * 1e9)
                        self._queue.append(request)
                    else:
                        self._resolve_locked(request, "failure", error=payload, now=now)
            for request in by_id.values():  # pragma: no cover - defensive
                self._resolve_locked(
                    request,
                    "failure",
                    error=ServiceError("worker returned no row for request"),
                    now=now,
                )
            # Front of the queue, in order: no retry, no re-dispatch.
            self._queue.extendleft(reversed(rerun))

    # ------------------------------------------------------------------
    # Death and re-dispatch

    def _on_death(self, handle: WorkerHandle, now: int) -> None:
        self._absorb_worker_obs(handle)
        orphan = self.supervisor.handle_death(handle, now)
        if orphan is None:
            return
        requeue: list[_Request] = []
        with self._lock:
            stats = self._stats
            self._breaker(orphan.tenant).release_probe()
            for request in orphan.requests:
                if request.response is not None:
                    continue
                request.re_dispatches += 1
                stats.re_dispatches += 1
                if request.re_dispatches > MAX_REDISPATCHES:
                    stats.poison_pills += 1
                    self._resolve_locked(
                        request,
                        "failure",
                        error=RequestLostError(
                            f"request {request.request_id} re-dispatched "
                            f"{request.re_dispatches - 1} times (worker died "
                            f"each time); abandoning a likely poison pill"
                        ),
                        now=now,
                    )
                elif request.deadline_at_ns is not None and now >= request.deadline_at_ns:
                    self._resolve_locked(
                        request,
                        "deadline",
                        error=DeadlineExceededError("expired during re-dispatch"),
                        now=now,
                    )
                else:
                    requeue.append(request)
            # Front of the queue: re-dispatched work is the oldest.
            self._queue.extendleft(reversed(requeue))

    def _watchdog(self, now: int) -> float:
        """SIGKILL workers whose batch overstayed deadline + grace;
        returns the next such instant (``inf`` when none is due)."""
        due: float = float("inf")
        for handle in self.supervisor.handles:
            batch = handle.batch
            if not handle.alive or batch is None or batch.deadline_at_ns is None:
                continue
            hang_ns = batch.deadline_at_ns + HANG_GRACE_NS
            if now > hang_ns:
                self.supervisor.kill_worker(handle)
            else:
                due = min(due, hang_ns)
        return due

    def _heartbeat(self, now: int) -> None:
        interval_ns = int(HEARTBEAT_INTERVAL_S * 1e9)
        for handle in self.supervisor.handles:
            if not handle.alive or handle.conn is None:
                continue
            if now - handle.last_ping_ns < interval_ns:
                continue
            handle.last_ping_ns = now
            try:
                handle.conn.send(("ping", now))
            except Exception:
                self._on_death(handle, now)

    # ------------------------------------------------------------------
    # Dispatch

    def _dispatch(self, now: int) -> float:
        """Walk the queue once: expire, batch, send; returns the next
        instant a queued request needs the loop (``inf`` when none does).

        A request whose deadline has passed resolves ``deadline``.  One
        that may run now joins its tenant's open batch while that has
        room (:data:`MAX_BATCH`), or opens a batch for the next idle
        worker if its tenant's breaker allows.  Every other request
        stays queued, in order, and its deadline or retry backoff
        counts toward the returned instant.
        """
        supervisor = self.supervisor
        idle = supervisor.live_idle_workers()
        batches: list[Batch] = []
        open_batch: dict[str, Batch] = {}
        due: float = float("inf")
        with self._lock:
            queue = self._queue
            for _ in range(len(queue)):
                request = queue.popleft()
                if request.response is not None:
                    continue
                deadline = request.deadline_at_ns
                if deadline is not None and now >= deadline:
                    self._resolve_locked(
                        request,
                        "deadline",
                        error=DeadlineExceededError("expired in admission queue"),
                        now=now,
                    )
                    continue
                if request.not_before_ns > now:
                    due = min(due, request.not_before_ns)
                else:
                    batch = open_batch.get(request.tenant)
                    if batch is not None and len(batch.requests) < MAX_BATCH:
                        batch.requests.append(request)
                        continue
                    breaker = self._breaker(request.tenant)
                    if len(batches) < len(idle) and breaker.allows(now):
                        breaker.mark_dispatched()
                        batch = Batch(request.tenant, [request], None)
                        open_batch[request.tenant] = batch
                        batches.append(batch)
                        continue
                if deadline is not None:
                    due = min(due, deadline)
                queue.append(request)
            for batch in batches:
                batch.deadline_at_ns = min(
                    (r.deadline_at_ns for r in batch.requests if r.deadline_at_ns is not None),
                    default=None,
                )
                self._stats.batches += 1
                self._stats.batched_requests += len(batch.requests)
        for worker, batch in zip(idle, batches):
            try:
                sent = supervisor.dispatch(worker, batch)
            except Exception as exc:  # noqa: BLE001 - any pickler error
                self._reject_unencodable(batch, exc, now)
                continue
            if not sent:
                # The worker died since the select: requeue via the
                # normal death path (counts a re-dispatch).
                worker.batch = batch
                self._on_death(worker, now)
        return due

    def _reject_unencodable(self, batch: Batch, error: Exception, now: int) -> None:
        """Fail the requests whose forests cannot cross the pipe; requeue
        the rest.

        Runs when a batch fails to encode here, or when the worker
        reports it could not decode one.  Cold path: each request goes
        alone, in a one-request batch message, through both the encode
        and the worker's ``loads`` to find the offenders; they resolve
        at once with a :class:`~repro.errors.RequestEncodeError` (no
        retry: pickling is deterministic), and the others go back to the
        front of the queue without counting a re-dispatch.  Should no
        request fail alone, the whole batch fails with *error*.
        """
        culprits: dict[int, Exception] = {}
        for request in batch.requests:
            try:
                pickle.loads(encode_batch(Batch(batch.tenant, [request], batch.deadline_at_ns)))
            except Exception as exc:  # noqa: BLE001 - any pickler error
                culprits[request.request_id] = exc
        if not culprits:
            culprits = {request.request_id: error for request in batch.requests}
        with self._lock:
            breaker = self._breaker(batch.tenant)
            tenant_counters = self._stats.tenant(batch.tenant)
            requeue: list[_Request] = []
            for request in batch.requests:
                exc = culprits.get(request.request_id)
                if exc is None:
                    requeue.append(request)
                    continue
                # Counts like a worker's failure row (which also releases
                # a half-open probe the batch may have been).
                breaker.record_failure(now)
                tenant_counters["failures"] += 1
                self._resolve_locked(
                    request,
                    "failure",
                    error=RequestEncodeError(
                        f"request {request.request_id}'s forest cannot be sent "
                        f"to a worker ({type(exc).__name__}: {exc})"
                    ),
                    now=now,
                )
            self._queue.extendleft(reversed(requeue))
        self._wake()  # the worker is still idle: dispatch the rest now

    # ------------------------------------------------------------------
    # Observability

    def _absorb_worker_obs(self, handle: WorkerHandle) -> None:
        """Merge a worker's last metric snapshot into the own registry.

        Worker snapshots are cumulative registry state, so each one is
        folded exactly once — at worker death or service stop — and
        then blanked to keep later merges from double counting.
        """
        if self._obs is None or not isinstance(handle.snapshot, dict):
            return
        worker_obs = handle.snapshot.get("obs")
        if worker_obs:
            self._obs.metrics.merge_snapshot(worker_obs)
            handle.snapshot = {**handle.snapshot, "obs": {}}

    def _merged_obs_registry(self) -> MetricsRegistry:
        """Own registry plus every live worker's latest snapshot.

        A fresh registry (histogram merges are exact, so the numbers
        equal a single-process run) — callers may flatten or export it
        without mutating service state.
        """
        merged = MetricsRegistry()
        merged.merge_snapshot(self._obs.metrics.snapshot())
        for handle in self.supervisor.handles:
            if isinstance(handle.snapshot, dict):
                worker_obs = handle.snapshot.get("obs")
                if worker_obs:
                    merged.merge_snapshot(worker_obs)
        return merged

    def stats(self) -> dict[str, object]:
        """The service's counters, each block once.

        ``["resilience"]`` sums the *live* workers' selector counters (a
        restarted worker starts fresh).  ``["service"]`` is the
        :class:`ServiceStats` block plus the current queue depth, the
        breaker snapshots (with their latest transitions), the
        supervisor's pool view (``["supervisor"]["workers"]`` holds one
        row per worker) and the event loop's latest 32 errors.  ``["obs"]`` is the
        flattened metrics registry when observing, else ``None``.
        """
        resilience = new_resilience_counters()
        for handle in self.supervisor.handles:
            worker_resilience = handle.snapshot.get("resilience")
            if isinstance(worker_resilience, dict):
                _merge_counters(resilience, worker_resilience)
        with self._lock:
            service: dict[str, object] = self._stats.as_dict()
            service["queue_depth"] = len(self._queue)
            service["breakers"] = {
                name: breaker.snapshot() for name, breaker in self._breakers.items()
            }
        service["supervisor"] = self.supervisor.stats()
        service["loop_errors"] = list(self._loop_errors)
        obs_view = self._merged_obs_registry().flatten() if self._obs is not None else None
        return {"resilience": resilience, "service": service, "obs": obs_view}
