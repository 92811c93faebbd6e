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
  tenant: after K consecutive failures the tenant's requests fast-fail
  with :class:`~repro.errors.CircuitOpenError` until a cooldown admits
  a half-open probe batch; a successful probe closes the circuit.
* **batching** — queued requests coalesce per tenant into
  ``select_many`` batches (up to ``max_batch``) dispatched to idle
  workers.
* **deadlines** — every request carries an absolute monotonic deadline
  (``default_timeout_s`` unless overridden per call).  Deadlines are
  enforced at every stage: expiry in the queue, cooperative
  cancellation inside the worker's label/reduce loops (via
  :class:`~repro.service.budgets.RequestBudget`), and a *watchdog*
  that SIGKILLs a worker whose batch overstays its deadline by
  ``hang_grace_s`` (a wedged action cannot hold a slot hostage).
* **retries** — a failed request is retried with capped, jittered
  exponential backoff up to ``retries`` times while its deadline
  allows.
* **re-dispatch** — when a worker dies, its in-flight requests requeue
  at the *front* transparently; a request that kills
  ``max_redispatches`` workers in a row is a poison pill and fails
  with :class:`~repro.errors.RequestLostError` instead of crash-looping
  the pool.

Every submitted request resolves to exactly one
:class:`ServiceResponse` — success, or a *typed* failure — which is
the "zero lost requests" contract the chaos bench asserts.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mpconnection
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadError,
    RequestLostError,
    ServiceError,
)
from repro.obs import MetricsRegistry, resolve_obs
from repro.selection.resilience import new_resilience_counters
from repro.service.breaker import CircuitBreaker
from repro.service.supervisor import Batch, Supervisor, WorkerHandle
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


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`SelectionService` (see module docs).

    Workers build every tenant's selector eager, through the shared
    :class:`~repro.selection.resilience.ArtifactCache`; *max_states*
    caps a compile-on-miss build.
    """

    workers: int = 2
    queue_limit: int = 64
    max_batch: int = 8
    default_timeout_s: float | None = 30.0
    retries: int = 2
    retry_backoff_base_s: float = 0.01
    retry_backoff_max_s: float = 0.25
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    max_redispatches: int = 3
    hang_grace_s: float = 2.0
    heartbeat_interval_s: float = 0.5
    restart_backoff_base_s: float = 0.02
    restart_backoff_max_s: float = 1.0
    max_states: int | None = None
    precompile: bool = True
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
    """The ``stats()["resilience"]["service"]`` counter block."""

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
        cache_dir: Shared artifact-cache directory; the supervisor
            precompiles one fingerprint-keyed artifact per tenant here
            (unless ``config.precompile`` is off) and every worker
            loads from it.
        config: A :class:`ServiceConfig`.
        context_factory: Builds a fresh emit context per worker batch.
        obs: Observability wiring (``None``/``False`` disabled, ``True``
            for a private bundle, or a shared
            :class:`~repro.obs.Observability`).  When enabled, the
            front door records ``service.request``/``service.batch``
            spans and request/latency/queue/heartbeat/breaker metrics,
            workers run with their own bundles, and their metric
            snapshots (riding home on result tuples) aggregate into
            ``stats()["obs"]``.
    """

    def __init__(
        self,
        tenants: dict[str, "Grammar"],
        cache_dir: str,
        config: ServiceConfig | None = None,
        *,
        context_factory: Callable[[], Any] | None = None,
        obs: Any = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self._obs = resolve_obs(obs)
        if self._obs.enabled:
            metrics = self._obs.metrics
            self._obs_queue_depth = metrics.gauge("service_queue_depth")
            self._obs_rtt = metrics.histogram("service_heartbeat_rtt_ns")
            self._obs_retries = metrics.counter("service_retries_total")
            self._obs_redispatches = metrics.counter("service_redispatches_total")
        settings = WorkerSettings(
            max_states=self.config.max_states,
            context_factory=context_factory,
            observe=self._obs.enabled,
        )
        self.supervisor = Supervisor(
            tenants,
            str(cache_dir),
            settings,
            workers=self.config.workers,
            restart_backoff_base_s=self.config.restart_backoff_base_s,
            restart_backoff_max_s=self.config.restart_backoff_max_s,
        )
        self._lock = threading.Lock()
        self._queue: deque[_Request] = deque()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._stats = ServiceStats()
        self._rng = random.Random(self.config.seed)
        self._running = False
        self._thread: threading.Thread | None = None
        self._wake_r, self._wake_w = os.pipe()
        self._next_request_id = 1
        self._loop_errors: list[str] = []

    # ------------------------------------------------------------------
    # Lifecycle

    def start(self) -> "SelectionService":
        if self._running:
            return self
        if self.config.precompile:
            self.supervisor.precompile()
        self.supervisor.start()
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
            for batch in handle.in_flight.values():
                outstanding.extend(batch.requests)
            handle.in_flight = {}
        now = time.monotonic_ns()
        with self._lock:
            for request in outstanding:
                self._resolve_locked(
                    request, "cancelled", error=ServiceError("service stopped"), now=now
                )
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
            if self._obs.enabled:
                self._obs_queue_depth.set(depth)
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
            on_transition = None
            if self._obs.enabled:
                metrics = self._obs.metrics

                def on_transition(tenant: str, _from_state: str, to_state: str) -> None:
                    metrics.counter(
                        "service_breaker_transitions_total", tenant=tenant, to=to_state
                    ).inc()

            breaker = self._breakers[tenant] = CircuitBreaker(
                tenant,
                failure_threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
                on_transition=on_transition,
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
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter(
                "service_requests_total", tenant=request.tenant, status=status
            ).inc()
            metrics.histogram(
                "service_request_latency_ns", tenant=request.tenant
            ).observe(latency_ns)
            if obs.tracer.enabled:
                # End pinned to start + latency so the span duration IS
                # the response's latency_ns, exactly.
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
        wake_r = self._wake_r
        while True:
            with self._lock:
                if not self._running:
                    return
            try:
                self._tick(wake_r)
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                if len(self._loop_errors) < 32:
                    self._loop_errors.append(f"{type(exc).__name__}: {exc}")
                time.sleep(0.01)

    def _tick(self, wake_r: int) -> None:
        supervisor = self.supervisor
        objects: list[Any] = [wake_r]
        conn_map: dict[int, WorkerHandle] = {}
        sentinel_map: dict[int, WorkerHandle] = {}
        for handle in supervisor.handles:
            if not handle.alive or handle.conn is None or handle.process is None:
                continue
            objects.append(handle.conn)
            conn_map[id(handle.conn)] = handle
            sentinel = handle.process.sentinel
            objects.append(sentinel)
            sentinel_map[sentinel] = handle

        ready = mpconnection.wait(objects, timeout=self._poll_timeout_s())
        now = time.monotonic_ns()
        deaths: list[WorkerHandle] = []
        for obj in ready:
            if isinstance(obj, int):
                if obj == wake_r:
                    try:
                        os.read(wake_r, 65536)
                    except OSError:
                        pass
                else:
                    handle = sentinel_map.get(obj)
                    if handle is not None and handle.alive:
                        deaths.append(handle)
                continue
            handle = conn_map.get(id(obj))
            if handle is None or not handle.alive:
                continue
            try:
                while handle.conn is not None and handle.conn.poll():
                    self._on_message(handle, handle.conn.recv(), now)
            except (EOFError, OSError):
                if handle.alive:
                    deaths.append(handle)
        for handle in {id(h): h for h in deaths}.values():
            self._on_death(handle, now)
        self._expire_queued(now)
        self._watchdog(now)
        supervisor.due_restarts(now)
        self._heartbeat(now)
        self._dispatch(now)

    def _poll_timeout_s(self) -> float:
        """Sleep until the next timed event (clamped to [5 ms, 200 ms])."""
        now = time.monotonic_ns()
        next_ns: int | None = None

        def consider(candidate: int | None) -> None:
            nonlocal next_ns
            if candidate is not None and (next_ns is None or candidate < next_ns):
                next_ns = candidate

        with self._lock:
            for request in self._queue:
                consider(request.deadline_at_ns)
                if request.not_before_ns:
                    consider(request.not_before_ns)
        consider(self.supervisor.next_restart_ns())
        grace_ns = int(self.config.hang_grace_s * 1e9)
        for handle in self.supervisor.handles:
            if not handle.alive:
                continue
            for batch in handle.in_flight.values():
                if batch.deadline_at_ns is not None:
                    consider(batch.deadline_at_ns + grace_ns)
        if next_ns is None:
            return 0.2
        return min(0.2, max(0.005, (next_ns - now) / 1e9))

    # ------------------------------------------------------------------
    # Worker messages

    def _on_message(self, handle: WorkerHandle, message: tuple, now: int) -> None:
        kind = message[0]
        if kind != "result":
            # ready / pong / error: nothing to resolve.  A pong echoes
            # the ping's monotonic-ns token, so now - token is the
            # heartbeat round trip.
            if kind == "pong" and self._obs.enabled and isinstance(message[1], int):
                self._obs_rtt.observe(max(0, now - message[1]))
            return
        _, batch_id, rows, snapshot = message
        handle.snapshot = snapshot
        batch = handle.in_flight.pop(batch_id, None)
        handle.completed += 1
        handle.consecutive_crashes = 0
        if batch is None:  # pragma: no cover - defensive
            return
        if self._obs.tracer.enabled and batch.dispatched_ns:
            self._obs.tracer.record(
                "service.batch",
                batch.dispatched_ns,
                now,
                tenant=batch.tenant,
                requests=len(batch.requests),
                worker_pid=snapshot.get("pid") if isinstance(snapshot, dict) else None,
            )
        by_id = {request.request_id: request for request in batch.requests}
        config = self.config
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
                    if request.attempts < config.retries and not expired:
                        request.attempts += 1
                        stats.retries += 1
                        tenant_counters["retries"] += 1
                        if self._obs.enabled:
                            self._obs_retries.inc()
                        backoff_s = min(
                            config.retry_backoff_base_s * (2 ** (request.attempts - 1)),
                            config.retry_backoff_max_s,
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

    # ------------------------------------------------------------------
    # Death and re-dispatch

    def _on_death(self, handle: WorkerHandle, now: int) -> None:
        self._absorb_worker_obs(handle)
        orphans = self.supervisor.handle_death(handle, now)
        if not orphans:
            return
        requeue: list[_Request] = []
        with self._lock:
            stats = self._stats
            for batch in orphans:
                for request in batch.requests:
                    if request.response is not None:
                        continue
                    request.re_dispatches += 1
                    stats.re_dispatches += 1
                    if self._obs.enabled:
                        self._obs_redispatches.inc()
                    if request.re_dispatches > self.config.max_redispatches:
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
                    elif (
                        request.deadline_at_ns is not None
                        and now >= request.deadline_at_ns
                    ):
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

    def _expire_queued(self, now: int) -> None:
        with self._lock:
            if not self._queue:
                return
            survivors: deque[_Request] = deque()
            for request in self._queue:
                if request.response is not None:
                    continue
                if request.deadline_at_ns is not None and now >= request.deadline_at_ns:
                    self._resolve_locked(
                        request,
                        "deadline",
                        error=DeadlineExceededError("expired in admission queue"),
                        now=now,
                    )
                else:
                    survivors.append(request)
            self._queue = survivors

    def _watchdog(self, now: int) -> None:
        """SIGKILL workers whose batch overstayed deadline + grace."""
        grace_ns = int(self.config.hang_grace_s * 1e9)
        for handle in self.supervisor.handles:
            if not handle.alive:
                continue
            for batch in handle.in_flight.values():
                if (
                    batch.deadline_at_ns is not None
                    and now > batch.deadline_at_ns + grace_ns
                ):
                    self.supervisor.kill_worker(handle)
                    break

    def _heartbeat(self, now: int) -> None:
        interval_ns = int(self.config.heartbeat_interval_s * 1e9)
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

    def _dispatch(self, now: int) -> None:
        supervisor = self.supervisor
        assignments: list[tuple[WorkerHandle, Batch]] = []
        with self._lock:
            for worker in supervisor.live_idle_workers():
                if not self._queue:
                    break
                chosen: list[_Request] = []
                skipped: list[_Request] = []
                tenant: str | None = None
                while self._queue and len(chosen) < self.config.max_batch:
                    request = self._queue.popleft()
                    if request.response is not None:
                        continue
                    if (
                        request.deadline_at_ns is not None
                        and now >= request.deadline_at_ns
                    ):
                        self._resolve_locked(
                            request,
                            "deadline",
                            error=DeadlineExceededError("expired in admission queue"),
                            now=now,
                        )
                        continue
                    if request.not_before_ns > now:
                        skipped.append(request)
                        continue
                    if tenant is None:
                        if not self._breaker(request.tenant).allows(now):
                            skipped.append(request)
                            continue
                        tenant = request.tenant
                    elif request.tenant != tenant:
                        skipped.append(request)
                        continue
                    chosen.append(request)
                self._queue.extendleft(reversed(skipped))
                if not chosen:
                    break
                assert tenant is not None
                breaker = self._breaker(tenant)
                breaker.mark_dispatched()
                deadlines = [
                    r.deadline_at_ns for r in chosen if r.deadline_at_ns is not None
                ]
                batch = Batch(
                    batch_id=supervisor.next_batch_id(),
                    tenant=tenant,
                    requests=chosen,
                    deadline_at_ns=min(deadlines) if deadlines else None,
                )
                self._stats.batches += 1
                self._stats.batched_requests += len(chosen)
                assignments.append((worker, batch))
        for worker, batch in assignments:
            if not supervisor.dispatch(worker, batch):
                # The worker died between wait() and send: requeue via
                # the normal death path (counts a re-dispatch).
                worker.in_flight[batch.batch_id] = batch
                self._on_death(worker, now)

    # ------------------------------------------------------------------
    # Observability

    def _absorb_worker_obs(self, handle: WorkerHandle) -> None:
        """Merge a worker's last metric snapshot into the own registry.

        Worker snapshots are cumulative registry state, so each one is
        folded exactly once — at worker death or service stop — and
        then blanked to keep later merges from double counting.
        """
        if not self._obs.enabled or not isinstance(handle.snapshot, dict):
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
        """Service observability, merged into the resilience shape.

        ``["resilience"]`` aggregates the *live* workers' selector
        counters (a restarted worker starts fresh) and nests the
        :class:`ServiceStats` block under ``["resilience"]["service"]``
        — breaker snapshots (with full transition logs), queue depth,
        shed/retry/re-dispatch counts, and the supervisor's
        restart/kill totals.
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
            service["breaker_transitions"] = [
                list(t)
                for breaker in self._breakers.values()
                for t in breaker.transitions
            ]
        service["supervisor"] = self.supervisor.stats()
        service["loop_errors"] = list(self._loop_errors)
        resilience["service"] = service
        obs_view: dict[str, object] | None = None
        if self._obs.enabled:
            obs_view = self._merged_obs_registry().flatten()
            for key in (
                "submitted",
                "completed_ok",
                "completed_failed",
                "retries",
                "re_dispatches",
                "shed",
                "breaker_fastfail",
                "deadline_failures",
                "poison_pills",
                "batches",
                "batched_requests",
                "queue_depth",
                "queue_depth_high_water",
            ):
                obs_view[f"service_{key}"] = service[key]
        return {
            "resilience": resilience,
            "service": service,
            "workers": [handle.as_row() for handle in self.supervisor.handles],
            "obs": obs_view,
        }
