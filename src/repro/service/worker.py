"""Worker process: serves ``select_many`` batches over a duplex pipe.

One worker process per supervisor slot.  Each worker builds a tenant's
:class:`Selector` on the tenant's first batch, as the paper's on-demand
automaton: nothing is compiled or loaded up front, and each tree shape
is labeled by dynamic programming the first time the worker sees it,
inside the request's own label walk and under its deadline.

Wire protocol (tuples over one ``multiprocessing.Pipe``; the parent
pickles a batch with :func:`~repro.service.supervisor.encode_batch`
and nodes travel through :class:`~repro.ir.node.Node`'s compact
reduction):

parent → worker
    ``("batch", tenant, [(request_id, forest), ...], deadline_at_ns)``
        One coalesced batch for one tenant; *deadline_at_ns* is the
        batch's absolute ``monotonic_ns`` deadline (system-wide on
        Linux, so comparable across processes) or ``None``.  The parent
        sends a worker its next batch only after the ``result`` of the
        last one (stop-and-wait), so messages carry no batch id.
    ``("ping", token)`` — heartbeat probe.
    ``("stop",)`` — orderly shutdown.

worker → parent
    ``("result", rows, snapshot)`` — *rows* is one
        ``(request_id, status, payload)`` triple per request, where
        *status* is ``"ok"`` (payload: per-root semantic values),
        ``"failure"`` (payload: the
        :class:`~repro.selection.resilience.SelectionFailure`), or
        ``"deadline"`` (payload: a message string); *snapshot* carries
        the worker's pid, its resilience counters summed across tenant
        selectors for ``stats()`` merging, and (when observing) its
        metrics registry.
    ``("undecodable", reason)`` — the reply to a batch that arrived
        whole but raised while unpickling (a payload whose reduction
        fails here); the parent then finds the request at fault and
        fails it alone.
    ``("pong", token)`` — heartbeat reply.

Fault contract: selection runs ``on_error="isolate"`` so per-forest
faults come back as typed ``failure`` rows; a whole-batch
:class:`~repro.errors.DeadlineExceededError` becomes ``deadline`` rows.
``BaseException`` (simulated crashes, ``os._exit`` in a poisoned
action, SIGKILL) takes the process down — that is the supervisor's
department: the pipe sentinel fires and the worker's batch is
re-dispatched.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import DeadlineExceededError, ServiceError
from repro.selection.resilience import SelectionFailure, new_resilience_counters
from repro.selection.selector import Selector, SelectorConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.grammar.grammar import Grammar
    from repro.obs import Observability

__all__ = ["WorkerSettings", "worker_main"]


@dataclass(frozen=True)
class WorkerSettings:
    """Per-worker knobs, inherited at fork time.

    Tenant selectors label on demand, and batches run with
    ``collect_cover=False``: the service serves values, not reports.

    Attributes:
        context_factory: Builds a fresh emit context per batch (``None``
            → actions run with ``context=None``).
        observe: Build a worker-local
            :class:`~repro.obs.Observability` bundle and wire it
            through the tenant selectors; its metrics snapshot rides
            home on every ``result`` tuple for supervisor-side
            aggregation.
    """

    context_factory: Callable[[], Any] | None = None
    observe: bool = False


def _failure_rows(requests: list[tuple[int, Any]], error: Exception) -> list[tuple]:
    """One typed ``failure`` row per request, sharing one exception."""
    return [
        (rid, "failure", SelectionFailure(i, getattr(f, "name", "?"), "validate", error))
        for i, (rid, f) in enumerate(requests)
    ]


def _serve_batch(
    selectors: dict[str, Selector],
    tenants: dict[str, "Grammar"],
    settings: WorkerSettings,
    obs: "Observability | None",
    tenant: str,
    requests: list[tuple[int, Any]],
    deadline_at_ns: int | None,
) -> list[tuple]:
    """Run one batch and return its ``(request_id, status, payload)`` rows."""
    if deadline_at_ns is not None and time.monotonic_ns() > deadline_at_ns:
        return [(rid, "deadline", "expired before worker pickup") for rid, _ in requests]

    grammar = tenants.get(tenant)
    if grammar is None:
        return _failure_rows(requests, ServiceError(f"unknown tenant {tenant!r}"))

    selector = selectors.get(tenant)
    if selector is None:
        # First touch: an on-demand selector builds no tables up front;
        # the batch below labels its shapes under the request deadline.
        try:
            selector = Selector(grammar, config=SelectorConfig(observe=obs))
        except Exception as exc:
            return _failure_rows(requests, exc)
        selectors[tenant] = selector

    context = settings.context_factory() if settings.context_factory is not None else None
    forests = [forest for _, forest in requests]
    try:
        result = selector.select_many(
            forests,
            context=context,
            on_error="isolate",
            collect_cover=False,
            deadline_at_ns=deadline_at_ns,
        )
    except DeadlineExceededError as exc:
        return [(rid, "deadline", str(exc)) for rid, _ in requests]

    rows: list[tuple] = []
    for (rid, _), value in zip(requests, result.values):
        if isinstance(value, SelectionFailure):
            rows.append((rid, "failure", value))
        else:
            rows.append((rid, "ok", value))
    return rows


def _merge_counters(total: dict[str, Any], part: dict[str, Any]) -> None:
    for key, value in part.items():
        if isinstance(value, dict):
            slot = total.setdefault(key, {})
            for inner, count in value.items():
                if isinstance(count, int):
                    slot[inner] = slot.get(inner, 0) + count
        elif isinstance(value, int) and isinstance(total.get(key, 0), int):
            total[key] = total.get(key, 0) + value


def _snapshot(selectors: dict[str, Selector], obs: Any = None) -> dict[str, Any]:
    """The worker's resilience view, summed across its tenant selectors."""
    resilience = new_resilience_counters()
    for selector in selectors.values():
        _merge_counters(resilience, selector.resilience_stats())
    snapshot = {"pid": os.getpid(), "resilience": resilience}
    if obs is not None:
        # Cumulative (not delta) registry state: the supervisor keeps
        # only each worker's latest snapshot and merges once.
        snapshot["obs"] = obs.metrics.snapshot()
    return snapshot


def _sanitize_rows(rows: list[tuple]) -> list[tuple]:
    """Replace unpicklable payloads with typed, picklable failures.

    A tenant action can return anything — including objects that
    cannot cross the pipe.  Each offending row degrades to a
    ``failure`` with a :class:`ServiceError`; picklable rows pass
    through untouched.
    """
    safe: list[tuple] = []
    for rid, status, payload in rows:
        try:
            pickle.dumps(payload)
        except Exception as exc:
            error: Exception = ServiceError(
                f"unpicklable {status} payload ({type(exc).__name__}: {exc})"
            )
            if isinstance(payload, SelectionFailure):
                payload = SelectionFailure(
                    payload.index,
                    payload.forest,
                    payload.phase,
                    ServiceError(f"{payload.error_type}: {payload.error}"),
                    payload.node,
                    payload.roots_completed,
                )
            else:
                payload = SelectionFailure(0, "?", "reduce", error)
            safe.append((rid, "failure", payload))
        else:
            safe.append((rid, status, payload))
    return safe


def _safe_send(conn: "Connection", message: tuple) -> None:
    """Send, degrading unpicklable result rows instead of dying."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):  # parent gone: nothing to report to
        raise
    except Exception:
        if message[0] != "result":
            raise
        kind, rows, snapshot = message
        conn.send((kind, _sanitize_rows(rows), snapshot))


def worker_main(
    conn: "Connection",
    tenants: dict[str, "Grammar"],
    settings: WorkerSettings,
) -> None:
    """Worker process entry point (forked by the supervisor)."""
    obs = None
    if settings.observe:
        from repro.obs import Observability

        obs = Observability(trace_capacity=1024)
    selectors: dict[str, Selector] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died or closed: exit quietly
            return
        except Exception as exc:  # noqa: BLE001 - a payload failed to unpickle
            # recv consumed the whole message, so the pipe is still in step.
            conn.send(("undecodable", f"{type(exc).__name__}: {exc}"))
            continue
        kind = message[0]
        if kind == "stop":
            return
        if kind == "ping":
            conn.send(("pong", message[1]))
            continue
        _, tenant, requests, deadline_at_ns = message
        rows = _serve_batch(
            selectors, tenants, settings, obs, tenant, requests, deadline_at_ns
        )
        _safe_send(conn, ("result", rows, _snapshot(selectors, obs)))
