"""Observability: span tracing, unified metrics, exporters.

The subsystem has three layers:

* :mod:`repro.obs.trace` — nanosecond span tracer with parent links and
  a bounded ring buffer (plus the span-native ``Timer``).
* :mod:`repro.obs.metrics` — counters, gauges, and exactly-mergeable
  log-linear latency histograms (within 1/16) behind one registry.
* :mod:`repro.obs.export` — Prometheus text exposition, JSONL trace
  dumps, and the ``python -m repro.obs`` render CLI.

:class:`Observability` bundles one tracer + one registry; the
process-wide :data:`NULL_OBS` is the disabled bundle — every component
answers ``enabled = False``, so instrumented code guards hot work with
a single attribute check and pays nothing when observability is off::

    obs = Observability()
    selector = Selector(grammar, config=SelectorConfig(observe=obs))
    ...
    print(obs.metrics.flatten())
    write_trace(path, obs.tracer.spans())
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metric_key,
    percentile,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Timer,
    Tracer,
    spans_by_name,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullObservability",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "Span",
    "Timer",
    "Tracer",
    "metric_key",
    "percentile",
    "resolve_obs",
    "spans_by_name",
]


class Observability:
    """One tracer + one metrics registry, handed through the stack.

    ``SelectorConfig(observe=obs)`` and ``SelectionService(..., obs=obs)``
    both accept the same bundle, so a single instance sees the whole
    request path (the service's workers build their tenant selectors
    with bundles of their own, whose metrics ride home on every reply).
    """

    enabled = True

    def __init__(self, *, trace_capacity: int = 4096) -> None:
        self.tracer = Tracer(capacity=trace_capacity)
        self.metrics = MetricsRegistry()

    def clear(self) -> None:
        self.tracer.clear()
        self.metrics.clear()

    def __repr__(self) -> str:
        return f"Observability(tracer={self.tracer!r}, metrics={self.metrics!r})"


class NullObservability:
    """The disabled bundle: null tracer + null registry, all no-ops."""

    enabled = False
    tracer = NULL_TRACER
    metrics = NULL_REGISTRY

    def clear(self) -> None:
        return None

    def __repr__(self) -> str:
        return "NullObservability()"


#: The process-wide disabled bundle (safe to share: it holds no state).
NULL_OBS = NullObservability()


def resolve_obs(obs: Any) -> "Observability | NullObservability":
    """Normalize an ``observe=``/``obs=`` argument to a bundle.

    ``None``/``False`` mean disabled, ``True`` builds a fresh bundle,
    and an existing bundle passes through.
    """
    if obs is None or obs is False:
        return NULL_OBS
    if obs is True:
        return Observability()
    return obs
