"""Observability: span tracing, unified metrics, exporters.

The subsystem has three layers:

* :mod:`repro.obs.trace` — nanosecond span tracer with parent links and
  a bounded ring buffer.
* :mod:`repro.obs.metrics` — counters and exactly-mergeable log-linear
  latency histograms (within 1/16) behind one registry.
* :mod:`repro.obs.export` — Prometheus text exposition, JSONL trace
  dumps, and the ``python -m repro.obs`` render CLI.

:class:`Observability` bundles one tracer + one registry.  Disabled
observability is ``None``: :func:`resolve_obs` maps ``observe=None``
to ``None``, and instrumented code guards hot work with one
``is not None`` check, paying nothing else when observability is off::

    obs = Observability()
    selector = Selector(grammar, config=SelectorConfig(observe=obs))
    ...
    print(obs.metrics.flatten())
    write_trace(path, obs.tracer.spans())
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import Counter, Histogram, MetricsRegistry, metric_key, percentile
from repro.obs.trace import Span, Tracer, spans_by_name

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
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

    def __init__(self, *, trace_capacity: int = 4096) -> None:
        self.tracer = Tracer(capacity=trace_capacity)
        self.metrics = MetricsRegistry()

    def clear(self) -> None:
        self.tracer.clear()
        self.metrics.clear()

    def __repr__(self) -> str:
        return f"Observability(tracer={self.tracer!r}, metrics={self.metrics!r})"


def resolve_obs(obs: Any) -> Observability | None:
    """Normalize an ``observe=``/``obs=`` argument to a bundle.

    ``None``/``False`` mean disabled (``None``), ``True`` builds a
    fresh bundle, and an existing bundle passes through.
    """
    if obs is None or obs is False:
        return None
    if obs is True:
        return Observability()
    return obs
