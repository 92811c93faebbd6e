"""Exporters: Prometheus text exposition, JSONL trace dumps, renders.

Three output shapes, all built from the in-memory tracer/registry:

* :func:`to_prometheus` — the plain-text exposition format any
  Prometheus-compatible scraper ingests (counters, gauges, and
  histograms flattened to ``_count``/``_sum``/``_min``/``_max``/
  quantile samples).
* :func:`write_trace` / :func:`load_trace` — a JSONL dump of spans,
  one :meth:`Span.as_dict` object per line, loss-free both ways.
* :func:`render_trace` — per-phase and per-tenant latency summaries of
  a dump.  Per-tenant ``service.request`` quantiles are computed by
  rebuilding the same :class:`~repro.obs.metrics.Histogram` the live
  service metrics use, so a render of a service's trace reproduces its
  ``service_request_latency_ns`` p50/p99 exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.metrics.tables import format_table
from repro.obs.metrics import Histogram, MetricsRegistry, percentile
from repro.obs.trace import Span, spans_by_name

__all__ = [
    "load_trace",
    "render_trace",
    "to_prometheus",
    "trace_summary",
    "write_trace",
]


# ----------------------------------------------------------------------
# Prometheus text exposition


def _prom_line(name: str, labels: str, value: Any) -> str:
    if value is None:
        value = "NaN"
    return f"{name}{labels} {value}"


def _split_key(key: str) -> tuple[str, str]:
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def _label_join(labels: str, extra: str) -> str:
    """Append one ``k="v"`` pair to a ``{...}`` label block ("" allowed)."""
    if not labels:
        return f"{{{extra}}}"
    return f"{labels[:-1]},{extra}}}"


def to_prometheus(source: "MetricsRegistry | dict[str, Any]") -> str:
    """Render a registry (or its snapshot) as Prometheus text format.

    Histograms expose cumulative ``_bucket`` samples with ``le`` bounds
    (log2 upper bounds, then ``+Inf``) plus ``_count``/``_sum``, so
    standard ``histogram_quantile`` queries work unmodified.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    lines: list[str] = []
    seen_types: set[str] = set()

    def declare(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(snapshot.get("counters", {})):
        name, labels = _split_key(key)
        declare(name, "counter")
        lines.append(_prom_line(name, labels, snapshot["counters"][key]))
    for key in sorted(snapshot.get("gauges", {})):
        name, labels = _split_key(key)
        declare(name, "gauge")
        lines.append(_prom_line(name, labels, snapshot["gauges"][key]))
    for key in sorted(snapshot.get("histograms", {})):
        name, labels = _split_key(key)
        hist = snapshot["histograms"][key]
        declare(name, "histogram")
        cumulative = 0
        for index, bucket_count in enumerate(hist["counts"]):
            if not bucket_count:
                continue
            cumulative += bucket_count
            bound = Histogram.bucket_upper(index)
            lines.append(
                _prom_line(
                    f"{name}_bucket", _label_join(labels, f'le="{bound}"'), cumulative
                )
            )
        lines.append(
            _prom_line(f"{name}_bucket", _label_join(labels, 'le="+Inf"'), hist["count"])
        )
        lines.append(_prom_line(f"{name}_count", labels, hist["count"]))
        lines.append(_prom_line(f"{name}_sum", labels, hist["sum"]))
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# JSONL trace dumps


def write_trace(path: str | Path, spans: Iterable[Span]) -> int:
    """Dump *spans* as JSONL (one object per line); returns the count."""
    path = Path(path)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.as_dict(), sort_keys=True))
            handle.write("\n")
            written += 1
    return written


def load_trace(path: str | Path) -> list[Span]:
    """Load a JSONL trace dump back into :class:`Span` objects."""
    spans: list[Span] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# ----------------------------------------------------------------------
# Render: summarize a trace dump into latency tables


def trace_summary(spans: Iterable[Span]) -> dict[str, Any]:
    """Machine-readable per-phase and per-tenant summary of *spans*.

    ``per_phase`` holds nearest-rank percentiles over the raw span
    durations of each span name.  ``per_tenant`` summarizes
    ``service.request`` spans grouped by their ``tenant`` attribute
    through :class:`Histogram` — the same class the service metrics
    use, so these numbers match the live latency histograms of the same
    requests.
    """
    groups = spans_by_name(spans)
    per_phase: dict[str, dict[str, Any]] = {}
    for name in sorted(groups):
        durations = [span.duration_ns for span in groups[name]]
        per_phase[name] = {
            "count": len(durations),
            "total_ns": sum(durations),
            "p50_ns": percentile(durations, 50.0),
            "p95_ns": percentile(durations, 95.0),
            "p99_ns": percentile(durations, 99.0),
        }

    per_tenant: dict[str, dict[str, Any]] = {}
    by_tenant: dict[str, list[int]] = {}
    for span in groups.get("service.request", []):
        tenant = str(span.attrs.get("tenant", "?"))
        by_tenant.setdefault(tenant, []).append(span.duration_ns)
    for tenant in sorted(by_tenant):
        histogram = Histogram.of(by_tenant[tenant])
        per_tenant[tenant] = {
            "count": histogram.count,
            "latency_p50_ns": histogram.quantile(0.50),
            "latency_p95_ns": histogram.quantile(0.95),
            "latency_p99_ns": histogram.quantile(0.99),
        }
    return {"per_phase": per_phase, "per_tenant": per_tenant}


def render_trace(spans: Iterable[Span]) -> str:
    """Human-readable render of :func:`trace_summary` (two tables)."""
    summary = trace_summary(list(spans))
    sections: list[str] = []

    phase_rows = [
        {"span": name, **stats} for name, stats in summary["per_phase"].items()
    ]
    if phase_rows:
        sections.append(
            format_table(
                phase_rows,
                columns=["span", "count", "total_ns", "p50_ns", "p95_ns", "p99_ns"],
                title="spans by name",
            )
        )
    else:
        sections.append("(no spans)")

    tenant_rows = [
        {"tenant": tenant, **stats} for tenant, stats in summary["per_tenant"].items()
    ]
    if tenant_rows:
        sections.append(
            format_table(
                tenant_rows,
                columns=[
                    "tenant",
                    "count",
                    "latency_p50_ns",
                    "latency_p95_ns",
                    "latency_p99_ns",
                ],
                title="service requests by tenant",
            )
        )
    return "\n\n".join(sections) + "\n"
