"""Tests for the observability subsystem (``repro.obs``).

Layered like the package: the log-linear histogram algebra first —
including the exact-merge contract across a real ``fork()`` boundary,
the property the service's worker-snapshot aggregation rests on — then
the span tracer (parenting, ring bound), the exporters (JSONL
round-trip through the ``python -m repro.obs render`` CLI, Prometheus
text exposition), and the selector/service wiring (disabled
observability is ``None`` and leaves no footprint, and the registry
mirrors no count that ``stats()`` keeps).
"""

from __future__ import annotations

import json
import multiprocessing

from repro.bench.workloads import bench_grammar, random_forests
from repro.metrics import LabelMetrics
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observability,
    Tracer,
    metric_key,
    percentile,
    resolve_obs,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.export import load_trace, to_prometheus, trace_summary, write_trace
from repro.selection import Selector
from repro.selection.selector import SelectorConfig
from repro.service import SelectionService, ServiceConfig
from repro.testing import poison_action


def _forests(seed: int = 21, n: int = 3):
    return random_forests(seed, forests=n, statements=4, max_depth=3)


# ----------------------------------------------------------------------
# Histograms and percentiles


def test_percentile_is_nearest_rank():
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 50) == 30
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 50
    assert percentile([], 99) is None
    assert percentile([7], 99) == 7


def test_histogram_quantiles_bound_by_observed_extremes():
    h = Histogram()
    for v in (3, 5, 1000, 70_000):
        h.observe(v)
    assert h.count == 4
    assert h.sum == 3 + 5 + 1000 + 70_000
    assert h.quantile(0.0) >= h.min
    assert h.quantile(1.0) == h.max
    # A quantile is a bucket upper bound clamped into [min, max].
    for q in (0.5, 0.95, 0.99):
        assert h.min <= h.quantile(q) <= h.max


def test_histogram_quantile_is_within_a_sixteenth():
    # Latencies around 7.70 ms: log2 buckets answered 2^23 - 1 ns
    # (8.39 ms, +9%) for the p50; log-linear buckets land within 1/16.
    import random

    rng = random.Random(7)
    values = [int(rng.gauss(7.70e6, 0.5e6)) for _ in range(1001)]
    true_p50 = percentile(values, 50)
    estimate = Histogram.of(values).quantile(0.5)
    assert true_p50 <= estimate < true_p50 * (1 + 1 / 16)

    # The bound holds at every magnitude: a bucket's upper bound is
    # less than 1/16 above anything it holds.
    for value in [rng.randrange(1, 1 << bits) for bits in range(1, 63) for _ in range(20)]:
        upper = Histogram.bucket_upper(Histogram.bucket_index(value))
        assert value <= upper < value + max(1, value / 16)


def test_histogram_merge_is_exact():
    import random

    rng = random.Random(5)
    values = [rng.randrange(1, 1 << 40) for _ in range(500)]
    left, right = Histogram.of(values[:200]), Histogram.of(values[200:])
    merged = Histogram.of(values[:200]).merge(right)
    whole = Histogram.of(values)
    assert merged.snapshot() == whole.snapshot()
    # merge() also accepts a plain snapshot dict (the fork-crossing form).
    from_snapshot = left.merge(Histogram.of(values[200:]).snapshot())
    assert from_snapshot.snapshot() == whole.snapshot()
    for q in (0.5, 0.95, 0.99):
        assert merged.quantile(q) == whole.quantile(q)
    # Snapshots carry the non-zero buckets only, so a worker reply does
    # not grow with the bucket count.
    buckets = whole.snapshot()["buckets"]
    assert all(count > 0 for _, count in buckets)
    assert sum(count for _, count in buckets) == len(values)
    assert len(buckets) <= len(set(values))


def _child_histogram(conn, values):
    registry = MetricsRegistry()
    h = registry.histogram("fork_ns", side="child")
    for v in values:
        h.observe(v)
    registry.counter("fork_events_total").inc(len(values))
    conn.send(registry.snapshot())
    conn.close()


def test_histogram_merge_exact_across_fork_boundary():
    """A worker-side registry snapshot merges losslessly in the parent.

    This is the exact contract the selection service relies on: each
    worker pickles ``registry.snapshot()`` onto its reply tuple and the
    supervisor folds it in with ``merge_snapshot`` — the merged
    histogram must be indistinguishable from one process having
    observed every value.
    """
    import random

    rng = random.Random(9)
    child_values = [rng.randrange(1, 1 << 32) for _ in range(100)]
    parent_values = [rng.randrange(1, 1 << 32) for _ in range(100)]

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_child_histogram, args=(child_conn, child_values))
    proc.start()
    snapshot = parent_conn.recv()
    proc.join(10.0)
    assert proc.exitcode == 0

    registry = MetricsRegistry()
    h = registry.histogram("fork_ns", side="child")
    for v in parent_values:
        h.observe(v)
    registry.merge_snapshot(snapshot)

    whole = Histogram.of(child_values + parent_values)
    assert h.snapshot() == whole.snapshot()
    assert h.quantile(0.5) == whole.quantile(0.5)
    assert h.quantile(0.99) == whole.quantile(0.99)
    assert registry.counters[metric_key("fork_events_total", {})].value == len(child_values)


# ----------------------------------------------------------------------
# Span tracer


def test_tracer_spans_nest_and_carry_parent_links():
    # Spans are recorded pre-measured, child first, linked to a parent
    # id allocated up front (as the pipeline records its phases).
    tracer = Tracer(capacity=16)
    outer_id = tracer.next_id()
    inner_id = tracer.record("inner", 20, 30, parent_id=outer_id)
    assert tracer.record("outer", 10, 40, span_id=outer_id, kind="test") == outer_id
    spans = tracer.spans()
    assert [s.name for s in spans] == ["inner", "outer"]
    inner, outer = spans
    assert inner.span_id == inner_id != outer_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert inner.duration_ns == 10
    assert outer.attrs == {"kind": "test"}
    assert tracer.recorded == 2


def test_tracer_ring_is_bounded_but_counts_everything():
    tracer = Tracer(capacity=4)
    for i in range(10):
        tracer.record(f"s{i}", 0, 1)
    assert tracer.recorded == 10
    assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]


def test_resolve_obs_normalizes_the_observe_argument():
    assert resolve_obs(None) is None
    assert resolve_obs(False) is None
    fresh = resolve_obs(True)
    assert isinstance(fresh, Observability)
    bundle = Observability()
    assert resolve_obs(bundle) is bundle


# ----------------------------------------------------------------------
# Exporters: JSONL round-trip, render CLI, Prometheus text


def test_trace_jsonl_round_trips_through_render(tmp_path, capsys):
    tracer = Tracer(capacity=64)
    base = 1_000_000
    for i, tenant in enumerate(["a", "a", "b"]):
        tracer.record(
            "service.request",
            base,
            base + (i + 1) * 1000,
            tenant=tenant,
            status="ok",
        )
    tracer.record("pipeline.label", base, base + 500, nodes=12)
    spans = tracer.spans()

    path = tmp_path / "trace.jsonl"
    assert write_trace(path, spans) == 4
    loaded = load_trace(path)
    assert [s.as_dict() for s in loaded] == [s.as_dict() for s in spans]

    # Table render names every span family and every tenant.
    assert obs_main(["render", str(path)]) == 0
    out = capsys.readouterr().out
    assert "service.request" in out and "pipeline.label" in out
    assert "tenant" in out

    # --json emits exactly trace_summary().
    assert obs_main(["render", str(path), "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == json.loads(json.dumps(trace_summary(loaded)))
    assert summary["per_tenant"]["a"]["count"] == 2
    durations = [s.duration_ns for s in spans if s.attrs.get("tenant") == "a"]
    assert summary["per_tenant"]["a"]["latency_p50_ns"] == Histogram.of(durations).quantile(0.5)


def test_prometheus_exposition_from_registry_and_snapshot(tmp_path, capsys):
    registry = MetricsRegistry()
    registry.counter("requests_total", tenant="a").inc(3)
    h = registry.histogram("latency_ns", tenant="a")
    for v in (1, 2, 1000):
        h.observe(v)
    text = to_prometheus(registry)
    assert '# TYPE requests_total counter' in text
    assert 'requests_total{tenant="a"} 3' in text
    # Bucket samples are cumulative, at the non-zero buckets' upper
    # bounds (1000 lands in [992, 1023]), and end at +Inf == _count.
    assert 'latency_ns_bucket{tenant="a",le="1"} 1' in text
    assert 'latency_ns_bucket{tenant="a",le="2"} 2' in text
    assert 'latency_ns_bucket{tenant="a",le="1023"} 3' in text
    assert text.count("latency_ns_bucket") == 4
    assert 'latency_ns_bucket{tenant="a",le="+Inf"} 3' in text
    assert 'latency_ns_count{tenant="a"} 3' in text
    assert 'latency_ns_sum{tenant="a"} 1003' in text

    # The prom subcommand renders the same text from a snapshot dump.
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(registry.snapshot()))
    assert obs_main(["prom", str(path)]) == 0
    assert capsys.readouterr().out == text


# ----------------------------------------------------------------------
# Selector and service wiring


def test_selector_disabled_observability_is_the_null_path():
    selector = Selector(bench_grammar())
    assert selector._obs is None
    assert selector.stats()["obs"] is None
    selector.select_many(_forests(), collect_cover=False)
    # Nothing to record into: no metric objects were made, no view appears.
    assert not hasattr(selector, "_obs_batches")
    assert selector._obs is None
    assert selector.stats()["obs"] is None


def test_selector_records_pipeline_phases_and_metrics():
    obs = Observability()
    selector = Selector(bench_grammar(), config=SelectorConfig(observe=obs))
    forests = _forests()
    selector.select_many(forests, collect_cover=False)
    names = {s.name for s in obs.tracer.spans()}
    assert {"pipeline.select", "pipeline.label", "pipeline.emit"} <= names
    select = next(s for s in obs.tracer.spans() if s.name == "pipeline.select")
    label = next(s for s in obs.tracer.spans() if s.name == "pipeline.label")
    assert label.parent_id == select.span_id
    assert select.attrs["forests"] == len(forests)

    flat = selector.stats()["obs"]
    assert flat["pipeline_batches_total"] == 1
    assert flat["pipeline_nodes_total"] == sum(f.node_count() for f in forests)
    key = 'pipeline_phase_ns_count{phase="label"}'
    assert flat[key] == 1


def test_service_worker_metrics_cross_the_fork(tmp_path, capsys):
    """Worker-side pipeline/cache metrics surface in the service's obs view."""
    obs = Observability()
    tenants = {"bench": bench_grammar()}
    forests = _forests(seed=31, n=4)
    config = ServiceConfig(workers=1, seed=3)
    with SelectionService(tenants, tmp_path, config, obs=obs) as service:
        futures = [service.submit("bench", f) for f in forests]
        responses = [f.result(60.0) for f in futures]
        assert all(r.ok for r in responses)
        stats = service.stats()
    flat = stats["obs"]
    # Worker-side counters crossed the fork on the reply tuples...
    assert flat["pipeline_batches_total"] >= 1
    assert flat["pipeline_nodes_total"] > 0
    # ...and supervisor-side request accounting agrees with the responses.
    key = 'service_requests_total{status="ok",tenant="bench"}'
    assert flat[key] == len(responses)
    latency_count = 'service_request_latency_ns_count{tenant="bench"}'
    assert flat[latency_count] == len(responses)

    # After stop() the worker registries are absorbed into the bundle, so
    # an exported trace + metrics view agrees with the live stats().
    merged = obs.metrics.flatten()
    assert merged["pipeline_batches_total"] == flat["pipeline_batches_total"]
    request_spans = [s for s in obs.tracer.spans() if s.name == "service.request"]
    assert len(request_spans) == len(responses)
    # The acceptance invariant: span durations are exactly the latencies
    # the latency histogram observed.
    histogram = obs.metrics.histograms[
        metric_key("service_request_latency_ns", {"tenant": "bench"})
    ]
    rebuilt = Histogram.of([s.duration_ns for s in request_spans])
    assert rebuilt.snapshot() == histogram.snapshot()

    # A trace dump of the run reports the live histogram's percentiles.
    path = tmp_path / "trace.jsonl"
    write_trace(path, obs.tracer.spans())
    rendered = trace_summary(load_trace(path))["per_tenant"]["bench"]
    assert rendered["count"] == len(responses)
    assert rendered["latency_p50_ns"] == histogram.quantile(0.5)
    assert rendered["latency_p99_ns"] == histogram.quantile(0.99)
    assert obs_main(["render", str(path)]) == 0
    assert "service.request" in capsys.readouterr().out
    prom = to_prometheus(obs.metrics)
    assert "# TYPE service_request_latency_ns histogram" in prom
    assert 'service_requests_total{status="ok",tenant="bench"}' in prom


def test_service_registry_holds_no_queue_gauge_or_mirrored_counts(tmp_path):
    """After a burst drains, nothing in the registry still reads the
    burst's queue depth: the depth lives in ``stats()["service"]`` only,
    and so do the retry, re-dispatch and breaker-transition counts and
    every other service count."""
    obs = Observability()
    forests = _forests(seed=37, n=12)
    with SelectionService(
        {"bench": bench_grammar()}, tmp_path, ServiceConfig(workers=1, seed=3), obs=obs
    ) as service:
        futures = [service.submit("bench", f) for f in forests]
        assert all(f.result(60.0).ok for f in futures)
        assert service.drain(10.0)
        stats = service.stats()
        prom = to_prometheus(obs.metrics)
    assert stats["service"]["queue_depth"] == 0
    assert stats["service"]["queue_depth_high_water"] >= 1
    for name in (
        "service_queue_depth",
        "service_retries_total",
        "service_redispatches_total",
        "service_breaker_transitions_total",
    ):
        assert name not in prom
    assert 'service_requests_total{status="ok",tenant="bench"} 12' in prom
    # stats() says each count once: none of the ServiceStats counts
    # comes back again in the flattened registry.
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
        assert f"service_{key}" not in stats["obs"]


def test_selector_stats_say_each_count_once():
    """``stats()`` keeps six blocks, and its obs view is the registry
    itself: no labeling, selection or resilience count comes back in it
    under another name."""
    grammar = bench_grammar()
    stmt = next(r for r in grammar.rules if r.lhs == "stmt" and r.pattern.symbol == "EXPR")
    poison_action(stmt, on_call=1)  # fails the batch's first forest only
    obs = Observability()
    selector = Selector(grammar, config=SelectorConfig(observe=obs))
    forests = _forests(seed=41, n=3)
    selector.label_many(forests, LabelMetrics())
    result = selector.select_many(forests, on_error="isolate")
    assert len(result.failures) == 1

    stats = selector.stats()
    assert set(stats) == {"grammar", "mode", "tables", "selection", "resilience", "obs"}
    assert stats["resilience"]["isolated_failures"] == 1
    flat = stats["obs"]
    assert flat == obs.metrics.flatten()
    assert flat["pipeline_failures_total"] == 1
    mirrored = [
        key for key in flat if key.startswith(("selection_", "resilience_", "labeling_"))
    ]
    assert mirrored == []


def test_service_disabled_observability_reports_none(tmp_path):
    tenants = {"bench": bench_grammar()}
    with SelectionService(tenants, tmp_path, ServiceConfig(workers=1, seed=3)) as service:
        assert service._obs is None
        future = service.submit("bench", _forests(n=1)[0])
        assert future.result(60.0).ok
        assert service.stats()["obs"] is None
        # The worker ran without a bundle: its snapshot carries no metrics.
        assert all("obs" not in h.snapshot for h in service.supervisor.handles)
