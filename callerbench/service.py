"""The ``service_clients`` workload: independent clients on ``SelectionService``.

Requests (70% ``bench``, 30% ``dyn`` tenant, over pre-generated forests)
go to a ``SelectionService`` with one forked worker.  Every response is
checked against an in-process DP/reducer selector over the same forest.

- The end-to-end figures come from a closed loop: ``CLIENTS`` clients,
  each sending its next request as soon as its last one resolves.  The
  service stays busy, so its time is work the calibration loop can
  rescale rather than idle wake-ups, which on a shared host swing far
  more than the work does.
- The traced run drives an open loop instead: Poisson arrivals at a
  fixed rate, each request timed from its scheduled due time (the
  generator's lateness plus the service's ``latency_ns``), which gives
  the service's per-layer rows, its tail and the generator's lag.

Processes: the clients and the service's event thread share this
process; the worker is the second process, so the workload fits a
two-core machine.
"""

from __future__ import annotations

import gc
import pickle
import random
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any

from engine import emit_all, emitter_for
from inputs import SERVICE_POOL, SERVICE_TENANTS, DigestContext, fingerprint, service_pool
from measure import (
    Ledger,
    Tally,
    calibrate,
    format_ledger,
    median,
    pct,
    peak_rss_mb,
    speed_scale,
    window_metrics,
)

from repro.metrics.counters import LabelMetrics
from repro.obs import Observability, Tracer, metric_key
from repro.obs.export import write_trace
from repro.selection import Selector, SelectorConfig, TapeCache
from repro.service import SelectionService, ServiceConfig

#: Offered load (requests/s), about half the knee of one worker.
RATE_PER_S = 300.0
#: Latency limit on each request (due time to resolution).
SLO_MS = 25.0
#: Service start-ups timed in the set-up phase.
SETUP_REPS = 15
#: Spans of time the closed loop is split into (see ``measure.window_metrics``).
WINDOWS = 40
#: Worker processes (the clients' process is the other core).
WORKERS = 1
#: Closed-loop clients, each with one request in flight (one full batch).
CLIENTS = 8
#: Requests whose forests go through the in-process ledger.
INPROCESS_SAMPLE = 600
#: The worker's calibration before each batch, short enough (~40 us) to
#: stay a small part of the batch it precedes.
PROBE_ITERATIONS = 500


class NullDigestContext(DigestContext):
    """A :class:`DigestContext` whose actions do no work."""

    __slots__ = ()

    def emit(self, rule_number: int, mnemonic: str, operands: list) -> int:
        return 0


class ProbingContextFactory:
    """The worker's per-batch context factory, which also calibrates.

    Before each batch the worker runs one short calibration and appends
    ``monotonic ns, loop ns`` to *path*, so the parent can tell how fast
    the worker's CPU ran in each window (the worker is forked, so the
    clock and the path are shared).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._out: Any = None

    def __call__(self) -> DigestContext:
        probe = calibrate(PROBE_ITERATIONS)
        if self._out is None:
            self._out = open(self.path, "a", buffering=1, encoding="ascii")
        self._out.write(f"{time.monotonic_ns()} {probe}\n")
        return DigestContext()


def schedule(seed: int, seconds: float, pool_size: int) -> list[tuple[float, str, int]]:
    """Poisson arrival offsets (s) with a tenant and a pool index each.

    Each tenant walks its pool in a seeded shuffled order, so every
    forest is sent equally often and the work per request averages
    over the whole pool.
    """
    rng = random.Random(seed * 7919 + 17)
    orders = {tenant: rng.sample(range(pool_size), pool_size) for tenant in SERVICE_TENANTS}
    sent = dict.fromkeys(SERVICE_TENANTS, 0)
    events: list[tuple[float, str, int]] = []
    offset = rng.expovariate(RATE_PER_S)
    dyn_share = SERVICE_TENANTS["dyn"][1]
    while offset < seconds:
        tenant = "dyn" if rng.random() < dyn_share else "bench"
        events.append((offset, tenant, orders[tenant][sent[tenant] % pool_size]))
        sent[tenant] += 1
        offset += rng.expovariate(RATE_PER_S)
    return events


def oracle_values(pool: dict[str, list]) -> dict[str, list]:
    """Expected per-root values of every pool forest (DP labeling, frame reducer)."""
    expected: dict[str, list] = {}
    for tenant, forests in pool.items():
        oracle = Selector(
            SERVICE_TENANTS[tenant][0](), mode="dp", config=SelectorConfig(emitter="reducer")
        )
        expected[tenant] = [
            oracle.select(forest, context=DigestContext(), collect_cover=False).values
            for forest in forests
        ]
    return expected


class ServiceRun:
    def __init__(self, seed: int, seconds: float, pool_size: int) -> None:
        self.seed = seed
        self.pool = service_pool(seed, pool_size)
        self.pool_nodes = {t: [f.node_count() for f in fs] for t, fs in self.pool.items()}
        self.input = fingerprint([f for fs in self.pool.values() for f in fs])
        self.expected = oracle_values(self.pool)
        self.events = schedule(seed, seconds, pool_size)
        self.tally = Tally()
        self.probe_path: Path | None = None
        self.parse_ms: list[float] = []
        self.setup_s: list[float] = []
        self.first_ms: list[float] = []

    def _judge(self, tenant: str, index: int, response: Any) -> bool:
        if not response.ok:
            why = f"{tenant}[{index}]: status {response.status} ({response.error_type})"
            return self.tally.record(False, why)
        return self.tally.record(
            response.value == self.expected[tenant][index],
            f"{tenant}[{index}]: value differs from the in-process oracle",
        )

    def start(self, stack: ExitStack, scratch: Path, obs: Any = None) -> SelectionService:
        """Start a service on a fresh artifact cache; returns it running."""
        cache_dir = stack.enter_context(tempfile.TemporaryDirectory(dir=scratch))
        self.probe_path = Path(cache_dir) / "worker-probes.txt"
        probes = [calibrate(), calibrate()]
        start = time.perf_counter_ns()
        grammars = {name: factory() for name, (factory, _) in SERVICE_TENANTS.items()}
        parsed = time.perf_counter_ns()
        service = SelectionService(
            grammars,
            cache_dir,
            ServiceConfig(workers=WORKERS, seed=self.seed),
            context_factory=ProbingContextFactory(self.probe_path),
            obs=obs,
        )
        stack.enter_context(service)
        first_ms = None
        for tenant in SERVICE_TENANTS:
            response = service.select(tenant, self.pool[tenant][0], wait_s=60.0)
            self._judge(tenant, 0, response)
            if first_ms is None:
                first_ms = response.latency_ns / 1e6
        end = time.perf_counter_ns()
        scale = speed_scale(probes + [calibrate()])
        if obs is None:
            self.parse_ms.append((parsed - start) / 1e6 * scale)
            self.setup_s.append((end - start) / 1e9 * scale)
            self.first_ms.append(first_ms * scale)
        return service

    def closed_loop(self, service: SelectionService, seconds: float, windows: int) -> list:
        """``CLIENTS`` clients for *seconds*, each sending its next request
        as soon as its last one resolves; returns the run's windows for
        :func:`measure.window_metrics`.

        Requests go in schedule order (repeating) and fall into *windows*
        equal spans of time by submission; a request's latency is the
        service's ``latency_ns``, submission to resolution.  Each window's
        latencies and time are rescaled by the worker calibrations taken
        in it, and its cost (for the quiet-quarter choice) is its scaled
        time per node.
        """
        order = [(tenant, index) for _, tenant, index in self.events]
        latencies: list[list[float]] = [[] for _ in range(windows)]
        nodes = [0] * windows
        span_ns = int(seconds * 1e9)
        sent = 0

        def send() -> tuple[int, Any, str, int]:
            nonlocal sent
            tenant, index = order[sent % len(order)]
            sent += 1
            future = service.submit(tenant, self.pool[tenant][index])
            return time.monotonic_ns(), future, tenant, index

        base = time.monotonic_ns()
        in_flight = [send() for _ in range(CLIENTS)]
        while in_flight:
            # Wait for the oldest request, then let every client whose
            # request has resolved send its next one, so a client is not
            # held up behind another tenant's batch.
            in_flight[0][1].result(60.0)
            waiting, resolved = [], []
            for entry in in_flight:
                (resolved if entry[1].done() else waiting).append(entry)
            for submitted, future, tenant, index in resolved:
                response = future.result()
                window = min(windows - 1, (submitted - base) * windows // span_ns)
                latencies[window].append(response.latency_ns / 1e6)
                if self._judge(tenant, index, response):
                    nodes[window] += self.pool_nodes[tenant][index]
                if time.monotonic_ns() - base < span_ns:
                    waiting.append(send())
            in_flight = waiting
        assert self.probe_path is not None
        calibrations: list[list[float]] = [[] for _ in range(windows)]
        overall: list[float] = []
        for line in self.probe_path.read_text(encoding="ascii").splitlines():
            at, probe = line.split()
            overall.append(float(probe))
            if base <= int(at) < base + span_ns:
                calibrations[(int(at) - base) * windows // span_ns].append(float(probe))
        window_s = seconds / windows
        out = []
        for lat, n, cal in zip(latencies, nodes, calibrations):
            scale = speed_scale(cal or overall)
            out.append(([value * scale for value in lat], n, window_s * scale, window_s * scale / max(1, n)))
        return out

    def open_loop(self, service: SelectionService, events: list) -> dict[str, Any]:
        """Submit *events* on schedule; returns raw latencies and lags.

        Each request is timed from its scheduled due time: the
        generator's lateness plus the service's ``latency_ns``.
        """
        pending = []
        base = time.monotonic_ns() + 10_000_000
        first = events[0][0]
        for offset, tenant, index in events:
            due = base + int((offset - first) * 1e9)
            now = time.monotonic_ns()
            if due > now:
                time.sleep((due - now) / 1e9)
            submitted = time.monotonic_ns()
            future = service.submit(tenant, self.pool[tenant][index])
            pending.append((due, submitted, future, tenant, index))
        latencies: list[float] = []
        lags_ms: list[float] = []
        misses = 0
        for due, submitted, future, tenant, index in pending:
            response = future.result(60.0)
            latency_ms = (submitted - due + response.latency_ns) / 1e6
            lags_ms.append(max(0, submitted - due) / 1e6)
            latencies.append(latency_ms)
            ok = self._judge(tenant, index, response)
            misses += not ok or latency_ms > SLO_MS
        return {"latencies_ms": latencies, "lags_ms": lags_ms, "slo_misses": misses}


def inprocess_ledger(run: ServiceRun, tracer: Tracer) -> tuple[dict[str, float], list[float], str]:
    """The worker's share of a request, measured in process.

    Each sampled request's forest goes through an eager selector
    configured like the worker's (``collect_cover=False``,
    ``on_error="isolate"``, one forest per call), then through the
    layer calls: ``label_many``, the emission engine the selector picks
    with the service context and with a null-action context, and
    ``Forest.node_count``.
    """
    ledger = Ledger(tracer)
    selectors = {t: Selector(f(), mode="eager") for t, (f, _) in SERVICE_TENANTS.items()}
    caches = {t: (TapeCache(), TapeCache()) for t in SERVICE_TENANTS}

    label_metrics = LabelMetrics()
    for tenant, forests in run.pool.items():  # warm tables and tape caches
        for forest in forests:
            selectors[tenant].select_many([forest], context=DigestContext(), collect_cover=False)
            labeling = selectors[tenant].label_many([forest], label_metrics)
            emit_all(emitter_for(labeling, DigestContext(), caches[tenant][0]), [forest])
            emit_all(emitter_for(labeling, NullDigestContext(), caches[tenant][1]), [forest])

    walls_ms: list[float] = []
    nodes = 0
    counts = {"tapes_compiled": 0, "tape_cache_hits": 0, "reductions": 0, "memo_hits": 0, "report_ns": 0}
    for _, tenant, index in run.events[:INPROCESS_SAMPLE]:
        forest = run.pool[tenant][index]
        selector = selectors[tenant]
        with ledger.batch("bench.request", tenant=tenant, index=index):
            start = time.perf_counter_ns()
            result = selector.select_many(
                [forest], context=DigestContext(), collect_cover=False, on_error="isolate"
            )
            end = time.perf_counter_ns()
            ledger.add("selector.select_many", start, end)
            walls_ms.append((end - start) / 1e6)
            report = result.report
            for key in ("tapes_compiled", "tape_cache_hits", "reductions", "memo_hits"):
                counts[key] += getattr(report, key)
            counts["report_ns"] += report.total_ns
            nodes += run.pool_nodes[tenant][index]
            labeling = ledger.call("automaton.label_many", selector.label_many, [forest])
            ledger.call(
                "emit.reduce_forest",
                emit_all,
                emitter_for(labeling, DigestContext(), caches[tenant][0]),
                [forest],
            )
            ledger.call(
                "emit.null_actions",
                emit_all,
                emitter_for(labeling, NullDigestContext(), caches[tenant][1]),
                [forest],
            )
            ledger.call("ir.node_count", forest.node_count)

    def per_node(name: str) -> float:
        return ledger.total(name) / nodes

    wall = per_node("selector.select_many")
    label = per_node("automaton.label_many")
    emit = per_node("emit.reduce_forest")
    engine = per_node("emit.null_actions")
    node_count = per_node("ir.node_count")
    unattributed = wall - (label + emit + node_count)
    emitted = counts["tapes_compiled"] + counts["tape_cache_hits"]
    layers = {
        "label.ns_per_node": label,
        "label.table_misses": label_metrics.table_misses,
        "label.states_created": label_metrics.states_created,
        "label.hit_rate": label_metrics.hit_rate,
        "emit.ns_per_node": emit,
        "emit.engine_ns_per_node": engine,
        "actions.ns_per_node": emit - engine,
        "tape.compiled": counts["tapes_compiled"],
        "tape.cache_hits": counts["tape_cache_hits"],
        "tape.hit_ratio": counts["tape_cache_hits"] / emitted if emitted else 0.0,
        "reduce.reductions_per_node": counts["reductions"] / nodes,
        "reduce.memo_hits_per_node": counts["memo_hits"] / nodes,
        "ir.node_count_ns_per_node": node_count,
        "selector.wall_ns_per_node": wall,
        "selector.unattributed_ns_per_node": unattributed,
        "selector.report_gap_frac": 1.0 - counts["report_ns"] / ledger.total("selector.select_many"),
    }
    rows = [
        ("label (automaton.label_many)", label),
        ("emit engine (null-action context)", engine),
        ("user actions (DigestContext)", emit - engine),
        ("ir.node_count", node_count),
        ("unattributed (selector facade)", unattributed),
    ]
    return layers, walls_ms, format_ledger("service_clients in-process (worker share)", wall, rows)


def _aot_setup_ms(scratch: Path) -> tuple[float, float]:
    """Eager compile and artifact load of both tenant grammars (ms, summed)."""
    compile_ms = load_ms = 0.0
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, (factory, _) in SERVICE_TENANTS.items():
            grammar = factory()
            start = time.perf_counter_ns()
            selector = Selector(grammar, mode="eager")
            compile_ms += (time.perf_counter_ns() - start) / 1e6
            path = selector.save(Path(tmp) / f"{name}.rsel")
            start = time.perf_counter_ns()
            Selector.load(path, grammar)
            load_ms += (time.perf_counter_ns() - start) / 1e6
    return compile_ms, load_ms


def run_service(
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    *,
    pool_size: int = SERVICE_POOL,
    setup_reps: int = SETUP_REPS,
    windows: int = WINDOWS,
    tamper: Any = None,
) -> tuple[dict[str, Any], dict[str, float], list[str]]:
    """Run the service workload; returns (tally summary, metrics, notes)."""
    run = ServiceRun(seed, seconds, pool_size)
    if tamper is not None:
        tamper(run.expected)
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    gc.collect()
    gc.freeze()
    notes = [f"input service_clients seed={seed}: {run.input['nodes']} nodes, digest {run.input['digest']}"]
    # Set-ups run before and after the measured loop, so their samples
    # are not all taken in one stretch of the machine's outside load.
    before = setup_reps // 2 + 1
    with ExitStack() as stack:
        for _ in range(before - 1):
            with ExitStack() as rep_stack:
                run.start(rep_stack, scratch)
        service = run.start(stack, scratch)
        if trace:  # the open loop's untraced first half; _traced runs the second
            loop = run.open_loop(service, run.events[: len(run.events) // 2])
        else:
            windows_out = run.closed_loop(service, seconds, windows)
        stats = service.stats()["service"]
    for _ in range(setup_reps - before):
        with ExitStack() as rep_stack:
            run.start(rep_stack, scratch)
    if not trace:
        requests = sum(len(lat) for lat, *_ in windows_out)
        notes.append(f"{requests} requests from {CLIENTS} closed-loop clients in {windows} windows")
        metrics = {
            "setup_s": median(run.setup_s),
            **window_metrics(windows_out),
            "peak_rss_mb": peak_rss_mb(children=True),
        }
    else:
        notes.append(
            f"{len(loop['latencies_ms'])} requests at {RATE_PER_S:g}/s offered in the open loop's "
            f"untraced half, {loop['slo_misses']} over {SLO_MS:g} ms or failed"
        )
        metrics, more = _traced(run, loop, stats, seconds, out_dir, scratch)
        notes.extend(more)
    tally = run.tally
    if tally.first_error:
        notes.append(f"first error: {tally.first_error}")
    summary = {"attempted": tally.attempted, "failed": tally.failed, "input_nodes": run.input["nodes"]}
    return summary, metrics, notes


def _traced(
    run: ServiceRun,
    loop: dict[str, Any],
    stats: dict[str, Any],
    seconds: float,
    out_dir: Path,
    scratch: Path,
) -> tuple[dict[str, float], list[str]]:
    """Service per-layer rows: a traced half, the in-process share, set-up parts."""
    obs = Observability(trace_capacity=1 << 16)
    with ExitStack() as stack:
        service = run.start(stack, scratch, obs=obs)
        traced = run.open_loop(service, run.events[len(run.events) // 2 :])
    batch_spans = [s.duration_ns / 1e6 for s in obs.tracer.spans() if s.name == "service.batch"]
    rtt = obs.metrics.histograms.get(metric_key("service_heartbeat_rtt_ns", {}))
    service_trace = out_dir / "service_clients.trace.jsonl"
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace(service_trace, obs.tracer.spans())

    tracer = Tracer(capacity=1 << 16)
    layers, inprocess_ms, ledger_text = inprocess_ledger(run, tracer)
    inprocess_trace = out_dir / "service_clients.inprocess.trace.jsonl"
    write_trace(inprocess_trace, tracer.spans())

    sample = [run.pool[t][i] for _, t, i in run.events[:INPROCESS_SAMPLE]]
    start = time.perf_counter_ns()
    payload = sum(len(pickle.dumps([forest])) for forest in sample)
    pickle_us = (time.perf_counter_ns() - start) / 1e3 / len(sample)
    compile_ms, load_ms = _aot_setup_ms(scratch)

    request_p50 = pct(loop["latencies_ms"], 50)
    inprocess_p50 = pct(inprocess_ms, 50)
    batches = max(1, stats["batches"])
    layers.update(
        {
            "service.request_ms_p50": request_p50,
            "service.request_ms_p99": pct(loop["latencies_ms"], 99),
            "service.inprocess_ms_p50": inprocess_p50,
            "service.overhead_ms_p50": request_p50 - inprocess_p50,
            "service.pickle_us_per_request": pickle_us,
            "service.payload_bytes": payload / len(sample),
            "service.heartbeat_rtt_ms_p50": (rtt.quantile(0.5) or 0) / 1e6 if rtt else 0.0,
            "service.batch_ms_p50": pct(batch_spans, 50) if batch_spans else 0.0,
            "service.batch_size_mean": stats["batched_requests"] / batches,
            "service.queue_depth_high_water": stats["queue_depth_high_water"],
            "service.retries": stats["retries"],
            "service.re_dispatches": stats["re_dispatches"],
            "service.shed": stats["shed"],
            "setup.grammar_parse_ms": median(run.parse_ms),
            "setup.first_batch_ms": median(run.first_ms),
            "setup.eager_compile_ms": compile_ms,
            "setup.artifact_load_ms": load_ms,
            "loadgen.lag_ms_p99": pct(loop["lags_ms"], 99),
            "slo_miss_frac": loop["slo_misses"] / max(1, len(loop["latencies_ms"])),
            "trace.overhead_frac": pct(traced["latencies_ms"], 50) / request_p50 - 1.0,
        }
    )
    notes = [
        ledger_text,
        f"ledger service_clients open-loop request p50 {request_p50:.3f} ms = "
        f"in-process {inprocess_p50:.3f} ms + service overhead {request_p50 - inprocess_p50:.3f} ms "
        f"(pickle {pickle_us:.0f} us/request, batch p50 {layers['service.batch_ms_p50']:.3f} ms)",
        f"traces written to {service_trace} and {inprocess_trace}; "
        f"render with: PYTHONPATH=src python3 -m repro.obs render {service_trace}",
    ]
    return layers, notes
