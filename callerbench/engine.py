"""Engine workloads: a long-lived default ``Selector`` called like a JIT backend.

The caller holds one ``Selector(grammar)`` with ``SelectorConfig()``
defaults (``collect_cover=True``, ``emitter="tape"``) and calls
``select_many(batch, context=EmitContext())`` over and over.  Every call's
values, instruction stream, action trace and cover cost are checked
against a dynamic-programming selector with the frame reducer, outside
the timed window.

The traced run splits the wall clock of ``select_many`` into layers by
timing calls into each layer's public function from outside (see
:func:`traced_ledger`).
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Any, Callable

from inputs import (
    ENGINE_SPECS,
    POOL_BATCHES,
    EmitContext,
    NullEmitContext,
    fingerprint,
    output_digest,
)
from measure import (
    Ledger,
    Tally,
    calibrate,
    format_ledger,
    median,
    peak_rss_mb,
    speed_scale,
    window_metrics,
)

from repro.bench.workloads import clone_forest
from repro.ir import Forest
from repro.metrics.counters import LabelMetrics
from repro.obs import Tracer
from repro.obs.export import write_trace
from repro.selection import (
    Reducer,
    Selector,
    SelectorConfig,
    TapeCache,
    TapeEmitter,
    extract_cover,
)

#: Batches run through each fresh selector before timing starts.
PREWARM_BATCHES = 16
#: Spans of time a run is split into (see ``measure.window_metrics``).
WINDOWS = 40
#: One more fresh selector is set up before every this many windows.
SETUP_EVERY = 4
#: Fresh selectors whose first ``label_many`` gives the cold labeling cost.
COLD_REPS = 8
#: Batches compiled and replayed for the tape detail rows.
TAPE_BATCHES = 24


def oracle_digests(grammar_factory: Callable, pool: list[list[Forest]]) -> list[str]:
    """Expected output digest of every pool batch, from the DP/reducer oracle."""
    oracle = Selector(grammar_factory(), mode="dp", config=SelectorConfig(emitter="reducer"))
    digests = []
    for batch in pool:
        context = EmitContext()
        result = oracle.select_many(batch, context=context, collect_cover=True)
        digests.append(output_digest(result.values, context, result.report.cover_cost))
    return digests


class EngineRun:
    """One engine workload: inputs, oracle, set-up and the timed loops."""

    def __init__(self, name: str, seed: int, batches: int = POOL_BATCHES) -> None:
        self.name = name
        self.spec = ENGINE_SPECS[name]
        self.pool = self.spec.pool(seed, batches)
        self.batch_nodes = [sum(f.node_count() for f in batch) for batch in self.pool]
        self.input = fingerprint([f for batch in self.pool for f in batch])
        self.expected = oracle_digests(self.spec.grammar, self.pool)
        self.tally = Tally()
        self.cursor = 0
        self.selector: Selector | None = None
        self.parse_ms: list[float] = []
        self.setup_s: list[float] = []
        self.first_ms: list[float] = []

    def call(self, selector: Selector, index: int) -> tuple[int, int, Any] | None:
        """One ``select_many`` on pool batch *index*, checked against the oracle.

        Returns ``(start ns, end ns, result)``, or ``None`` when the call
        raised; both a raise and a wrong output count as failed.
        """
        context = EmitContext()
        start = time.perf_counter_ns()
        try:
            result = selector.select_many(self.pool[index], context=context)
        except Exception as exc:  # a failed call, not a crashed benchmark
            self.tally.record(False, f"{type(exc).__name__}: {exc}")
            return None
        end = time.perf_counter_ns()
        digest = output_digest(result.values, context, result.report.cover_cost)
        self.tally.record(digest == self.expected[index], "output differs from the DP/reducer oracle")
        return start, end, result

    def setup_once(self, prewarm: bool = True) -> None:
        """Set up one fresh default selector, timing each step.

        Times grammar construction, selector construction and the first
        ``select_many`` (JIT first contact); with *prewarm*, also a
        prewarm pass, which completes one set-up sample.  The first
        selector set up becomes the long-lived one the timed calls use.
        Samples are rescaled by calibrations taken around them.
        """
        # First contacts rotate over the pool, so their quartile does not
        # hang on the size of one batch; set-ups always start at batch 0.
        first = 0 if prewarm else len(self.first_ms) % len(self.pool)
        probes = [calibrate(), calibrate()]
        start = time.perf_counter_ns()
        grammar = self.spec.grammar()
        parsed = time.perf_counter_ns()
        selector = Selector(grammar)
        timed = self.call(selector, first)
        if prewarm:
            for index in range(1, PREWARM_BATCHES):
                selector.select_many(self.pool[index], context=EmitContext())
        end = time.perf_counter_ns()
        scale = speed_scale(probes + [calibrate()])
        if timed is not None:
            self.first_ms.append((timed[1] - timed[0]) / 1e6 * scale)
        if not prewarm:
            return
        self.parse_ms.append((parsed - start) / 1e6 * scale)
        self.setup_s.append((end - start) / 1e9 * scale)
        if self.selector is None:
            self.selector = selector
            self.cursor = PREWARM_BATCHES

    def timed_windows(self, seconds: float, windows: int) -> list[tuple[list[int], int, float]]:
        """Checked calls for *seconds*, split into *windows* equal spans of time.

        Returns (per-call wall ns, nodes, speed scale) per window; each
        call is preceded by one calibration run.  Every window after the
        first starts with one more first contact on a fresh (then
        discarded) selector, and every ``SETUP_EVERY``-th with a whole
        set-up, so those samples are spread over the run like the calls.
        """
        assert self.selector is not None
        out: list[tuple[list[int], int, float]] = []
        began = time.perf_counter()
        for window in range(windows):
            if window:
                self.setup_once(prewarm=window % SETUP_EVERY == 0)
            walls: list[int] = []
            probes: list[float] = []
            nodes = 0
            stop_at = began + seconds * (window + 1) / windows
            while time.perf_counter() < stop_at:
                index = self.cursor % len(self.pool)
                self.cursor += 1
                probes.append(calibrate())
                timed = self.call(self.selector, index)
                if timed is not None:
                    walls.append(timed[1] - timed[0])
                    nodes += self.batch_nodes[index]
            out.append((walls, nodes, speed_scale(probes)))
        return out


def emitter_for(labeling: Any, context: Any, cache: TapeCache) -> Callable[[], Any]:
    """A factory for the emission engine a default selector picks.

    Like ``Selector`` with ``emitter="tape"``: a ``TapeEmitter`` on
    *cache* for static grammars, the frame ``Reducer`` for grammars
    with dynamic rules.
    """
    if labeling.grammar.has_dynamic_rules:
        return lambda: Reducer(labeling, context)
    return lambda: TapeEmitter(labeling, context, cache=cache)


def emit_all(make: Callable[[], Any], forests: list[Forest]) -> list:
    """Build one emitter with *make* and reduce every forest through it."""
    emitter = make()
    return [emitter.reduce_forest(forest) for forest in forests]


def _cover_costs(labeling: Any, forests: list[Forest]) -> int:
    return sum(extract_cover(labeling, forest).total_cost() for forest in forests)


def _node_counts(forests: list[Forest]) -> int:
    return sum(forest.node_count() for forest in forests)


def traced_ledger(run: EngineRun, seconds: float, out_dir: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one engine workload, measured from outside.

    Each traced batch makes the real ``select_many`` call, then times the
    same batch through each layer's public function: ``label_many``
    (warm automaton), ``extract_cover(...).total_cost()``, the emission
    engine the selector picks (a ``TapeEmitter`` on a warm bench-owned
    ``TapeCache`` for static grammars, the frame ``Reducer`` for dynamic
    ones) with an ``EmitContext`` and with a null-action context, and
    ``Forest.node_count``.  Wall minus the layer rows is the selector's
    unattributed facade/batch overhead.
    """
    selector = run.selector
    assert selector is not None
    grammar = selector.grammar
    on_tape = not grammar.has_dynamic_rules

    # Untraced half first: the reference wall for trace.overhead_frac.
    [(walls_a, nodes_a, _)] = run.timed_windows(seconds / 2, 1)

    tracer = Tracer(capacity=1 << 17)
    ledger = Ledger(tracer)
    emit_cache, null_cache = TapeCache(), TapeCache()

    for index in range(PREWARM_BATCHES):  # warm the bench-owned caches like the selector's
        batch = run.pool[index]
        labeling = selector.label_many(batch)
        emit_all(emitter_for(labeling, EmitContext(), emit_cache), batch)
        emit_all(emitter_for(labeling, NullEmitContext(), null_cache), batch)

    nodes_b = 0
    counts = {"report_ns": 0, "tapes_compiled": 0, "tape_cache_hits": 0, "reductions": 0, "memo_hits": 0}
    stop_at = time.perf_counter() + seconds / 2
    while time.perf_counter() < stop_at:
        index = run.cursor % len(run.pool)
        run.cursor += 1
        batch = run.pool[index]
        with ledger.batch("bench.batch", workload=run.name, index=index):
            timed = run.call(selector, index)
            if timed is None:
                continue
            start, end, result = timed
            ledger.add("selector.select_many", start, end)
            report = result.report
            counts["report_ns"] += report.total_ns
            counts["tapes_compiled"] += report.tapes_compiled
            counts["tape_cache_hits"] += report.tape_cache_hits
            counts["reductions"] += report.reductions
            counts["memo_hits"] += report.memo_hits
            nodes_b += run.batch_nodes[index]

            labeling = ledger.call("automaton.label_many", selector.label_many, batch)
            ledger.call("cover.extract_cover", _cover_costs, labeling, batch)
            ledger.call("emit.reduce_forest", emit_all, emitter_for(labeling, EmitContext(), emit_cache), batch)
            ledger.call("emit.null_actions", emit_all, emitter_for(labeling, NullEmitContext(), null_cache), batch)
            ledger.call("ir.node_count", _node_counts, batch)

    # Tape detail, kept out of the ledger loop so its garbage does not
    # disturb it: compile on an empty cache vs replay from a cache warmed
    # by fresh-nid clones of the same batch (the JIT path).
    tape_nodes = 0
    for index in range(min(TAPE_BATCHES, len(run.pool)) if on_tape else 0):
        batch = run.pool[index]
        labeling = selector.label_many(batch)
        ledger.call("tape.compile", emit_all, emitter_for(labeling, EmitContext(), TapeCache()), batch)
        clones = [clone_forest(forest) for forest in batch]
        warm = TapeCache()
        emit_all(emitter_for(selector.label_many(clones), EmitContext(), warm), clones)
        ledger.call("tape.replay", emit_all, emitter_for(labeling, EmitContext(), warm), batch)
        tape_nodes += run.batch_nodes[index]

    # First contacts: the first select_many on a freshly constructed selector.
    for _ in range(COLD_REPS):
        run.setup_once(prewarm=False)

    # Cold labeling: the first label_many on a freshly constructed selector.
    cold: list[float] = []
    for index in range(min(COLD_REPS, len(run.pool))):
        fresh = Selector(run.spec.grammar())
        start = time.perf_counter_ns()
        fresh.label_many(run.pool[index])
        end = time.perf_counter_ns()
        ledger.add("automaton.label_many.cold", start, end)
        cold.append((end - start) / run.batch_nodes[index])

    # Table counters on an untimed pass of a fresh selector over the pool.
    label_metrics = LabelMetrics()
    fresh = Selector(run.spec.grammar())
    for batch in run.pool:
        fresh.label_many(batch, label_metrics)

    def per_node(name: str) -> float:
        return ledger.total(name) / max(1, nodes_b)

    wall = per_node("selector.select_many")
    label = per_node("automaton.label_many")
    cover = per_node("cover.extract_cover")
    emit = per_node("emit.reduce_forest")
    engine = per_node("emit.null_actions")
    node_count = per_node("ir.node_count")
    unattributed = wall - (label + cover + emit + node_count)
    untraced = sum(walls_a) / max(1, nodes_a)
    emitted = counts["tapes_compiled"] + counts["tape_cache_hits"]
    layers = {
        "label.ns_per_node": label,
        "label.cold_ns_per_node": median(cold),
        "label.table_misses": label_metrics.table_misses,
        "label.states_created": label_metrics.states_created,
        "label.hit_rate": label_metrics.hit_rate,
        "cover.ns_per_node": cover,
        "emit.ns_per_node": emit,
        "emit.engine_ns_per_node": engine,
        "actions.ns_per_node": emit - engine,
        "tape.compile_ns_per_node": ledger.total("tape.compile") / max(1, tape_nodes),
        "tape.replay_ns_per_node": ledger.total("tape.replay") / max(1, tape_nodes),
        "tape.compiled": counts["tapes_compiled"],
        "tape.cache_hits": counts["tape_cache_hits"],
        "tape.hit_ratio": counts["tape_cache_hits"] / emitted if emitted else 0.0,
        "reduce.reductions_per_node": counts["reductions"] / max(1, nodes_b),
        "reduce.memo_hits_per_node": counts["memo_hits"] / max(1, nodes_b),
        "ir.node_count_ns_per_node": node_count,
        "selector.wall_ns_per_node": wall,
        "selector.unattributed_ns_per_node": unattributed,
        "selector.report_gap_frac": 1.0 - counts["report_ns"] / max(1, ledger.total("selector.select_many")),
        "setup.grammar_parse_ms": median(run.parse_ms),
        "setup.first_batch_ms": median(run.first_ms),
        "trace.overhead_frac": wall / untraced - 1.0 if untraced else 0.0,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{run.name}.trace.jsonl"
    write_trace(trace_path, tracer.spans())
    rows = [
        ("label (automaton.label_many)", label),
        ("cover (extract_cover)", cover),
        ("emit engine (null-action context)", engine),
        ("user actions (EmitContext)", emit - engine),
        ("ir.node_count", node_count),
        ("unattributed (selector facade)", unattributed),
    ]
    notes = [
        format_ledger(run.name, wall, rows),
        f"trace written to {trace_path} ({tracer.recorded} spans); "
        f"render with: PYTHONPATH=src python3 -m repro.obs render {trace_path}",
    ]
    if on_tape:
        notes.append(
            f"  tape detail: compile+sweep {layers['tape.compile_ns_per_node']:,.0f} ns/node, "
            f"replay+sweep {layers['tape.replay_ns_per_node']:,.0f} ns/node"
        )
    return layers, notes


def run_engine(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    *,
    batches: int = POOL_BATCHES,
    windows: int = WINDOWS,
    tamper: Callable[[list[str]], None] | None = None,
) -> tuple[dict[str, Any], dict[str, float], list[str]]:
    """Run one engine workload; returns (tally summary, metrics, notes)."""
    run = EngineRun(name, seed, batches)
    if tamper is not None:
        tamper(run.expected)
    # The input pool and the oracle digests live for the whole run;
    # freezing them keeps full collections from rescanning inputs that
    # a real caller would not hold.  The collector stays enabled.
    gc.collect()
    gc.freeze()
    run.setup_once()
    notes = [f"input {name} seed={seed}: {run.input['nodes']} nodes, digest {run.input['digest']}"]
    if trace:
        metrics, ledger_notes = traced_ledger(run, seconds, out_dir)
        notes.extend(ledger_notes)
    else:
        spans = run.timed_windows(seconds, windows)
        metrics = {
            "setup_s": median(run.setup_s),
            **window_metrics(
                [
                    (
                        [wall / 1e6 * scale for wall in walls],
                        nodes,
                        sum(walls) / 1e9 * scale,
                        sum(walls) * scale / max(1, nodes),
                    )
                    for walls, nodes, scale in spans
                ]
            ),
            "peak_rss_mb": peak_rss_mb(),
        }
        calls = sum(len(walls) for walls, _, _ in spans)
        notes.append(
            f"{calls} timed select_many calls in {windows} windows, "
            f"{len(run.setup_s)} set-ups, {sum(n for _, n, _ in spans)} nodes"
        )
    tally = run.tally
    if tally.first_error:
        notes.append(f"first error: {tally.first_error}")
    summary = {"attempted": tally.attempted, "failed": tally.failed, "input_nodes": run.input["nodes"]}
    return summary, metrics, notes
