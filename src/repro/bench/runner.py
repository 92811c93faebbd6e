"""Benchmark runner: DP versus cold/warm/eager automaton labeling, and
the end-to-end selection pipeline (label + reduce + emit).

For each labeling workload the runner measures, with metrics disabled
(the null-metrics fast paths, so only labeling work is on the clock):

* ``dp`` — the dynamic-programming baseline, which pays full rule-check
  and chain-closure work on every node of every forest;
* ``automaton_cold`` — a fresh :class:`OnDemandAutomaton` per
  repetition, paying state construction on first sight of each
  transition;
* ``automaton_warm`` — the same automaton after a prewarming pass, so
  every node is labeled by table lookups alone;
* ``automaton_eager`` — an automaton whose tables were precomputed with
  :meth:`OnDemandAutomaton.build_eager`, the offline end of the
  trade-off: zero cold cost at labeling time, bigger tables (the
  ``automaton.eager`` entry reports the build).

All labelers run through the batched ``label_many`` entry point — the
fused warm path under measurement.  Node counts are taken once, outside
all timed regions, and timing uses ``time.perf_counter_ns`` so
sub-millisecond workloads do not accumulate float error.

Counter-based facts (table-hit rate, warm fraction, operations/node)
come from separate *untimed* metric passes, so counting never pollutes
the timings.  Every workload also runs a cover-equality check across
all four labeler configurations: a benchmark of a labeler that changed
observable results would be meaningless, so the runner refuses to
report one.  Eager runs additionally refuse to report a first contact
that was not 100% table hits.

A grammar-size sweep (``sweep`` in the report) charts on-demand versus
eager table growth over synthetic grammars of increasing size.

The ``selector_aot`` section measures the ahead-of-time path of the
:class:`~repro.selection.selector.Selector` facade: the in-process
eager build is compiled **once per grammar** (the same automaton is
shared by the labeling and pipeline sections — no redundant eager
builds anywhere in a run), saved to an artifact, and cold-start *full
selection* is measured from freshly loaded selectors (each repetition
loads its own instance, so every timed select is genuinely first
contact) against building on-demand or eager in-process.  Selector
``build_ns`` / ``save_ns`` / ``load_ns`` are recorded per row, the
runner refuses to report a loaded selector whose first contact was not
100% table hits or whose covers/values differ from the in-process eager
selector, and a CLI-compiled artifact (``--selector-artifact``) is used
for the loads when its grammar fingerprint matches.

The ``pipeline`` section measures *full selection* — one
:meth:`~repro.selection.selector.Selector.select_many` call fusing batched
labeling with the iterative reducer and emit actions — across the same
four labeler configurations, on four workloads: the random-tree and
dynamic-constraint families above plus two reduce-focused families
(reduce-heavy trees with emit actions, and shared-reduction DAGs where
the reducer's memo pays off).  Per-phase nanoseconds come from the
pipeline's own :class:`~repro.selection.selector.SelectionReport`, so
label versus reduce/emit time is reported per configuration.  Before
timing, the runner runs every configuration once with a fresh
:class:`~repro.bench.workloads.EmitContext` and refuses to report
unless semantic values, emitted instruction streams, action traces,
and cover costs are all identical across configurations.

The report is JSON-serialisable and written to ``BENCH_selection.json``
by :func:`write_report` / ``python -m repro.bench``.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.bench.workloads import (
    EmitContext,
    bench_grammar,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    recurring_shape_stream,
    reduce_heavy_forests,
    shared_reduction_forests,
    synthetic_forests,
    synthetic_grammar,
)
from repro.errors import CoverError, ResilienceError, SelectorError
from repro.ir.node import Forest
from repro.metrics.counters import LabelMetrics
from repro.obs import Observability, metric_key, percentile
from repro.selection.automaton import OnDemandAutomaton
from repro.selection.cover import extract_cover
from repro.selection.label_dp import DPLabeler, label_dp
from repro.selection.resilience import ArtifactCache, BuildBudget, SelectionFailure
from repro.selection.selector import (
    SelectionReport,
    Selector,
    SelectorConfig,
    grammar_fingerprint,
    read_artifact_header,
)
from repro.service import SelectionService, ServiceConfig
from repro.testing.faults import corrupt_bytes, poison_action

__all__ = [
    "BenchConfig",
    "bench_pipeline_workload",
    "bench_selector_aot_workload",
    "run_faults_bench",
    "run_grammar_sweep",
    "run_pipeline_bench",
    "run_selection_bench",
    "run_selector_aot_bench",
    "run_service_bench",
    "write_report",
]


class _EagerCache:
    """One eagerly-built automaton per grammar instance.

    The labeling, pipeline, and selector-AOT sections of a run all need
    the same grammar's complete tables; building them once and sharing
    the (immutable after a complete build) automaton keeps the run to
    exactly one eager build per grammar.
    """

    def __init__(self) -> None:
        self._by_grammar: dict[int, OnDemandAutomaton] = {}

    def adopt(self, grammar, automaton: OnDemandAutomaton) -> None:
        """Register an already-built automaton for *grammar*."""
        self._by_grammar[id(grammar)] = automaton

    def automaton(self, grammar) -> OnDemandAutomaton:
        automaton = self._by_grammar.get(id(grammar))
        if automaton is None:
            automaton = OnDemandAutomaton(grammar)
            automaton.build_eager()
            self._by_grammar[id(grammar)] = automaton
        return automaton


@dataclass
class BenchConfig:
    """Sizes and seeds of one benchmark run."""

    seed: int = 42
    #: Timed repetitions per measurement; the best (minimum) is reported.
    repetitions: int = 5
    random_forests: int = 12
    random_statements: int = 12
    random_depth: int = 6
    dag_forests: int = 12
    dag_statements: int = 12
    dag_shared: int = 8
    dag_depth: int = 4
    stream_shapes: int = 6
    stream_length: int = 48
    stream_statements: int = 8
    stream_depth: int = 5
    dyn_forests: int = 12
    dyn_statements: int = 12
    dyn_depth: int = 5
    reduce_forests: int = 10
    reduce_statements: int = 10
    reduce_depth: int = 5
    dagr_forests: int = 10
    dagr_statements: int = 12
    dagr_shared: int = 6
    dagr_depth: int = 4
    #: Assert all labeler configurations agree on covers (and, for the
    #: pipeline, semantic values and emitted instructions) before timing.
    verify_covers: bool = True
    #: (operators, nonterminals) points of the grammar-size sweep.
    sweep_sizes: list[list[int]] = field(
        default_factory=lambda: [[4, 2], [8, 3], [16, 5], [24, 6]]
    )
    sweep_forests: int = 4
    sweep_statements: int = 8
    sweep_depth: int = 5
    #: Runaway guard for eager construction on the sweep grammars.
    sweep_max_states: int = 512
    #: Sustained-traffic service harness: open-loop request count,
    #: worker-pool size, mean seeded inter-arrival gap, and the burst
    #: size of the overload-shedding row.
    service_requests: int = 72
    service_workers: int = 2
    service_arrival_s: float = 0.002
    service_burst: int = 24

    @classmethod
    def smoke(cls, seed: int = 42) -> "BenchConfig":
        """A seconds-scale configuration for CI smoke runs."""
        return cls(
            seed=seed,
            repetitions=1,
            random_forests=2,
            random_statements=6,
            random_depth=4,
            dag_forests=2,
            dag_statements=6,
            dag_shared=4,
            stream_shapes=3,
            stream_length=6,
            stream_statements=5,
            stream_depth=4,
            dyn_forests=2,
            dyn_statements=6,
            dyn_depth=4,
            reduce_forests=2,
            reduce_statements=6,
            reduce_depth=4,
            dagr_forests=2,
            dagr_statements=6,
            dagr_shared=4,
            sweep_sizes=[[4, 2], [8, 3]],
            sweep_forests=2,
            sweep_statements=5,
            sweep_depth=4,
            service_requests=24,
            service_arrival_s=0.001,
            service_burst=12,
        )


def _best_ns(run_batch, repetitions: int) -> int:
    """Minimum wall-clock nanoseconds of ``run_batch()`` over repetitions.

    Integer nanoseconds end to end — no float accumulation on
    sub-millisecond batches.  The batch must be self-contained: node
    counting and any setup happen outside, at the call site.  Garbage
    from earlier passes is collected up front and the collector is
    paused while the clock runs, so a cycle collection triggered by an
    unrelated allocation spike cannot land inside a measurement.
    """
    best: int | None = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repetitions)):
            started = time.perf_counter_ns()
            run_batch()
            elapsed = time.perf_counter_ns() - started
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return best if best is not None else 0


def _metrics_row(
    metrics: LabelMetrics, nodes: int, elapsed_ns: int, tables: bool = True
) -> dict[str, object]:
    row: dict[str, object] = {
        "seconds": elapsed_ns / 1e9,
        "ns_per_node": elapsed_ns / max(nodes, 1),
        "operations_per_node": metrics.operations() / max(nodes, 1),
        "rule_checks": metrics.rule_checks,
        "chain_checks": metrics.chain_checks,
    }
    if tables:
        # Table-derived facts only make sense for automaton labelers;
        # a DP row reporting warm_fraction=1.0 would just be misread.
        row.update(
            {
                "table_lookups": metrics.table_lookups,
                "table_misses": metrics.table_misses,
                "states_created": metrics.states_created,
                "hit_rate": metrics.hit_rate,
                "warm_fraction": metrics.warm_fraction,
            }
        )
    return row


def _verify_covers(grammar, forests: list[Forest], eager: OnDemandAutomaton) -> None:
    """Refuse to benchmark labelers that disagree about cover costs.

    Checks all four measured configurations against the DP baseline:
    per-forest on-demand labeling, one batched ``label_many`` labeling,
    and labeling over the caller's eagerly built automaton (tables are
    immutable after a complete build, so sharing it is free).
    """
    ondemand = OnDemandAutomaton(grammar)
    batched = OnDemandAutomaton(grammar).label_many(forests)
    for forest in forests:
        dp_cost = extract_cover(label_dp(grammar, forest), forest).total_cost()
        checks = (
            ("on-demand", extract_cover(ondemand.label(forest), forest).total_cost()),
            ("batched", extract_cover(batched, forest).total_cost()),
            ("eager", extract_cover(eager.label(forest), forest).total_cost()),
        )
        for label_name, cost in checks:
            if cost != dp_cost:
                raise CoverError(
                    f"benchmark aborted: DP cover cost {dp_cost} != {label_name} "
                    f"cover cost {cost} on forest {forest.name!r}"
                )


def bench_workload(
    name: str,
    forests: list[Forest],
    grammar,
    config: BenchConfig,
    eager_automaton: OnDemandAutomaton | None = None,
) -> dict[str, object]:
    """Measure one workload; returns the JSON-ready result row."""
    # Node counting re-traverses every forest: do it once, before any
    # timed region, never inside one.
    nodes = sum(forest.node_count() for forest in forests)
    repetitions = config.repetitions

    # One eager build per grammar, shared across workloads and sections
    # (the caller passes it in); verification, the timed pass, and the
    # metric pass below all share its (complete, immutable) tables.
    if eager_automaton is None or eager_automaton._eager is None:
        eager_automaton = OnDemandAutomaton(grammar)
        eager_automaton.build_eager()
    eager_build = dict(eager_automaton.stats()["eager"])

    if config.verify_covers:
        _verify_covers(grammar, forests, eager_automaton)

    # --- timed passes (metrics disabled: the null-metrics fast paths) ---
    dp_labeler = DPLabeler(grammar)
    dp_ns = _best_ns(lambda: dp_labeler.label_many(forests), repetitions)

    cold_automata = [OnDemandAutomaton(grammar) for _ in range(max(1, repetitions))]
    cold_iter = iter(cold_automata)
    cold_ns = _best_ns(lambda: next(cold_iter).label_many(forests), repetitions)

    warm_automaton = OnDemandAutomaton(grammar)
    warm_automaton.label_many(forests)  # prewarm: populate all transitions
    warm_ns = _best_ns(lambda: warm_automaton.label_many(forests), repetitions)

    eager_ns = _best_ns(lambda: eager_automaton.label_many(forests), repetitions)

    # --- untimed metric passes (counters on, timings ignored) ---
    dp_metrics = LabelMetrics()
    dp_labeler.label_many(forests, dp_metrics)
    counted = OnDemandAutomaton(grammar)
    cold_metrics = LabelMetrics()
    counted.label_many(forests, cold_metrics)
    warm_metrics = LabelMetrics()
    counted.label_many(forests, warm_metrics)
    stats = counted.stats()

    eager_metrics = LabelMetrics()
    eager_automaton.label_many(forests, eager_metrics)
    if not eager_build["skipped"] and eager_metrics.table_misses:
        raise CoverError(
            f"benchmark aborted: eager automaton missed {eager_metrics.table_misses} "
            f"transitions on first contact with workload {name!r}"
        )

    return {
        "name": name,
        "forests": len(forests),
        "nodes": nodes,
        "labelers": {
            "dp": _metrics_row(dp_metrics, nodes, dp_ns, tables=False),
            "automaton_cold": _metrics_row(cold_metrics, nodes, cold_ns),
            "automaton_warm": _metrics_row(warm_metrics, nodes, warm_ns),
            "automaton_eager": _metrics_row(eager_metrics, nodes, eager_ns),
        },
        "automaton": {
            "states": stats["states"],
            "transitions": stats["transitions"],
            "eager": {
                "states": eager_build["states"],
                "transitions": eager_build["transitions"],
                "rounds": eager_build["rounds"],
                "build_seconds": eager_build["build_seconds"],
                "skipped": eager_build["skipped"],
                "capped": eager_build["capped"],
            },
        },
        "speedup_cold_vs_dp": dp_ns / cold_ns if cold_ns > 0 else None,
        "speedup_warm_vs_dp": dp_ns / warm_ns if warm_ns > 0 else None,
        "speedup_eager_vs_dp": dp_ns / eager_ns if eager_ns > 0 else None,
    }


# ----------------------------------------------------------------------
# End-to-end pipeline (label + reduce + emit) benchmarks

#: The four measured pipeline configurations, in report order.
PIPELINE_LABELERS = ("dp", "automaton_cold", "automaton_warm", "automaton_eager")


def _verify_pipeline(grammar, forests: list[Forest], eager: OnDemandAutomaton) -> int:
    """Refuse to benchmark pipelines that differ observably.

    Runs every measured configuration once with a fresh
    :class:`EmitContext` and requires per-forest semantic values,
    emitted instruction streams, action traces (order *and* operands),
    and cover costs to be identical.  The sweep covers the four
    labeling architectures *and* both emission engines: the frame-stack
    reducer oracle, the tape emitter compiling fresh, and — via a
    second pass over a persistent selector — the tape emitter replaying
    its shape cache, so a caching bug cannot quietly skew the measured
    rows.  Returns the verified cover cost.
    """
    ondemand = OnDemandAutomaton(grammar)
    tape_selector = Selector.wrap(OnDemandAutomaton(grammar))
    configs = [
        ("dp", DPLabeler(grammar)),
        ("on-demand", ondemand),
        ("warm", ondemand),  # second batch over the same automaton: warm tables
        ("eager", eager),
        (
            "frame-reducer",
            Selector.wrap(
                OnDemandAutomaton(grammar), config=SelectorConfig(emitter="reducer")
            ),
        ),
        ("tape-compile", tape_selector),
        ("tape-replay", tape_selector),  # second batch: shape-cache replays
    ]
    baseline_name = baseline = None
    for config_name, engine in configs:
        context = EmitContext()
        result = Selector.wrap(engine).select_many(forests, context=context)
        observed = (
            result.values,
            context.instructions,
            context.trace,
            result.report.cover_cost,
        )
        if baseline is None:
            baseline_name, baseline = config_name, observed
        elif observed != baseline:
            raise CoverError(
                f"benchmark aborted: pipeline over {config_name!r} labeling differs "
                f"observably from {baseline_name!r} (values/instructions/trace/cover)"
            )
    assert baseline is not None
    return baseline[3]


def _best_pipeline_report(
    engine_for_rep, forests: list[Forest], repetitions: int
) -> SelectionReport:
    """The fastest (minimum total ns) pipeline run over *repetitions*.

    Each repetition runs one full ``select_many`` — batched labeling
    plus memoized reduction with emit actions into a fresh
    :class:`EmitContext` — with cover collection off and the garbage
    collector parked, mirroring :func:`_best_ns`.  Per-phase timings
    come from the pipeline's own integer-ns counters.
    """
    best: SelectionReport | None = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for rep in range(max(1, repetitions)):
            result = Selector.wrap(engine_for_rep(rep)).select_many(
                forests, context=EmitContext(), collect_cover=False
            )
            report = result.report
            if best is None or report.total_ns < best.total_ns:
                best = report
    finally:
        if gc_was_enabled:
            gc.enable()
    assert best is not None
    return best


def _pipeline_labeler_row(report: SelectionReport) -> dict[str, object]:
    nodes = max(report.nodes, 1)
    return {
        "seconds": report.total_ns / 1e9,
        "ns_per_node": report.total_ns / nodes,
        "label_ns_per_node": report.label_ns / nodes,
        "reduce_ns_per_node": report.reduce_ns / nodes,
        "reduce_fraction": report.reduce_fraction,
        "reductions": report.reductions,
        "memo_hits": report.memo_hits,
        "failures": report.failures,
        "tapes_compiled": report.tapes_compiled,
        "tape_cache_hits": report.tape_cache_hits,
    }


def bench_pipeline_workload(
    name: str,
    forests: list[Forest],
    grammar,
    config: BenchConfig,
    eager_automaton: OnDemandAutomaton | None = None,
) -> dict[str, object]:
    """Measure full selection on one workload; returns the JSON row."""
    nodes = sum(forest.node_count() for forest in forests)
    repetitions = config.repetitions

    if eager_automaton is None or eager_automaton._eager is None:
        eager_automaton = OnDemandAutomaton(grammar)
        eager_automaton.build_eager()

    if config.verify_covers:
        cover_cost = _verify_pipeline(grammar, forests, eager_automaton)
    else:
        # Emit actions still need a context even when verification is off.
        cover_cost = (
            Selector(grammar, mode="dp")
            .select_many(forests, context=EmitContext())
            .report.cover_cost
        )

    # Persistent selectors per row: the selector owns the emission-tape
    # shape cache, so reusing one across repetitions measures the
    # steady state of a long-lived selector (first rep compiles tapes,
    # later reps replay them) — the JIT re-emission scenario the tape
    # engine exists for.  Cold rows get a fresh automaton *and* a fresh
    # selector every repetition: first-touch everything.
    dp_selector = Selector.wrap(DPLabeler(grammar))
    dp = _best_pipeline_report(lambda rep: dp_selector, forests, repetitions)

    cold_automata = [OnDemandAutomaton(grammar) for _ in range(max(1, repetitions))]
    cold = _best_pipeline_report(lambda rep: cold_automata[rep], forests, repetitions)

    warm_automaton = OnDemandAutomaton(grammar)
    warm_automaton.label_many(forests)  # prewarm: populate all transitions
    warm_selector = Selector.wrap(warm_automaton)
    # Prewarm the emission side the same way the label side is
    # prewarmed: one untimed pass compiles the workload's tapes into
    # the selector's shape cache, so the warm rows measure labels-warm
    # AND tapes-warm steady state even at one repetition (the smoke
    # config); cold rows above stay genuinely first-touch.
    warm_selector.select_many(forests, context=EmitContext(), collect_cover=False)
    warm = _best_pipeline_report(lambda rep: warm_selector, forests, repetitions)

    eager_selector = Selector.wrap(eager_automaton)
    eager_selector.select_many(forests, context=EmitContext(), collect_cover=False)
    eager = _best_pipeline_report(lambda rep: eager_selector, forests, repetitions)

    # Emitter comparison on the warm labeling path: same prewarmed
    # automaton, frame-stack reducer versus the (cache-warm) tape rows
    # above — isolating the emit-phase effect of tape compilation.
    reducer_selector = Selector.wrap(
        warm_automaton, config=SelectorConfig(emitter="reducer")
    )
    reducer_warm = _best_pipeline_report(lambda rep: reducer_selector, forests, repetitions)

    return {
        "name": name,
        "grammar": grammar.name,
        "forests": len(forests),
        "roots": dp.roots,
        "nodes": nodes,
        "cover_cost": cover_cost,
        "labelers": {
            "dp": _pipeline_labeler_row(dp),
            "automaton_cold": _pipeline_labeler_row(cold),
            "automaton_warm": _pipeline_labeler_row(warm),
            "automaton_eager": _pipeline_labeler_row(eager),
        },
        "emitters": {
            "tape": _pipeline_labeler_row(warm),
            "reducer": _pipeline_labeler_row(reducer_warm),
            "emit_speedup_tape_vs_reducer": (
                reducer_warm.reduce_ns / warm.reduce_ns if warm.reduce_ns > 0 else None
            ),
        },
        "speedup_cold_vs_dp": dp.total_ns / cold.total_ns if cold.total_ns > 0 else None,
        "speedup_warm_vs_dp": dp.total_ns / warm.total_ns if warm.total_ns > 0 else None,
        "speedup_eager_vs_dp": dp.total_ns / eager.total_ns if eager.total_ns > 0 else None,
    }


def run_pipeline_bench(
    config: BenchConfig,
    grammars: "tuple | None" = None,
    cache: _EagerCache | None = None,
) -> list[dict[str, object]]:
    """Measure the end-to-end pipeline on all four pipeline workloads.

    *grammars* is an optional ``(bench, emit, dynamic)`` grammar triple
    and *cache* an optional :class:`_EagerCache`, both supplied by
    :func:`run_selection_bench` so pipeline rows reuse the eager
    automatons already built for the labeling rows.
    """
    if grammars is not None:
        bench, emit_grammar, dyn = grammars
    else:
        bench, emit_grammar, dyn = bench_grammar(), emit_bench_grammar(), dynamic_bench_grammar()
    cache = cache if cache is not None else _EagerCache()
    workloads = [
        (
            "random_trees",
            random_forests(
                config.seed, config.random_forests, config.random_statements, config.random_depth
            ),
            bench,
        ),
        (
            "reduce_heavy",
            reduce_heavy_forests(
                config.seed + 4,
                config.reduce_forests,
                config.reduce_statements,
                config.reduce_depth,
            ),
            emit_grammar,
        ),
        (
            "dag_reduce",
            shared_reduction_forests(
                config.seed + 5,
                config.dagr_forests,
                config.dagr_statements,
                config.dagr_shared,
                config.dagr_depth,
            ),
            emit_grammar,
        ),
        (
            "dynamic_constraints",
            dynamic_constraint_forests(
                config.seed + 3, config.dyn_forests, config.dyn_statements, config.dyn_depth
            ),
            dyn,
        ),
        (
            # The JIT-style stream: a few shapes recurring as fresh-node
            # clones.  The tape emitter's amortisation case — each shape
            # compiles once and replays for every repeat, so its warm
            # emit phase sits below full re-emission (the reducer row in
            # this workload's ``emitters`` comparison).
            "recurring_stream",
            recurring_shape_stream(
                config.seed + 2,
                config.stream_shapes,
                config.stream_length,
                config.stream_statements,
                config.stream_depth,
            ),
            bench,
        ),
    ]
    return [
        bench_pipeline_workload(name, forests, grammar, config, cache.automaton(grammar))
        for name, forests, grammar in workloads
    ]


# ----------------------------------------------------------------------
# Ahead-of-time selector benchmarks (compile / save / load cold start)


def _aot_cold_row(startup_ns: int, report: SelectionReport, nodes: int) -> dict[str, object]:
    """One cold-start row: startup (build or load) plus first select."""
    cold_total = startup_ns + report.total_ns
    return {
        "startup_ns": startup_ns,
        "select_ns": report.total_ns,
        "cold_total_ns": cold_total,
        "ns_per_node": cold_total / max(nodes, 1),
        "select_ns_per_node": report.total_ns / max(nodes, 1),
    }


def bench_selector_aot_workload(
    name: str,
    forests: list[Forest],
    grammar,
    config: BenchConfig,
    compiled: Selector,
    artifact: Path,
    from_cli: bool,
) -> dict[str, object]:
    """Measure AOT cold start on one workload; returns the JSON row.

    *compiled* is the in-process eager selector (built once per grammar
    — its measured ``build_ns`` is the baseline the load must beat) and
    *artifact* the saved table file.  Every timed loaded select uses a
    freshly loaded selector, so it is genuinely first contact.
    """
    nodes = sum(forest.node_count() for forest in forests)
    repetitions = max(1, config.repetitions)
    aot = compiled.stats()["aot"]
    build_ns = aot["build_ns"]

    # Verification gets its own loaded instance (verifying would warm a
    # timed one); the timed repetitions each load lazily inside the
    # measurement callback, so only one full table copy is alive at a
    # time and every timed select is still genuinely first contact.
    verifier = Selector.load(artifact, grammar)
    load_samples = [verifier.stats()["aot"]["load_ns"]]
    warm_instance: list[Selector] = []

    def load_fresh(_rep: int) -> Selector:
        selector = Selector.load(artifact, grammar)
        load_samples.append(selector.stats()["aot"]["load_ns"])
        if not warm_instance:
            warm_instance.append(selector)
        return selector

    # The loaded selector must be indistinguishable from the in-process
    # eager selector: zero table misses on first contact, identical
    # values and cover costs.
    contact = LabelMetrics()
    verifier.label_many(forests, contact)
    skipped = compiled.stats()["tables"]["eager"]["skipped"]
    if not skipped and contact.table_misses:
        raise CoverError(
            f"benchmark aborted: loaded selector missed {contact.table_misses} "
            f"transitions on first contact with workload {name!r}"
        )
    expected = compiled.select_many(forests, context=EmitContext())
    observed = verifier.select_many(forests, context=EmitContext())
    if (
        observed.values != expected.values
        or observed.report.cover_cost != expected.report.cover_cost
    ):
        raise CoverError(
            f"benchmark aborted: loaded selector differs observably from the "
            f"in-process eager selector on workload {name!r}"
        )

    cold_loaded = _best_pipeline_report(load_fresh, forests, repetitions)
    load_ns = min(load_samples)
    cold_ondemand = _best_pipeline_report(
        lambda rep: OnDemandAutomaton(grammar), forests, repetitions
    )
    eager_select = _best_pipeline_report(lambda rep: compiled, forests, repetitions)
    warm_loaded = _best_pipeline_report(lambda rep: warm_instance[0], forests, repetitions)

    return {
        "name": name,
        "grammar": grammar.name,
        "forests": len(forests),
        "nodes": nodes,
        "artifact": {
            "path": str(artifact) if from_cli else None,
            "bytes": aot["artifact_bytes"],
            "from_cli": from_cli,
        },
        "build_ns": build_ns,
        "save_ns": aot["save_ns"],
        "certified": verifier.stats()["aot"]["certified"],
        "load_ns": load_ns,
        "load_speedup_vs_build": build_ns / load_ns if load_ns > 0 else None,
        "load_beats_build": load_ns < build_ns,
        "first_contact_misses": contact.table_misses,
        "labelers": {
            "selector_aot": _aot_cold_row(load_ns, cold_loaded, nodes),
            "inprocess_eager": _aot_cold_row(build_ns, eager_select, nodes),
            "inprocess_ondemand": _aot_cold_row(0, cold_ondemand, nodes),
            "aot_warm": {
                "select_ns": warm_loaded.total_ns,
                "ns_per_node": warm_loaded.total_ns / max(nodes, 1),
            },
        },
    }


def run_selector_aot_bench(
    config: BenchConfig,
    artifact_path: "str | Path | None" = None,
    grammar=None,
    compiled: Selector | None = None,
) -> list[dict[str, object]]:
    """AOT cold-start rows on the static bench families.

    When *artifact_path* names an artifact whose grammar fingerprint
    matches (e.g. one compiled in CI via ``python -m
    repro.selection.selector compile``), loads are measured from that
    file; otherwise the in-process build is saved to a temporary
    artifact first (its ``save_ns`` is reported either way).
    """
    grammar = grammar if grammar is not None else bench_grammar()
    if compiled is None:
        compiled = Selector(grammar)
    if compiled.stats()["aot"]["build_ns"] is None:
        # No *measured* in-process build yet (fresh, wrapped, or loaded
        # selector): run one — idempotent on already-complete tables —
        # so the build-vs-load comparison has a real baseline.
        compiled.compile()
    if compiled.stats()["aot"]["certified"] is None:
        # Stamp the completeness certification into the saved artifact;
        # the loaded verifier surfaces it in the report rows.
        compiled.verify()
    workloads = [
        (
            "random_trees",
            random_forests(
                config.seed, config.random_forests, config.random_statements, config.random_depth
            ),
        ),
        (
            "recurring_stream",
            recurring_shape_stream(
                config.seed + 2,
                config.stream_shapes,
                config.stream_length,
                config.stream_statements,
                config.stream_depth,
            ),
        ),
    ]
    with tempfile.TemporaryDirectory(prefix="selector-aot-") as tmp:
        # Saving is part of the AOT workflow: measure it even when the
        # loads will come from a CLI-compiled artifact.
        saved = compiled.save(Path(tmp) / f"{grammar.name}.rsel")
        artifact = saved
        from_cli = False
        if artifact_path is not None:
            try:
                header = read_artifact_header(artifact_path)
                from_cli = header["fingerprint"] == grammar_fingerprint(grammar)
            except SelectorError:
                from_cli = False
            if from_cli:
                artifact = Path(artifact_path)
        return [
            bench_selector_aot_workload(
                name, forests, grammar, config, compiled, artifact, from_cli
            )
            for name, forests in workloads
        ]


def run_grammar_sweep(config: BenchConfig) -> list[dict[str, object]]:
    """On-demand versus eager table growth over synthetic grammar sizes.

    For each (operators, nonterminals) point: label a seeded workload
    with an on-demand automaton and record the tables it actually
    populated, then eagerly build a second automaton's full tables and
    record their size and build time.  The ratio between the two is the
    paper's table-explosion axis.
    """
    rows: list[dict[str, object]] = []
    for n_ops, n_nts in config.sweep_sizes:
        grammar = synthetic_grammar(n_ops, n_nts, seed=config.seed)
        forests = synthetic_forests(
            grammar.operators,
            config.seed + n_ops,
            config.sweep_forests,
            config.sweep_statements,
            config.sweep_depth,
        )
        ondemand = OnDemandAutomaton(grammar)
        ondemand.label_many(forests)
        od_stats = ondemand.stats()

        eager = OnDemandAutomaton(grammar)
        build = eager.build_eager(max_states=config.sweep_max_states)
        contact = LabelMetrics()
        eager.label_many(forests, contact)

        od_transitions = int(od_stats["transitions"])
        rows.append(
            {
                "operators": n_ops,
                "nonterminals": n_nts,
                "rules": len(grammar.rules),
                "ondemand": {
                    "states": od_stats["states"],
                    "transitions": od_transitions,
                },
                "eager": {
                    "states": build["states"],
                    "transitions": build["transitions"],
                    "build_seconds": build["build_seconds"],
                    "rounds": build["rounds"],
                    "capped": build["capped"],
                },
                "eager_first_contact_misses": contact.table_misses,
                "table_ratio": build["transitions"] / max(od_transitions, 1),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Resilience (faults) benchmarks: happy-path overhead, isolation
# correctness under injected faults, and the artifact degradation ladder


#: Refusal thresholds for the isolate happy path: the run aborts only
#: when the relative overhead exceeds 2% **and** the absolute overhead
#: exceeds the epsilon.  The isolation machinery's true cost is a small
#: fixed per-batch term (reducer setup, failure scaffolding) — ~50
#: ns/node amortized over a ~100-node smoke batch, well under 1 ns/node
#: at full bench size — so the epsilon absorbs that constant on tiny
#: workloads while the 2% relative gate stays binding wherever per-node
#: cost is actually measurable.
MAX_ISOLATE_OVERHEAD = 0.02
ISOLATE_OVERHEAD_EPSILON_NS = 100.0


def _policy_pair_samples(
    selector: Selector, forests: list[Forest], repetitions: int
) -> tuple[list[tuple[int, int]], SelectionReport]:
    """Paired wall-clock ``select_many`` timings, one (raise, isolate)
    nanosecond sample per repetition, plus the last isolate report.

    Wall-clock around the whole call — not the report's internal
    label/reduce windows — because the overhead being measured is
    exactly the code *outside* those windows: the isolation pipeline's
    bookkeeping, reducer setup, and failure scaffolding.  Each
    repetition times the two policies back to back in alternating
    order (on a loaded machine the second run of a pair is the more
    likely to absorb an expired timeslice; a fixed order would turn
    that into a systematic bias against one policy), and the caller
    gates on the *minimum* of the per-pair differences: preemption and
    cache pollution only ever inflate a sample, so the cleanest pair is
    the faithful estimate of the true overhead — and a real regression,
    unlike noise, shows up in every pair including it.
    """
    pairs: list[tuple[int, int]] = []
    isolate_report: SelectionReport | None = None
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for repetition in range(max(1, repetitions)):
            first = "raise" if repetition % 2 == 0 else "isolate"
            second = "isolate" if first == "raise" else "raise"
            sample = {}
            for policy in (first, second):
                started = time.perf_counter_ns()
                result = selector.select_many(
                    forests, context=EmitContext(), collect_cover=False, on_error=policy
                )
                sample[policy] = time.perf_counter_ns() - started
                if policy == "isolate":
                    isolate_report = result.report
            pairs.append((sample["raise"], sample["isolate"]))
    finally:
        if gc_was_enabled:
            gc.enable()
    assert isolate_report is not None
    return pairs, isolate_report


def _pure_bench_action(lhs: str, pattern: str):
    """A context-free emission action for differential fault runs.

    Values depend only on the rule and node shape — never on emit-
    context state — so survivor forests of a fault-isolated batch can
    be compared for exact equality against an independent clean run
    (an :class:`EmitContext` temp counter would shift after a fault).
    """

    def action(context, node, operands):
        return (lhs, pattern, node.op.name, node.value, tuple(operands))

    return action


def _forest_node_ids(forest: Forest) -> set[int]:
    seen: set[int] = set()
    stack = list(forest.roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.kids)
    return seen


def _bench_isolate_overhead(
    config: BenchConfig, grammar, cache: _EagerCache
) -> dict[str, object]:
    """Happy-path cost of ``on_error="isolate"`` vs ``"raise"``.

    Both policies run the identical warm (eager-tables) pipeline on the
    identical fault-free batch; the only difference is the isolation
    machinery's bookkeeping, which must stay under
    :data:`MAX_ISOLATE_OVERHEAD` of the warm ns/node (modulo the
    absolute epsilon).  The run **refuses to report** otherwise.
    """
    forests = random_forests(
        config.seed, config.random_forests, config.random_statements, config.random_depth
    )
    nodes = sum(forest.node_count() for forest in forests)
    selector = Selector(engine=cache.automaton(grammar))
    # Warm both policies once outside the clock.
    selector.select_many(forests, context=EmitContext(), collect_cover=False)
    selector.select_many(
        forests, context=EmitContext(), collect_cover=False, on_error="isolate"
    )

    # Repetition floor (the smoke workload is only ~100 nodes),
    # cleanest-pair gating, and doubled-repetition re-measures before
    # refusing: together these separate scheduler jitter from a real
    # regression even on a single-core machine.
    repetitions = max(config.repetitions, 15)
    for _ in range(3):
        pairs, isolate_report = _policy_pair_samples(selector, forests, repetitions)
        raise_ns = min(r for r, _ in pairs) / max(nodes, 1)
        isolate_ns = min(i for _, i in pairs) / max(nodes, 1)
        deltas = sorted(i - r for r, i in pairs)
        overhead_ns = deltas[0] / max(nodes, 1)
        median_overhead_ns = deltas[len(deltas) // 2] / max(nodes, 1)
        overhead_fraction = overhead_ns / raise_ns if raise_ns > 0 else 0.0
        over_budget = (
            overhead_fraction > MAX_ISOLATE_OVERHEAD
            and overhead_ns > ISOLATE_OVERHEAD_EPSILON_NS
        )
        if not over_budget:
            break
        repetitions *= 2

    resilience = selector.stats()["resilience"]
    if resilience["isolated_failures"] != 0 or isolate_report.failures != 0:
        raise ResilienceError(
            "benchmark aborted: fault-free isolate run reported "
            f"{resilience['isolated_failures']} isolated failures"
        )
    if over_budget:
        raise ResilienceError(
            f"benchmark aborted: on_error='isolate' happy-path overhead "
            f"{overhead_ns:.1f} ns/node ({100 * overhead_fraction:.2f}%) exceeds "
            f"{100 * MAX_ISOLATE_OVERHEAD:.0f}% of the warm pipeline "
            f"({raise_ns:.1f} ns/node) plus the {ISOLATE_OVERHEAD_EPSILON_NS:.0f} "
            f"ns/node epsilon"
        )
    return {
        "name": "isolate_overhead",
        "forests": len(forests),
        "nodes": nodes,
        "raise_ns_per_node": raise_ns,
        "isolate_ns_per_node": isolate_ns,
        "overhead_ns_per_node": overhead_ns,
        "median_overhead_ns_per_node": median_overhead_ns,
        "overhead_fraction": overhead_fraction,
        "max_overhead_fraction": MAX_ISOLATE_OVERHEAD,
        "epsilon_ns_per_node": ISOLATE_OVERHEAD_EPSILON_NS,
        "resilience": resilience,
    }


def _bench_obs_overhead(
    config: BenchConfig, grammar, cache: _EagerCache
) -> dict[str, object]:
    """Enabled-observability cost on the warm pipeline, report-only.

    Two selectors share the same warm eager automaton; one carries a
    live :class:`~repro.obs.Observability` bundle (span tracer plus
    metrics registry), the other runs with observability off (the
    null-object fast path — one attribute check per batch).  Each
    repetition times the pair back to back in alternating order, and
    the row reports the cleanest-pair delta, exactly like the isolate
    row: preemption only ever inflates a sample.

    Unlike ``isolate_overhead`` this row never aborts the run — the
    *enabled* price is informational.  The contract the suite enforces
    is the **disabled** price: the warm ``pipeline`` rows (which run
    with observability off) are gated against the baseline report by
    ``--max-obs-regression``.
    """
    forests = random_forests(
        config.seed + 8, config.random_forests, config.random_statements, config.random_depth
    )
    nodes = sum(forest.node_count() for forest in forests)
    engine = cache.automaton(grammar)
    plain = Selector(engine=engine)
    obs = Observability(trace_capacity=1 << 16)
    observed = Selector(config=SelectorConfig(observe=obs), engine=engine)
    # Warm both outside the clock.
    plain.select_many(forests, context=EmitContext(), collect_cover=False)
    observed.select_many(forests, context=EmitContext(), collect_cover=False)

    pairs: list[tuple[int, int]] = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for repetition in range(max(config.repetitions, 15)):
            first = "plain" if repetition % 2 == 0 else "observed"
            second = "observed" if first == "plain" else "plain"
            sample = {}
            for which in (first, second):
                selector = plain if which == "plain" else observed
                started = time.perf_counter_ns()
                selector.select_many(forests, context=EmitContext(), collect_cover=False)
                sample[which] = time.perf_counter_ns() - started
            pairs.append((sample["plain"], sample["observed"]))
    finally:
        if gc_was_enabled:
            gc.enable()

    plain_ns = min(p for p, _ in pairs) / max(nodes, 1)
    observed_ns = min(o for _, o in pairs) / max(nodes, 1)
    deltas = sorted(o - p for p, o in pairs)
    overhead_ns = deltas[0] / max(nodes, 1)
    median_overhead_ns = deltas[len(deltas) // 2] / max(nodes, 1)
    return {
        "name": "obs_overhead",
        "forests": len(forests),
        "nodes": nodes,
        "plain_ns_per_node": plain_ns,
        "observed_ns_per_node": observed_ns,
        "overhead_ns_per_node": overhead_ns,
        "median_overhead_ns_per_node": median_overhead_ns,
        "overhead_fraction": overhead_ns / plain_ns if plain_ns > 0 else 0.0,
        "spans_recorded": obs.tracer.recorded,
        "batches_observed": obs.metrics.counter("pipeline_batches_total").value,
    }


def _bench_injected_faults(config: BenchConfig) -> dict[str, object]:
    """Isolation correctness and counter exactness under injected faults.

    Every rule action of a fresh bench grammar is wrapped in a
    predicate fault that fires on nodes of exactly one forest of the
    batch.  The isolated run must contain exactly that forest, the
    resilience counters must equal the injected fault count, and every
    survivor's values must match a clean run byte for byte; any
    discrepancy aborts the benchmark.
    """
    forests = random_forests(
        config.seed + 7, config.random_forests, config.random_statements, config.random_depth
    )
    target_index = len(forests) // 2
    target_ids = _forest_node_ids(forests[target_index])

    def attach_pure_actions(grammar):
        for rule in grammar.rules:
            rule.action = _pure_bench_action(rule.lhs, str(rule.pattern))
        return grammar

    clean_values = (
        Selector(attach_pure_actions(bench_grammar()))
        .select_many(forests, collect_cover=False)
        .values
    )

    poisoned = attach_pure_actions(bench_grammar())
    injectors = [
        poison_action(
            rule, predicate=lambda context, node, operands: id(node) in target_ids
        )[0]
        for rule in poisoned.rules
    ]
    selector = Selector(poisoned)
    result = selector.select_many(forests, collect_cover=False, on_error="isolate")

    failures = result.failures
    injected = sum(fault.faults for fault in injectors)
    resilience = selector.stats()["resilience"]
    survivors_match = all(
        result.values[i] == clean_values[i]
        for i in range(len(forests))
        if i != target_index
    )
    if (
        len(failures) != 1
        or failures[0].index != target_index
        or failures[0].phase != "reduce"
        or injected != 1
        or resilience["isolated_failures"] != injected
        or not survivors_match
    ):
        raise ResilienceError(
            f"benchmark aborted: injected-fault isolation broke its contract "
            f"(failures={[f.as_row() for f in failures]}, injected={injected}, "
            f"survivors_match={survivors_match})"
        )
    return {
        "name": "injected_faults",
        "forests": len(forests),
        "nodes": sum(forest.node_count() for forest in forests),
        "faulted_forest": target_index,
        "injected_faults": injected,
        "isolated_failures": resilience["isolated_failures"],
        "failure_phase": failures[0].phase,
        "failure_node": failures[0].node,
        "survivors_match_clean_run": survivors_match,
        "resilience": resilience,
    }


def _bench_artifact_ladder(config: BenchConfig) -> dict[str, object]:
    """Walk the artifact degradation ladder end to end, timed per rung.

    Cold miss (compile + atomic save-back), warm hit (load), poisoned
    entry (quarantine + rebuild), and a blown build budget — every rung
    must hand back a working selector and count its demotions; an
    unhandled exception anywhere fails the run.
    """
    grammar = bench_grammar()
    probe = random_forests(config.seed + 9, 2, 4, 3)

    def working(selector: Selector) -> bool:
        return selector.select_many(probe, collect_cover=False).report.failures == 0

    with tempfile.TemporaryDirectory(prefix="faults-ladder-") as tmp:
        cache = ArtifactCache(tmp, base_delay=0, seed=config.seed)
        started = time.perf_counter_ns()
        cold = cache.selector_for(grammar)
        miss_ns = time.perf_counter_ns() - started

        started = time.perf_counter_ns()
        warm = cache.selector_for(grammar)
        hit_ns = time.perf_counter_ns() - started

        corrupt_bytes(cache.path_for(grammar), seed=config.seed)
        started = time.perf_counter_ns()
        rebuilt = cache.selector_for(grammar)
        quarantine_ns = time.perf_counter_ns() - started

        budgeted = Selector(grammar)
        budgeted.compile(budget=BuildBudget(max_states=1))

        stats = cache.stats()
        rebuilt_resilience = rebuilt.stats()["resilience"]
        if not (working(cold) and working(warm) and working(rebuilt) and working(budgeted)):
            raise ResilienceError(
                "benchmark aborted: a degraded selector failed on the probe batch"
            )
        if (
            stats["quarantined"] != 1
            or rebuilt_resilience["demotions"]["load_failed"] != 1
            or budgeted.stats()["resilience"]["demotions"]["build_budget"] != 1
        ):
            raise ResilienceError(
                f"benchmark aborted: degradation-ladder counters are off "
                f"(cache={stats}, rebuilt={rebuilt_resilience})"
            )
        return {
            "name": "artifact_ladder",
            "miss_compile_ns": miss_ns,
            "hit_load_ns": hit_ns,
            "quarantine_rebuild_ns": quarantine_ns,
            "hit_speedup_vs_miss": miss_ns / hit_ns if hit_ns > 0 else None,
            "budget_demoted_to_ondemand": budgeted.mode == "ondemand",
            "cache": stats,
            "resilience": rebuilt_resilience,
        }


def run_faults_bench(
    config: BenchConfig,
    grammar=None,
    cache: _EagerCache | None = None,
) -> list[dict[str, object]]:
    """The ``faults`` family: resilience overhead, isolation, ladder rows."""
    grammar = grammar if grammar is not None else bench_grammar()
    cache = cache if cache is not None else _EagerCache()
    return [
        _bench_isolate_overhead(config, grammar, cache),
        _bench_obs_overhead(config, grammar, cache),
        _bench_injected_faults(config),
        _bench_artifact_ladder(config),
    ]


def _service_status_counts(responses) -> dict[str, int]:
    counts: dict[str, int] = {}
    for response in responses:
        counts[response.status] = counts.get(response.status, 0) + 1
    return counts


def _stmt_action_rule(grammar):
    """The ``stmt: EXPR(reg)`` rule — one action call per expr statement."""
    return next(r for r in grammar.rules if r.lhs == "stmt" and r.pattern.symbol == "EXPR")


def _bench_service_sustained(
    config: BenchConfig, obs: Observability | None = None
) -> dict[str, object]:
    """Open-loop seeded arrivals over two healthy tenants, zero lost.

    Measures the serving layer's sustained throughput (requests/s) and
    the client-observed latency distribution (p50/p99, submit to
    resolve) under mixed-tenant traffic — every request must come back
    ``ok``; anything else aborts the benchmark.

    Always runs with an :class:`~repro.obs.Observability` bundle wired
    through the service (a fresh one when the caller passes none), so
    the row's ``latency_per_tenant`` percentiles come from the service's
    own ``service_request_latency_ns{tenant=...}`` histograms — the
    exact distributions a Prometheus scrape or trace dump of the same
    run would report.
    """
    tenants = {"bench": bench_grammar(), "dyn": dynamic_bench_grammar()}
    forests = {
        "bench": random_forests(config.seed + 11, 8, 6, 4),
        "dyn": dynamic_constraint_forests(config.seed + 12, 8, 6, 4),
    }
    rng = random.Random(config.seed)
    obs = obs if obs is not None else Observability(trace_capacity=1 << 16)
    service_config = ServiceConfig(workers=config.service_workers, seed=config.seed)
    with tempfile.TemporaryDirectory(prefix="service-bench-") as tmp:
        with SelectionService(tenants, tmp, service_config, obs=obs) as service:
            started = time.perf_counter_ns()
            futures = []
            for i in range(config.service_requests):
                tenant = "dyn" if rng.random() < 0.3 else "bench"
                pool = forests[tenant]
                futures.append(service.submit(tenant, pool[i % len(pool)]))
                time.sleep(rng.random() * 2 * config.service_arrival_s)
            responses = [future.result(120.0) for future in futures]
            duration_ns = time.perf_counter_ns() - started
            stats = service.stats()["service"]
    if not all(response.ok for response in responses):
        raise ResilienceError(
            f"benchmark aborted: sustained service traffic lost requests "
            f"({_service_status_counts(responses)})"
        )
    latencies = [response.latency_ns for response in responses]
    latency_per_tenant: dict[str, dict[str, object]] = {}
    for tenant in sorted(tenants):
        histogram = obs.metrics.histograms.get(
            metric_key("service_request_latency_ns", {"tenant": tenant})
        )
        if histogram is None or histogram.count == 0:
            continue
        latency_per_tenant[tenant] = {
            "requests": histogram.count,
            "latency_p50_ns": histogram.quantile(0.50),
            "latency_p99_ns": histogram.quantile(0.99),
        }
    return {
        "name": "sustained_traffic",
        "requests": len(responses),
        "workers": config.service_workers,
        "tenants": sorted(tenants),
        "duration_ns": duration_ns,
        "requests_per_s": len(responses) / (duration_ns / 1e9),
        "latency_p50_ns": percentile(latencies, 50),
        "latency_p99_ns": percentile(latencies, 99),
        "latency_per_tenant": latency_per_tenant,
        "statuses": _service_status_counts(responses),
        "lost": sum(1 for f in futures if not f.done()),
        "batches": stats["batches"],
        "queue_depth_high_water": stats["queue_depth_high_water"],
    }


def _bench_service_chaos(config: BenchConfig) -> dict[str, object]:
    """The chaos variant: a worker SIGKILLed mid-run, one poisoned and
    one slow tenant — zero lost requests, all failures typed.

    The poisoned tenant faults twice per worker then heals, so the
    per-tenant breaker must open, fast-fail, half-open probe, and close
    again; the killed worker's in-flight batch must be transparently
    re-dispatched.  Any silently dropped request aborts the benchmark.
    """
    healthy = bench_grammar()
    poisoned = bench_grammar()
    # Two faults per worker process, then healed: enough to open a
    # threshold-2 breaker and let half-open probes find health again.
    poison_action(_stmt_action_rule(poisoned), on_call=1, sticky=True, max_faults=2)
    slow = bench_grammar()
    poison_action(_stmt_action_rule(slow), latency_s=0.01)
    tenants = {"bench": healthy, "poison": poisoned, "slow": slow}
    forests = random_forests(config.seed + 13, 8, 6, 4)
    rng = random.Random(config.seed + 1)
    service_config = ServiceConfig(
        workers=config.service_workers,
        seed=config.seed,
        retries=0,
        breaker_threshold=2,
        breaker_cooldown_s=0.15,
        restart_backoff_base_s=0.01,
        restart_backoff_max_s=0.05,
    )
    kill_at = max(2, config.service_requests // 3)
    with tempfile.TemporaryDirectory(prefix="service-chaos-") as tmp:
        with SelectionService(tenants, tmp, service_config) as service:
            # Phase 1 — open-loop mixed healthy/slow traffic with a
            # worker SIGKILLed mid-run: in-flight batches re-dispatch.
            futures = []
            killed_pid = 0
            for i in range(config.service_requests):
                tenant = "slow" if i % 3 == 0 else "bench"
                futures.append(service.submit(tenant, forests[i % len(forests)]))
                if i == kill_at:
                    victim = next(
                        (h for h in service.supervisor.handles if h.alive and h.in_flight),
                        None,
                    ) or next(h for h in service.supervisor.handles if h.alive)
                    service.supervisor.kill_worker(victim)
                    killed_pid = victim.pid
                time.sleep(rng.random() * 2 * config.service_arrival_s)
            responses = [future.result(120.0) for future in futures]

            # Phase 2 — serialized poisoned-tenant traffic drives the
            # breaker through its full cycle: consecutive failures open
            # it, an immediate request fast-fails, and after the
            # cooldown half-open probes find the healed tenant and
            # close it again (a failed probe just reopens and retries).
            poison_responses = []
            while True:
                response = service.select("poison", forests[0], wait_s=60.0)
                poison_responses.append(response)
                if response.status == "circuit_open":
                    break
                if len(poison_responses) > 4 * config.service_workers + 2:
                    break
            recovery = None
            for _ in range(4 * config.service_workers):
                time.sleep(service_config.breaker_cooldown_s + 0.05)
                recovery = service.select("poison", forests[0], wait_s=60.0)
                poison_responses.append(recovery)
                if recovery.ok:
                    break
            stats = service.stats()["service"]
    statuses = _service_status_counts(responses)
    poison_statuses = _service_status_counts(poison_responses)
    untyped = [
        r
        for r in responses + poison_responses
        if not r.ok and not isinstance(r.error, (SelectionFailure, Exception))
    ]
    lost = sum(1 for f in futures if not f.done())
    breaker_states = [(frm, to) for _, frm, to in stats["breaker_transitions"]]
    if (
        lost
        or untyped
        or not all(r.ok for r in responses)
        or recovery is None
        or not recovery.ok
        or poison_statuses.get("circuit_open", 0) < 1
        or stats["supervisor"]["restarts_total"] < 1
        or ("closed", "open") not in breaker_states
        or ("open", "half_open") not in breaker_states
        or ("half_open", "closed") not in breaker_states
    ):
        raise ResilienceError(
            f"benchmark aborted: chaos service run broke its contract "
            f"(lost={lost}, untyped={len(untyped)}, statuses={statuses}, "
            f"poison={poison_statuses}, breaker={breaker_states}, "
            f"supervisor={stats['supervisor']})"
        )
    return {
        "name": "chaos_soak",
        "requests": len(responses) + len(poison_responses),
        "workers": config.service_workers,
        "tenants": sorted(tenants),
        "killed_worker_pid": killed_pid,
        "statuses": statuses,
        "poison_statuses": poison_statuses,
        "lost": lost,
        "typed_failures": sum(1 for r in poison_responses if not r.ok),
        "re_dispatches": stats["re_dispatches"],
        "breaker_fastfail": stats["breaker_fastfail"],
        "breaker_transitions": [list(t) for t in stats["breaker_transitions"]],
        "breaker_recovered": recovery.ok,
        "restarts_total": stats["supervisor"]["restarts_total"],
        "kills_total": stats["supervisor"]["kills_total"],
    }


def _bench_service_overload(config: BenchConfig) -> dict[str, object]:
    """A burst into a tiny admission queue: bounded latency via shedding.

    Every request resolves — served ``ok`` or shed with a typed
    :class:`~repro.errors.OverloadError` — and at least one of each
    outcome must occur for the row to be meaningful.
    """
    slow = bench_grammar()
    poison_action(_stmt_action_rule(slow), latency_s=0.01)
    service_config = ServiceConfig(
        workers=1, seed=config.seed, queue_limit=4, max_batch=2, retries=0
    )
    forests = random_forests(config.seed + 14, 4, 6, 4)
    with tempfile.TemporaryDirectory(prefix="service-overload-") as tmp:
        with SelectionService({"slow": slow}, tmp, service_config) as service:
            futures = [
                service.submit("slow", forests[i % len(forests)])
                for i in range(config.service_burst)
            ]
            responses = [future.result(120.0) for future in futures]
            stats = service.stats()["service"]
    statuses = _service_status_counts(responses)
    if statuses.get("ok", 0) < 1 or statuses.get("shed", 0) < 1 or stats["outstanding"]:
        raise ResilienceError(
            f"benchmark aborted: overload burst did not both serve and shed "
            f"({statuses}, outstanding={stats['outstanding']})"
        )
    return {
        "name": "overload_shedding",
        "burst": config.service_burst,
        "queue_limit": service_config.queue_limit,
        "statuses": statuses,
        "served": statuses.get("ok", 0),
        "shed": statuses.get("shed", 0),
        "queue_depth_high_water": stats["queue_depth_high_water"],
    }


def run_service_bench(
    config: BenchConfig | None = None,
    obs: Observability | None = None,
) -> list[dict[str, object]]:
    """The ``service`` family: sustained traffic, chaos soak, overload.

    *obs* (optional) is wired through the sustained-traffic run so the
    caller can export the run's Prometheus metrics and request trace
    afterwards; chaos and overload stay observability-free — their
    injected faults would pollute the exported distributions.
    """
    config = config if config is not None else BenchConfig()
    return [
        _bench_service_sustained(config, obs),
        _bench_service_chaos(config),
        _bench_service_overload(config),
    ]


def run_selection_bench(
    config: BenchConfig | None = None,
    selector_artifact: "str | Path | None" = None,
    service_obs: Observability | None = None,
) -> dict[str, object]:
    """Run every workload family and return the full report dict.

    *selector_artifact* optionally names a CLI-compiled selector
    artifact; when its fingerprint matches the bench grammar, the
    ``selector_aot`` rows load from it instead of a temporary save.
    *service_obs* optionally carries an :class:`~repro.obs.Observability`
    bundle through the sustained service benchmark for post-run export.
    """
    config = config if config is not None else BenchConfig()
    grammar = bench_grammar()
    dyn_grammar = dynamic_bench_grammar()
    emit_grammar = emit_bench_grammar()

    # One eager build per grammar for the entire run: the AOT selector's
    # measured compile doubles as the labeling/pipeline sections' eager
    # automaton.
    cache = _EagerCache()
    aot_selector = Selector(grammar)
    aot_selector.compile()
    cache.adopt(grammar, aot_selector.engine)

    workloads = [
        (
            "random_trees",
            random_forests(
                config.seed, config.random_forests, config.random_statements, config.random_depth
            ),
            grammar,
        ),
        (
            "dag_heavy",
            dag_heavy_forests(
                config.seed + 1,
                config.dag_forests,
                config.dag_statements,
                config.dag_shared,
                config.dag_depth,
            ),
            grammar,
        ),
        (
            "recurring_stream",
            recurring_shape_stream(
                config.seed + 2,
                config.stream_shapes,
                config.stream_length,
                config.stream_statements,
                config.stream_depth,
            ),
            grammar,
        ),
        (
            "dynamic_constraints",
            dynamic_constraint_forests(
                config.seed + 3, config.dyn_forests, config.dyn_statements, config.dyn_depth
            ),
            dyn_grammar,
        ),
    ]
    return {
        "benchmark": "selection-labeling",
        "meta": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "grammar": grammar.stats().as_row(),
            "dynamic_grammar": dyn_grammar.stats().as_row(),
            "config": asdict(config),
        },
        "workloads": [
            bench_workload(name, forests, wl_grammar, config, cache.automaton(wl_grammar))
            for name, forests, wl_grammar in workloads
        ],
        "pipeline": run_pipeline_bench(config, (grammar, emit_grammar, dyn_grammar), cache),
        "selector_aot": run_selector_aot_bench(
            config, selector_artifact, grammar, aot_selector
        ),
        "sweep": run_grammar_sweep(config),
        "faults": run_faults_bench(config, grammar, cache),
        "service": run_service_bench(config, service_obs),
    }


def write_report(report: dict[str, object], path: str | Path = "BENCH_selection.json") -> Path:
    """Write *report* as pretty-printed JSON; returns the path written."""
    target = Path(path)
    target.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return target
