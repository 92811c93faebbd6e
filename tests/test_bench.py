"""Benchmark workloads: generators, equivalence sweep, speed claim."""

from __future__ import annotations

import random
import time

from repro.bench import (
    bench_grammar,
    clone_forest,
    dag_heavy_forests,
    random_forests,
    recurring_shape_stream,
)
from repro.metrics import LabelMetrics
from repro.selection import OnDemandAutomaton, extract_cover, label_dp


# ----------------------------------------------------------------------
# Workload generators


def test_generators_are_deterministic_per_seed():
    first = random_forests(3, forests=3, statements=5, max_depth=4)
    second = random_forests(3, forests=3, statements=5, max_depth=4)
    different = random_forests(4, forests=3, statements=5, max_depth=4)
    for a, b in zip(first, second):
        assert len(a.roots) == len(b.roots)
        assert all(x.structurally_equal(y) for x, y in zip(a.roots, b.roots))
    assert any(
        not x.structurally_equal(y)
        for a, b in zip(first, different)
        for x, y in zip(a.roots, b.roots)
    )


def test_dag_heavy_forests_actually_share_nodes():
    for forest in dag_heavy_forests(5, forests=3, statements=8, shared=4):
        assert forest.node_count() < sum(root.size() for root in forest.roots)


def test_clone_forest_preserves_structure_and_sharing():
    [forest] = dag_heavy_forests(9, forests=1, statements=6, shared=4)
    clone = clone_forest(forest)
    assert clone.node_count() == forest.node_count()
    assert len(clone.roots) == len(forest.roots)
    for original, copied in zip(forest.roots, clone.roots):
        assert copied is not original
        assert copied.structurally_equal(original)


def test_recurring_stream_draws_fresh_nodes_from_few_shapes():
    stream = recurring_shape_stream(2, shapes=2, length=6, statements=4, max_depth=3)
    assert len(stream) == 6
    seen_ids = set()
    for forest in stream:
        for node in forest.nodes():
            assert id(node) not in seen_ids  # fresh nodes every forest
            seen_ids.add(id(node))
    # Few shapes => warm relabeling is pure table hits after the first pass.
    automaton = OnDemandAutomaton(bench_grammar())
    for forest in stream:
        automaton.label(forest)
    warm = LabelMetrics()
    for forest in stream:
        automaton.label(forest, warm)
    assert warm.table_misses == 0
    assert warm.hit_rate == 1.0


# ----------------------------------------------------------------------
# Randomized DP-vs-automaton equivalence sweep (the optimization changed
# nothing observable)


def test_randomized_dp_vs_automaton_cover_equivalence_sweep():
    grammar = bench_grammar()
    automaton = OnDemandAutomaton(grammar)
    for seed in range(6):
        forests = (
            random_forests(seed, forests=2, statements=6, max_depth=5)
            + dag_heavy_forests(seed + 100, forests=2, statements=6, shared=4)
            + recurring_shape_stream(seed + 200, shapes=2, length=3, statements=4, max_depth=4)
        )
        for forest in forests:
            dp_cover = extract_cover(label_dp(grammar, forest), forest)
            auto_cover = extract_cover(automaton.label(forest), forest)
            assert dp_cover.total_cost() == auto_cover.total_cost(), (seed, forest.name)
            assert len(auto_cover) == len(dp_cover)


def test_grammar_extension_between_labels_rebuilds_tables_and_stays_optimal():
    grammar = bench_grammar()
    automaton = OnDemandAutomaton(grammar)
    forests = random_forests(21, forests=3, statements=8, max_depth=5)

    for forest in forests:
        automaton.label(forest)
    stats_before = automaton.stats()
    pool_before = automaton.pool
    assert stats_before["transitions"] > 0
    cost_before = sum(
        extract_cover(automaton.label(forest), forest).total_cost() for forest in forests
    )

    # JIT-style extension between two label() calls on the live automaton:
    # loads become free, so optimal covers must get cheaper.
    grammar.op_rule("reg", "LOAD", ["addr"], 0)
    cost_after = 0
    for forest in forests:
        auto_cover = extract_cover(automaton.label(forest), forest)
        dp_cover = extract_cover(label_dp(grammar, forest), forest)
        assert auto_cover.total_cost() == dp_cover.total_cost(), forest.name
        cost_after += auto_cover.total_cost()

    assert automaton.pool is not pool_before  # state pool was rebuilt
    assert automaton.stats()["transitions"] > 0  # tables regrew on demand
    assert cost_after < cost_before


# ----------------------------------------------------------------------
# The acceptance claim: warm automaton labels a recurring-shape stream
# >= 3x faster per node than DP on the same forests.


def _best_label_seconds(label_forest, forests, repetitions=3) -> float:
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        for forest in forests:
            label_forest(forest)
        best = min(best, time.perf_counter() - started)
    return best


def test_warm_automaton_at_least_3x_faster_than_dp_on_recurring_stream():
    grammar = bench_grammar()
    stream = recurring_shape_stream(31, shapes=5, length=30, statements=8, max_depth=5)
    automaton = OnDemandAutomaton(grammar)
    for forest in stream:
        automaton.label(forest)  # prewarm tables

    # Deterministic half of the claim first: per-node unit work.
    dp_metrics, warm_metrics = LabelMetrics(), LabelMetrics()
    for forest in stream:
        label_dp(grammar, forest, dp_metrics)
        automaton.label(forest, warm_metrics)
    assert warm_metrics.table_misses == 0
    work_ratio = dp_metrics.operations() / warm_metrics.operations()
    assert work_ratio >= 3.0, f"warm automaton does only {work_ratio:.2f}x less unit work"

    # Wall-clock half, retried to ride out scheduler noise on shared CI
    # runners (typical local margin is ~5x).
    speedup = 0.0
    for _ in range(3):
        warm_seconds = _best_label_seconds(automaton.label, stream)
        dp_seconds = _best_label_seconds(lambda forest: label_dp(grammar, forest), stream)
        speedup = max(speedup, dp_seconds / warm_seconds)
        if speedup >= 3.0:
            break
    assert speedup >= 3.0, f"warm automaton only {speedup:.2f}x faster than DP"


def test_workload_sampling_is_seeded_module_rng_free():
    """Generators must not touch the global random module state."""
    random.seed(1234)
    before = random.random()
    random.seed(1234)
    random_forests(7, forests=2, statements=4, max_depth=3)
    recurring_shape_stream(7, shapes=2, length=2, statements=3, max_depth=3)
    after = random.random()
    assert before == after
