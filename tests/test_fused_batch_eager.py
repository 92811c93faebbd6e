"""Fused single-pass labeling, batched label_many, and the eager mode.

The optimisations must be observationally invisible: everything here
cross-checks fused/batched/eager labeling against the DP baseline (the
behavior of the two-pass seed implementation) on tree and DAG forests,
randomized over the benchmark generators, including a grammar extension
landing between batches on a live automaton.
"""

from __future__ import annotations

import pytest

from repro.bench import (
    bench_grammar,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    random_forests,
    recurring_shape_stream,
    synthetic_forests,
    synthetic_grammar,
)
from repro.ir import Forest, Node, NodeBuilder
from repro.ir.traversal import ready_postorder
from repro.metrics import LabelMetrics
from repro.selection import DPLabeler, OnDemandAutomaton, extract_cover, label_dp
from repro.selection.states import State


def _mixed_forests(seed: int) -> list[Forest]:
    return (
        random_forests(seed, forests=2, statements=6, max_depth=5)
        + dag_heavy_forests(seed + 100, forests=2, statements=6, shared=4)
        + recurring_shape_stream(seed + 200, shapes=2, length=3, statements=4, max_depth=4)
    )


# ----------------------------------------------------------------------
# ready_postorder (the fused walk primitive)


def test_ready_postorder_yields_children_first_each_node_once():
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.cnst(4))
    roots = [b.expr(b.load(shared)), b.store(shared, b.reg(2))]
    done: dict[Node, int] = {}
    seen: list[Node] = []
    for node in ready_postorder(roots, done):
        for kid in node.kids:
            assert kid in done, "child yielded after parent"
        done[node] = 1  # the caller-marks-done contract
        seen.append(node)
    assert len(seen) == len(set(seen))
    assert len(seen) == Forest(roots).node_count()


def test_ready_postorder_skips_predone_subtrees():
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.cnst(4))
    first = b.expr(shared)
    second = b.expr(b.neg(shared))
    done: dict[Node, int] = {}
    for node in ready_postorder([first], done):
        done[node] = 1
    before = len(done)
    fresh = []
    for node in ready_postorder([second], done):
        done[node] = 1
        fresh.append(node)
    # Only the new root and the NEG node are labeled; the shared subtree
    # (and everything below it) is answered from the existing map.
    assert {node.op.name for node in fresh} == {"EXPR", "NEG"}
    assert len(done) == before + 2


def test_fused_walk_handles_deep_trees_iteratively():
    b = NodeBuilder()
    value = b.reg(0)
    for i in range(5000):
        value = b.add(value, b.cnst(i % 7))
    forest = Forest([b.expr(value)])
    grammar = bench_grammar()
    automaton = OnDemandAutomaton(grammar)
    auto_cost = extract_cover(automaton.label(forest), forest).total_cost()
    dp_cost = extract_cover(label_dp(grammar, forest), forest).total_cost()
    assert auto_cost == dp_cost


# ----------------------------------------------------------------------
# Randomized equivalence: fused single-pass == DP baseline, for plain
# label, label_many, and eager-mode labeling, on trees and DAGs.


@pytest.mark.parametrize("seed", range(5))
def test_randomized_fused_batched_eager_equivalence(seed):
    grammar = bench_grammar()
    forests = _mixed_forests(seed)
    ondemand = OnDemandAutomaton(grammar)
    eager = OnDemandAutomaton(grammar)
    eager.build_eager()
    batched = ondemand.label_many(forests)
    eager_batched = eager.label_many(forests)
    for forest in forests:
        dp_cover = extract_cover(label_dp(grammar, forest), forest)
        for labeling in (ondemand.label(forest), batched, eager_batched):
            cover = extract_cover(labeling, forest)
            assert cover.total_cost() == dp_cover.total_cost(), (seed, forest.name)
            assert len(cover) == len(dp_cover), (seed, forest.name)


@pytest.mark.parametrize("seed", range(3))
def test_randomized_equivalence_on_dynamic_grammar(seed):
    grammar = dynamic_bench_grammar()
    forests = dynamic_constraint_forests(seed, forests=4, statements=8, max_depth=5)
    ondemand = OnDemandAutomaton(grammar)
    eager = OnDemandAutomaton(grammar)
    build = eager.build_eager()
    assert build["skipped"] == []  # constraints are enumerable
    batched = ondemand.label_many(forests)
    eager_batched = eager.label_many(forests)
    for forest in forests:
        dp_cost = extract_cover(label_dp(grammar, forest), forest).total_cost()
        assert extract_cover(batched, forest).total_cost() == dp_cost
        assert extract_cover(eager_batched, forest).total_cost() == dp_cost


# ----------------------------------------------------------------------
# label_many semantics


def test_label_many_labels_cross_forest_shared_nodes_once():
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.cnst(4))  # one subtree, two forests
    first = Forest([b.expr(b.load(shared))], name="first")
    second = Forest([b.store(shared, b.reg(2))], name="second")
    distinct = Forest(list(first) + list(second)).node_count()

    automaton = OnDemandAutomaton(bench_grammar())
    metrics = LabelMetrics()
    labeling = automaton.label_many([first, second], metrics)
    assert metrics.nodes_labeled == distinct
    assert metrics.nodes_labeled < first.node_count() + second.node_count()
    for forest in (first, second):
        dp_cost = extract_cover(label_dp(automaton.source_grammar, forest), forest).total_cost()
        assert extract_cover(labeling, forest).total_cost() == dp_cost


def test_dp_label_many_matches_per_forest_label_dp():
    grammar = bench_grammar()
    forests = _mixed_forests(11)
    labeler = DPLabeler(grammar)
    batched = labeler.label_many(forests)
    for forest in forests:
        single = label_dp(grammar, forest)
        batched_cover = extract_cover(batched, forest)
        single_cover = extract_cover(single, forest)
        assert batched_cover.total_cost() == single_cover.total_cost()
        assert len(batched_cover) == len(single_cover)


def test_grammar_extension_invalidates_mid_batch_stream():
    """A JIT extends the grammar between two label_many batches."""
    grammar = bench_grammar()
    automaton = OnDemandAutomaton(grammar)
    stream = recurring_shape_stream(5, shapes=3, length=8, statements=5, max_depth=4)
    first_half, second_half = stream[:4], stream[4:]

    first = automaton.label_many(first_half)
    pool_before = automaton.pool
    cost_before = sum(
        extract_cover(first, forest).total_cost() for forest in first_half
    )

    grammar.op_rule("reg", "LOAD", ["addr"], 0)  # loads become free mid-stream

    second = automaton.label_many(second_half)
    assert automaton.pool is not pool_before  # tables were invalidated
    for forest in second_half:
        dp_cost = extract_cover(label_dp(grammar, forest), forest).total_cost()
        assert extract_cover(second, forest).total_cost() == dp_cost

    # Relabeling the first half under the extended grammar must agree
    # with DP and get strictly cheaper: the halves share templates, and
    # every stream shape with a LOAD node now covers it for free.
    relabeled = automaton.label_many(first_half)
    cost_after = sum(extract_cover(relabeled, forest).total_cost() for forest in first_half)
    has_load = any(
        node.op.name == "LOAD" for forest in first_half for node in forest.nodes()
    )
    assert has_load, "stream seed produced no LOAD nodes; pick another seed"
    assert cost_after < cost_before
    for forest in first_half:
        dp_cost = extract_cover(label_dp(grammar, forest), forest).total_cost()
        assert extract_cover(relabeled, forest).total_cost() == dp_cost


# ----------------------------------------------------------------------
# Eager (offline) mode


def test_build_eager_reaches_fixed_point_and_is_idempotent():
    automaton = OnDemandAutomaton(bench_grammar())
    build = automaton.build_eager()
    assert not build["capped"] and build["skipped"] == []
    assert build["states"] > 0 and build["transitions"] > 0
    again = automaton.build_eager()
    assert again["states_created"] == 0
    assert again["transitions"] == build["transitions"]
    stats = automaton.stats()
    assert stats["states"] == build["states"]
    assert stats["transitions"] == build["transitions"]
    assert stats["eager"]["build_seconds"] >= 0.0


@pytest.mark.parametrize("make_grammar", [bench_grammar, dynamic_bench_grammar])
def test_eager_first_contact_is_all_table_hits(make_grammar):
    grammar = make_grammar()
    automaton = OnDemandAutomaton(grammar)
    automaton.build_eager()
    forests = _mixed_forests(3) + dynamic_constraint_forests(3, forests=2)
    metrics = LabelMetrics()
    automaton.label_many(forests, metrics)
    assert metrics.table_misses == 0
    assert metrics.states_created == 0
    assert metrics.hit_rate == 1.0


def test_build_eager_max_states_cap_stops_cleanly():
    automaton = OnDemandAutomaton(bench_grammar())
    build = automaton.build_eager(max_states=3)
    assert build["capped"]
    # Capped tables stay valid: labeling falls back to on-demand growth.
    forest = random_forests(9, forests=1, statements=5, max_depth=4)[0]
    cost = extract_cover(automaton.label(forest), forest).total_cost()
    assert cost == extract_cover(label_dp(automaton.grammar, forest), forest).total_cost()


def test_eager_is_invalidated_by_grammar_extension():
    grammar = bench_grammar()
    automaton = OnDemandAutomaton(grammar)
    automaton.build_eager()
    assert "eager" in automaton.stats()
    grammar.op_rule("reg", "LOAD", ["addr"], 0)
    automaton.label(random_forests(2, forests=1, statements=3, max_depth=3)[0])
    assert "eager" not in automaton.stats()  # the build died with the old pool


def test_eager_tables_cover_ondemand_tables_without_the_product_blowup():
    """An eager build files every reachable (operator, projected child
    states) entry, on-demand labeling only the ones a workload meets, so
    the eager tables hold the on-demand ones.  Keyed by projected child
    states, they do not grow with the product of the state set: at
    these four sizes they stay within 2x of what one small workload
    builds, where tables keyed by child-state tuples would be 2.8x,
    5.6x, 24x and 76x larger."""
    for n_ops, n_nts in [(4, 2), (8, 3), (16, 5), (24, 6)]:
        grammar = synthetic_grammar(n_ops, n_nts, seed=42)
        forests = synthetic_forests(grammar.operators, 42 + n_ops, 4, 8, 5)
        ondemand = OnDemandAutomaton(grammar)
        ondemand.label_many(forests)
        ondemand_transitions = ondemand.stats()["transitions"]

        eager = OnDemandAutomaton(grammar)
        build = eager.build_eager(max_states=512)
        assert not build["capped"], (n_ops, n_nts)
        contact = LabelMetrics()
        eager.label_many(forests, contact)
        assert contact.table_misses == 0, (n_ops, n_nts)
        assert ondemand_transitions <= build["transitions"], (n_ops, n_nts)
        assert build["transitions"] <= 2 * ondemand_transitions, (n_ops, n_nts)
        assert eager.stats()["transitions"] == build["transitions"], (n_ops, n_nts)


# ----------------------------------------------------------------------
# Static-operator specialization inside dynamic grammars


def test_dynamic_grammar_routes_static_ops_through_integer_tables():
    grammar = dynamic_bench_grammar()
    automaton = OnDemandAutomaton(grammar)
    forests = dynamic_constraint_forests(17, forests=3, statements=8, max_depth=5)
    automaton.label_many(forests)
    add, sub = automaton._tables["ADD"], automaton._tables["SUB"]
    # ADD carries a constraint rule: every entry of its table is a
    # candidate row that holds the states by outcomes.
    assert add.dynamic
    assert add.slots[2].entries()
    assert all(isinstance(row, dict) for _, row in add.slots[2].entries())
    # SUB has no dynamic rules: its table holds the states themselves.
    assert not sub.dynamic
    assert sub.slots[2].entries()
    assert all(isinstance(state, State) for _, state in sub.slots[2].entries())
