"""End-to-end pipeline: Selector.select()/select_many(), differential
equivalence, and the iterative reducer's semantics and metrics."""

from __future__ import annotations

import pytest

from repro.bench import (
    EmitContext,
    bench_grammar,
    dag_heavy_forests,
    emit_bench_grammar,
    random_forests,
    reduce_heavy_forests,
    shared_reduction_forests,
)
from repro.errors import CoverError
from repro.grammar import Grammar, normalize
from repro.ir import Forest, NodeBuilder
from repro.selection import (
    DPLabeler,
    OnDemandAutomaton,
    Reducer,
    SelectionReport,
    Selector,
    extract_cover,
    label_dp,
)

# ----------------------------------------------------------------------
# Selector.select / select_many API


def test_select_returns_values_report_and_labeling():
    grammar = bench_grammar()
    [forest] = random_forests(17, forests=1, statements=5, max_depth=4)
    result = Selector(grammar, mode="dp").select(forest)

    assert len(result.values) == len(forest.roots)
    report = result.report
    assert isinstance(report, SelectionReport)
    assert report.labeler == "dp"
    assert report.forests == 1
    assert report.roots == len(forest.roots)
    assert report.nodes == forest.node_count()
    assert report.reductions > 0
    assert report.label_ns >= 0 and report.reduce_ns >= 0
    assert report.total_ns == report.label_ns + report.reduce_ns + report.cover_ns
    assert report.ns_per_node == report.total_ns / report.nodes
    assert 0.0 <= report.reduce_fraction <= 1.0
    # Cover cost matches an independent extraction.
    assert report.cover_cost == extract_cover(result.labeling, forest).total_cost()
    # as_row is JSON-ready and complete.
    row = result.report.as_row()
    assert row["cover_cost"] == report.cover_cost
    assert row["labeler"] == "dp"


def test_select_many_batches_and_reports_per_forest_values():
    grammar = bench_grammar()
    forests = random_forests(23, forests=4, statements=4, max_depth=4)
    result = Selector(grammar).select_many(forests)
    assert result.report.labeler == "ondemand"
    assert len(result.values) == len(forests)
    for forest, values in zip(forests, result.values):
        assert len(values) == len(forest.roots)
    assert result.report.forests == len(forests)
    assert result.report.nodes == sum(forest.node_count() for forest in forests)


def test_select_without_cover_collection_skips_cost():
    grammar = bench_grammar()
    [forest] = random_forests(3, forests=1, statements=3, max_depth=3)
    result = Selector(grammar).select(forest, collect_cover=False)
    assert result.report.cover_cost is None


def test_select_reports_eager_labeler_name():
    grammar = bench_grammar()
    [forest] = random_forests(5, forests=1, statements=3, max_depth=3)
    assert Selector(grammar, mode="eager").select(forest).report.labeler == "eager"


# ----------------------------------------------------------------------
# Randomized differential test: semantic values AND action traces are
# identical across DP, on-demand, eager, and label_many-batched pipelines.


def _per_forest_runs(forests, engine):
    """Per-forest select() calls sharing one engine and one context."""
    context = EmitContext()
    selector = Selector.wrap(engine)
    values = [selector.select(forest, context=context).values for forest in forests]
    return values, context


def test_randomized_differential_values_and_traces_across_pipelines():
    grammar = emit_bench_grammar()
    for seed in range(5):
        forests = (
            random_forests(seed, forests=2, statements=5, max_depth=4)
            + reduce_heavy_forests(seed + 50, forests=2, statements=5, max_depth=4)
            + dag_heavy_forests(seed + 100, forests=2, statements=5, shared=4)
            + shared_reduction_forests(seed + 150, forests=2, statements=6, shared=4)
        )
        runs = {}
        # Per-forest pipelines over each labeler architecture.
        runs["dp"] = _per_forest_runs(forests, DPLabeler(grammar))
        runs["ondemand"] = _per_forest_runs(forests, OnDemandAutomaton(grammar))
        eager_automaton = OnDemandAutomaton(grammar)
        eager_automaton.build_eager()
        runs["eager"] = _per_forest_runs(forests, eager_automaton)
        # The label_many-batched pipeline (one labeling, one reducer).
        batched_context = EmitContext()
        batched = Selector(grammar).select_many(forests, context=batched_context)
        runs["batched"] = (batched.values, batched_context)

        base_values, base_context = runs["dp"]
        for name, (values, context) in runs.items():
            assert values == base_values, (seed, name)
            assert context.instructions == base_context.instructions, (seed, name)
            assert context.trace == base_context.trace, (seed, name)


def test_batched_pipeline_reduces_cross_forest_shared_nodes_once():
    """Two forests sharing a subtree: the batched reducer memoizes across
    forests, so the shared node's action emits once; per-forest selects
    (one reducer each) emit it once per forest."""
    grammar = emit_bench_grammar()
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.reg(2))
    first = Forest([b.expr(shared)], name="first")
    second = Forest([b.expr(b.neg(shared))], name="second")

    batched_context = EmitContext()
    batched = Selector(grammar).select_many([first, second], context=batched_context)
    separate_context = EmitContext()
    for forest in (first, second):
        Selector(grammar, mode="dp").select(forest, context=separate_context)

    assert batched.report.memo_hits > 0

    def add_emissions(context):
        return sum(1 for instruction in context.instructions if instruction.startswith("add "))

    assert add_emissions(batched_context) == 1
    assert add_emissions(separate_context) == 2


@pytest.mark.parametrize("mode", ["dp", "ondemand"])
def test_report_counts_a_node_shared_between_forests_once(mode):
    """``report.nodes`` is the batch's distinct labeled nodes, not the
    per-forest node counts summed."""
    grammar = emit_bench_grammar()
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.reg(2))
    first = Forest([b.expr(shared)], name="first")
    second = Forest([b.expr(b.neg(shared))], name="second")
    distinct = len(Forest(first.roots + second.roots).nodes())
    assert distinct < first.node_count() + second.node_count()

    result = Selector(grammar, mode=mode).select_many([first, second], context=EmitContext())
    assert result.report.nodes == distinct


# ----------------------------------------------------------------------
# Reducer pre-/post-rewrite semantics


def test_chain_rule_action_receives_single_operand():
    grammar = Grammar(name="chain-action", start="stmt")
    grammar.op_rule("reg", "REG", [], 0, action=lambda ctx, n, ops: f"r{n.value}")
    grammar.chain("addr", "reg", 0, action=lambda ctx, n, ops: ("addr", *ops))
    grammar.op_rule("stmt", "EXPR", ["addr"], 0, action=lambda ctx, n, ops: ops[0])
    b = NodeBuilder()
    forest = Forest([b.expr(b.reg(7))])
    for mode in ("dp", "ondemand", "eager"):
        result = Selector(grammar, mode=mode).select(forest)
        assert result.values == [("addr", "r7")], mode


def test_helper_rule_splicing_flat_operands_through_pipeline():
    """Multi-node rule actions see one flat operand list under every
    labeler (helper rules splice, never nest)."""
    from repro.grammar import nt_pattern, op_pattern

    grammar = Grammar(name="splice", start="stmt")
    grammar.op_rule("reg", "REG", [], 0, action=lambda ctx, n, ops: f"r{n.value}")
    grammar.chain("addr", "reg", 0)
    pattern = op_pattern(
        "STORE",
        nt_pattern("addr"),
        op_pattern("ADD", op_pattern("LOAD", nt_pattern("addr")), nt_pattern("reg")),
    )
    grammar.add_rule("stmt", pattern, 1, action=lambda ctx, n, ops: tuple(ops))

    def build():
        b = NodeBuilder()
        return Forest([b.store(b.reg(1), b.add(b.load(b.reg(2)), b.reg(3)))])

    for mode in ("dp", "ondemand", "eager"):
        result = Selector(grammar, mode=mode).select(build())
        assert result.values == [("r1", "r2", "r3")], mode


def test_template_rules_route_through_emit_template():
    grammar = emit_bench_grammar()
    b = NodeBuilder()
    # con -> reg via the templated "li" chain rule.
    forest = Forest([b.expr(b.cnst(200))])
    context = EmitContext()
    Selector(grammar).select(forest, context=context)
    assert any("li" in instruction for instruction in context.instructions)


def test_none_valued_action_hits_missing_memo_once():
    """An action returning None must be memoized: the memo's _MISSING
    sentinel, not None, marks absence, so the action runs once per
    (node, nonterminal) even under DAG sharing."""
    calls = []
    grammar = Grammar(name="none-memo", start="stmt")
    grammar.op_rule("reg", "REG", [], 0, action=lambda ctx, n, ops: calls.append(n.value))
    grammar.op_rule("reg", "ADD", ["reg", "reg"], 1)
    grammar.op_rule("stmt", "EXPR", ["reg"], 0)
    b = NodeBuilder()
    leaf = b.reg(9)
    forest = Forest([b.expr(b.add(leaf, leaf))])  # DAG: leaf shared twice

    labeling = label_dp(grammar, forest)
    reducer = Reducer(labeling)
    values = reducer.reduce_forest(forest)
    assert calls == [9]  # action ran exactly once despite two parents
    assert reducer.memo_hits == 1  # second reference answered from memo
    assert values[0] == [None, None]  # both operands are the memoized None


def test_reducer_metrics_reductions_and_memo_hits_are_well_defined():
    grammar = bench_grammar()
    [forest] = dag_heavy_forests(41, forests=1, statements=8, shared=4)
    labeling = OnDemandAutomaton(grammar).label(forest)
    reducer = Reducer(labeling)
    reducer.reduce_forest(forest)
    first_reductions = reducer.reductions
    assert first_reductions > 0
    # reductions == memo entries: one rule application per distinct pair.
    assert first_reductions == len(reducer._memo)
    # Re-reducing the same forest applies no further rules: every root
    # answers from the memo.
    hits_before = reducer.memo_hits
    reducer.reduce_forest(forest)
    assert reducer.reductions == first_reductions
    assert reducer.memo_hits == hits_before + len(forest.roots)


def test_reduce_forest_without_start_nonterminal_raises():
    grammar = Grammar(name="nostart")
    assert grammar.start is None
    b = NodeBuilder()
    forest = Forest([b.reg(1)])
    labeling = label_dp(grammar, forest)
    with pytest.raises(CoverError, match="no start nonterminal"):
        Reducer(labeling).reduce_forest(forest)
    with pytest.raises(CoverError, match="no start nonterminal"):
        Selector(grammar, mode="dp").select(forest)


def test_reducer_on_normalized_grammar_matches_original():
    """DP over the normalized grammar drives the same user actions as
    DP over the original (the reducer's splice path)."""
    grammar = emit_bench_grammar()
    normalized = normalize(grammar).grammar
    forests = reduce_heavy_forests(77, forests=2, statements=6, max_depth=4)
    for forest in forests:
        original_ctx, normalized_ctx = EmitContext(), EmitContext()
        Reducer(label_dp(grammar, forest), original_ctx).reduce_forest(forest)
        Reducer(label_dp(normalized, forest), normalized_ctx).reduce_forest(forest)
        assert normalized_ctx.instructions == original_ctx.instructions
        assert normalized_ctx.trace == original_ctx.trace
