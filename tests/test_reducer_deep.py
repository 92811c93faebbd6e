"""Deep-input regressions: the iterative reducer cannot RecursionError.

Mirrors the fused-walk labeling tests: a ~50k-deep chain tree and a
chain-rule ladder longer than the interpreter's recursion limit both
reduce fine on the explicit-stack engine (the recursive engine died on
either).
"""

from __future__ import annotations

import sys

from repro.grammar import Grammar, parse_grammar
from repro.ir import Forest, NodeBuilder
from repro.selection import OnDemandAutomaton, Reducer, Selector, extract_cover, label_dp

DEEP_TEXT = """
%grammar deep
%start stmt
stmt: EXPR(reg) (0)
reg:  REG       (0)
reg:  NEG(reg)  (1)
reg:  ADD(reg, con) (1)
con:  CNST      (0)
"""


def _deep_forest(depth: int) -> Forest:
    builder = NodeBuilder()
    value = builder.reg(0)
    for i in range(depth):
        if i % 3 == 0:
            value = builder.add(value, builder.cnst(i % 16))
        else:
            value = builder.neg(value)
    return Forest([builder.expr(value)], name=f"deep-{depth}")


def test_reduce_50k_deep_chain_tree_without_recursion_error():
    depth = 50_000
    assert depth > sys.getrecursionlimit()
    grammar = parse_grammar(DEEP_TEXT)
    forest = _deep_forest(depth)

    emitted = []
    for rule in grammar.rules:
        if not rule.is_chain:
            rule.action = (
                lambda symbol: lambda ctx, node, operands: emitted.append(symbol) or symbol
            )(rule.pattern.symbol)

    labeling = OnDemandAutomaton(grammar).label(forest)
    reducer = Reducer(labeling)
    values = reducer.reduce_forest(forest)
    assert values == ["EXPR"]
    assert reducer.reductions == forest.node_count()
    assert len(emitted) == forest.node_count()
    # The full pipeline (label + reduce + cover extraction) survives too.
    result = Selector(grammar, mode="dp").select(forest)
    assert result.report.reductions == forest.node_count()
    assert result.report.cover_cost == extract_cover(labeling, forest).total_cost()


def test_reduce_long_chain_rule_sequence_without_recursion_error():
    """A chain-rule ladder longer than the recursion limit: reducing the
    start nonterminal walks every chain rule at one node iteratively."""
    length = sys.getrecursionlimit() + 200
    grammar = Grammar(name="ladder", start=f"n{length}")
    grammar.op_rule("n0", "REG", [], 0)
    for i in range(length):
        grammar.chain(f"n{i + 1}", f"n{i}", 1)

    builder = NodeBuilder()
    forest = Forest([builder.reg(1)])
    applied = []
    for rule in grammar.rules:
        rule.action = (lambda lhs: lambda ctx, node, operands: applied.append(lhs) or lhs)(
            rule.lhs
        )

    labeling = label_dp(grammar, forest)
    reducer = Reducer(labeling)
    [value] = reducer.reduce_forest(forest)
    assert value == f"n{length}"
    # Bottom-up application order: the base rule first, the start last.
    assert applied[0] == "n0" and applied[-1] == f"n{length}"
    assert reducer.reductions == length + 1
    # extract_cover walks the same ladder iteratively.
    cover = extract_cover(labeling, forest)
    assert cover.total_cost() == length
