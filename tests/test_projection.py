"""Projected transitions (BURS index maps) build the states full keys build.

A table miss projects each child state onto the nonterminals the
operator's rules use at its operand position, renormalized, and looks
the tuple of projected ids up before it constructs anything (Chase,
POPL 1987; Proebsting, TOPLAS 1995).  These tests check that the
projected lookup is exact: on every ``(operator, arity, state tuple)``
of a full eager build, and on every constraint outcome a dynamic key
leaves open, it returns the state that dynamic programming builds from
the full key.  A saturating sum is the one place a renormalized cost
could change a state, so a key near INFINITE must be built in full.

The ``synthetic_grammar`` seed honors ``REPRO_CHAOS_SEED`` (default 42),
so CI's seed matrix checks a different random grammar per seed.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.bench import EmitContext
from repro.bench.workloads import (
    dynamic_bench_grammar,
    emit_bench_grammar,
    synthetic_grammar,
)
from repro.grammar import parse_grammar
from repro.grammar.costs import INFINITE, normalize_costs
from repro.ir import Forest, NodeBuilder
from repro.metrics import LabelMetrics
from repro.selection import DPLabeler, OnDemandAutomaton, Selector
from repro.selection.resilience import SelectionFailure
from repro.selection.states import state_signature

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "42"))

GRAMMARS = {
    "emit_bench": emit_bench_grammar,
    "dynamic_bench": dynamic_bench_grammar,
    "synthetic_12x5": lambda: synthetic_grammar(12, 5, CHAOS_SEED),
    "synthetic_30x10": lambda: synthetic_grammar(30, 10, CHAOS_SEED),
}


@pytest.mark.parametrize("name", sorted(GRAMMARS))
def test_projected_lookup_returns_the_full_key_state(name):
    """Exhaustive over the eager state set: for every operator, arity
    and child-state tuple (and, for a dynamic key, every outcome
    combination of the constraint rules it leaves open) the projected
    lookup answers with the state construction builds from the full
    key, and the full constructions find no state the build missed."""
    automaton = OnDemandAutomaton(GRAMMARS[name]())
    automaton.build_eager()
    states = list(automaton.pool.states)
    metrics = LabelMetrics()
    checked = 0
    for op_name, table in sorted(automaton._tables.items()):
        for arity in sorted(table.rules_by_arity):
            for kid_states in itertools.product(states, repeat=arity):
                key = tuple(state.index for state in kid_states)
                full = tuple(state.cost_vec for state in kid_states)
                where = (op_name, key)
                if not table.dynamic:
                    got = automaton._transition(table, key, metrics)
                    want = automaton._construct_state(table, arity, full, None, metrics)
                    assert got.signature == want.signature, where
                    checked += 1
                    continue
                row = automaton._dyn_row(table, key, metrics)
                assert row.candidates == tuple(
                    rule
                    for rule, kid_ids, _ in table.dyn_by_arity[arity]
                    if all(s.cost_at(nt_id) < INFINITE for nt_id, s in zip(kid_ids, kid_states))
                ), where
                assert all(rule.constraint is not None for rule in row.candidates)
                space = [(rule.cost, INFINITE) for rule in row.candidates]
                for outcomes in itertools.product(*space):
                    got = automaton._dyn_state(table, key, row, outcomes, None, metrics)
                    dyn_costs = automaton._dyn_costs(row, outcomes)
                    want = automaton._construct_state(table, arity, full, dyn_costs, metrics)
                    assert got.signature == want.signature, (where, outcomes)
                    checked += 1
    assert checked >= len(states) ** 2
    assert len(automaton.pool) == len(states)


@pytest.mark.parametrize(
    ("build", "per_full_key", "size"),
    [
        (emit_bench_grammar, (3_998, 7_098), (18, 2_342)),
        (lambda: synthetic_grammar(30, 10), (23_504, 566_577), (34, 23_496)),
    ],
    ids=["emit_bench", "synthetic_30x10"],
)
def test_eager_build_constructs_once_per_projected_key(build, per_full_key, size):
    """The eager build fills the same full tables, but constructs a state
    only per projected key: at most a tenth of the rule and chain checks
    that one construction per full key costs (the figures given)."""
    stats = OnDemandAutomaton(build()).build_eager()
    assert (stats["states"], stats["transitions"]) == size
    rule_checks, chain_checks = per_full_key
    assert stats["rule_checks"] * 10 <= rule_checks
    assert stats["chain_checks"] * 10 <= chain_checks


#: ``big`` is derivable only through a rule whose dynamic cost is two
#: below INFINITE.  At ``NEG(REG)`` it applies; at ``NEG(CNST)`` the
#: child's ``reg`` costs 3, so the full-key sum saturates and it does
#: not.  Both children project to the same ``reg`` cost (0), so only a
#: construction from the full key tells the two apart.
SATURATING_GRAMMAR = """
%grammar saturating
%start stmt
stmt: EXPR(big)   (0) "use %0"
reg:  REG         (0) "r"
con:  CNST        (0) "c"
reg:  con         (3) "li %0"
reg:  NEG(reg)    (1) "neg %0"
big:  NEG(reg)    (huge) "big %0"
"""


def _near_infinite(node):
    return INFINITE - 2


def _saturating_batch() -> list[Forest]:
    b = NodeBuilder()
    return [
        Forest([b.expr(b.neg(b.reg(1)))], name="applies"),
        Forest([b.expr(b.neg(b.cnst(7)))], name="saturates"),
        Forest([b.expr(b.neg(b.reg(2))), b.expr(b.neg(b.reg(3)))], name="applies twice"),
    ]


def _outcome(selector: Selector, forests: list[Forest]):
    context = EmitContext()
    result = selector.select_many(forests, context=context, on_error="isolate")
    values = [
        (value.phase, value.error_type) if isinstance(value, SelectionFailure) else value
        for value in result.values
    ]
    return values, context.instructions, result.report.cover_cost


def test_a_sum_that_saturates_on_the_full_key_is_built_from_it():
    grammar = parse_grammar(SATURATING_GRAMMAR, bindings={"huge": _near_infinite})
    forests = _saturating_batch()
    automaton = OnDemandAutomaton(grammar)
    labeling = automaton.label_many(forests)
    dp = DPLabeler(grammar).label_many(forests)
    for forest in forests:
        for node in forest.nodes():
            costs = {nt: dp.cost_of(node, nt) for nt in grammar.nonterminals}
            rules = {nt: dp.rule_for(node, nt) for nt in grammar.nonterminals}
            expected = state_signature(normalize_costs(costs), rules)
            assert labeling.state_of(node).signature == expected, node

    ondemand = _outcome(Selector(grammar), forests)
    assert ondemand == _outcome(Selector(grammar, mode="dp"), forests)
    values = ondemand[0]
    assert len(values[0]) == 1 and len(values[2]) == 2
    assert values[1] == ("reduce", "CoverError")
