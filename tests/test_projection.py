"""Projected transitions (BURS index maps) build the states full keys build.

The automaton's transition tables are keyed by projected child states:
each child state is projected onto the nonterminals the operator's
rules use at its operand position, renormalized, and interned to a
projected id (Chase, POPL 1987; Proebsting, TOPLAS 1995).  These tests
check that the projected tables are exact: on every ``(operator,
arity, state tuple)`` of a full eager build, and on every constraint
outcome a dynamic key leaves open, the lookup returns the state that
dynamic programming builds from the full key.  Costs add exactly, so
a renormalized child shifts every candidate alike; costs far above
``1 << 24`` (once a saturation cap) must select the same covers in
every mode.  The eager tables then hold one entry per projected key,
not one per state tuple.

The ``synthetic_grammar`` seed honors ``REPRO_CHAOS_SEED`` (default 42),
so CI's seed matrix checks a different random grammar, and a different
large-cost grammar, per seed.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.analysis.completeness import verify_completeness
from repro.bench import EmitContext
from repro.bench.workloads import (
    dynamic_bench_grammar,
    emit_bench_grammar,
    synthetic_forests,
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
                    got = automaton._entry(table, key, metrics)
                    want = automaton._construct_state(table, full, None, metrics)
                    assert got.signature == want.signature, where
                    checked += 1
                    continue
                row = automaton._entry(table, key, metrics)
                assert row.candidates == tuple(
                    rule
                    for rule, kid_ids, _ in table.dyn_by_arity[arity]
                    if all(s.cost_at(nt_id) < INFINITE for nt_id, s in zip(kid_ids, kid_states))
                ), where
                assert all(rule.constraint is not None for rule in row.candidates)
                space = [(rule.cost, INFINITE) for rule in row.candidates]
                for outcomes in itertools.product(*space):
                    got = row.get(outcomes)
                    assert got is not None, (where, outcomes)
                    dyn_costs = automaton._dyn_costs(row, outcomes)
                    want = automaton._construct_state(table, full, dyn_costs, metrics)
                    assert got.signature == want.signature, (where, outcomes)
                    checked += 1
    assert checked >= len(states) ** 2
    assert len(automaton.pool) == len(states)
    # Every lookup was a hit: the build had filed every entry.
    assert metrics.table_misses == 0 and metrics.states_created == 0


@pytest.mark.parametrize(
    ("build", "per_full_key", "size"),
    [
        (emit_bench_grammar, (3_998, 7_098), (18, 49)),
        (lambda: synthetic_grammar(30, 10), (23_504, 566_577), (34, 104)),
    ],
    ids=["emit_bench", "synthetic_30x10"],
)
def test_eager_build_constructs_once_per_projected_key(build, per_full_key, size):
    """The eager build reaches the states a full-key build reaches (18
    and 34) but files and constructs one entry per projected key: 49
    and 104 transitions where full keys needed 2,342 and 23,496, and at
    most a tenth of the rule and chain checks that one construction per
    full key costs (the figures given)."""
    stats = OnDemandAutomaton(build()).build_eager()
    assert (stats["states"], stats["transitions"]) == size
    rule_checks, chain_checks = per_full_key
    assert stats["rule_checks"] * 10 <= rule_checks
    assert stats["chain_checks"] * 10 <= chain_checks


def test_eager_tables_stay_small_and_verify_keeps_its_verdict():
    """``synthetic_grammar(60, 20)`` (seed 0): the eager build reaches
    the 64 states a full-key build reaches, in at most 1% of the 165,186
    transitions a full-key table holds, and ``verify_completeness``,
    which walks the same tables, still finds the grammar incomplete with
    a 4-node counterexample."""
    grammar = synthetic_grammar(60, 20, 0)
    stats = OnDemandAutomaton(grammar).build_eager()
    assert stats["states"] == 64
    assert stats["transitions"] * 100 <= 165_186
    report = verify_completeness(grammar)
    assert not report.complete and not report.capped
    assert report.counterexample.size() == 4
    assert report.value_states == 63


def _add_dag():
    """27 nodes: ``REG``, 25 nested ``n = ADD(n, n)``, ``EXPR``.  Its
    tree unfolding costs 2**25; the DAG's cover costs 25."""
    b = NodeBuilder()
    node = b.reg(1)
    for _ in range(25):
        node = b.add(node, node)
    return [Forest([b.expr(node)])]


NEG_CHAIN_GRAMMAR = """
%grammar negchain
%start stmt
stmt: EXPR(reg)  (0)       "use %0"
reg:  REG        (0)       "r"
reg:  NEG(reg)   (1000000) "neg %0"
"""


def _neg_chain():
    """A 17-deep ``NEG`` chain: 17 rules of cost 1,000,000."""
    b = NodeBuilder()
    node = b.reg(1)
    for _ in range(17):
        node = b.neg(node)
    return [Forest([b.expr(node)])]


def _outcome(selector: Selector, forests: list[Forest]):
    context = EmitContext()
    result = selector.select_many(forests, context=context, on_error="isolate")
    values = [
        (value.phase, value.error_type) if isinstance(value, SelectionFailure) else value
        for value in result.values
    ]
    return values, context.instructions, result.report.cover_cost


@pytest.mark.parametrize(
    ("build", "forests", "cover_cost"),
    [
        (emit_bench_grammar, _add_dag, 25),
        (lambda: parse_grammar(NEG_CHAIN_GRAMMAR), _neg_chain, 17_000_000),
    ],
    ids=["add_dag", "neg_chain"],
)
def test_costs_past_two_to_the_24_select_exactly_in_every_mode(build, forests, cover_cost):
    """Sums past ``1 << 24`` are ordinary costs: DP, on-demand and eager
    emit the same values and instructions at the exact cover cost."""
    outcomes = [_outcome(Selector(build(), mode=mode), forests()) for mode in ("dp", "ondemand", "eager")]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    values, instructions, cost = outcomes[0]
    assert cost == cover_cost
    assert instructions and not any(isinstance(value, tuple) for value in values)


#: ``big`` is derivable only through a rule whose dynamic cost is two
#: below ``1 << 24``.  At ``NEG(REG)`` and ``NEG(CNST)`` (whose child's
#: ``reg`` costs 3) it applies alike: both children project to the same
#: ``reg`` cost (0), and the exact sums differ by that constant only.
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
    return (1 << 24) - 2


def _saturating_batch() -> list[Forest]:
    b = NodeBuilder()
    return [
        Forest([b.expr(b.neg(b.reg(1)))], name="applies"),
        Forest([b.expr(b.neg(b.cnst(7)))], name="saturates"),
        Forest([b.expr(b.neg(b.reg(2))), b.expr(b.neg(b.reg(3)))], name="applies twice"),
    ]


#: A constraint rule whose cost, 9,000,000, is more than half of
#: ``1 << 24``.
HUGE_CONSTRAINT_GRAMMAR = """
%grammar hugecon
%start stmt
stmt: EXPR(reg)  (0)
reg:  REG        (0)
reg:  CNST       (2)
reg:  NEG(reg)   (3)
reg:  NEG(reg)   (9000000) @constraint(odd)
"""


def _odd(node):
    return node.kids[0].value is not None and node.kids[0].value % 2 == 1


def _huge_constraint_batch() -> list[Forest]:
    b = NodeBuilder()
    return [
        Forest([b.expr(b.neg(b.reg(i))), b.expr(b.neg(b.neg(b.cnst(i))))]) for i in range(4)
    ]


def _assert_states_match_dp(grammar, labeling, forests):
    dp = DPLabeler(grammar).label_many(forests)
    for forest in forests:
        for node in forest.nodes():
            costs = {nt: dp.cost_of(node, nt) for nt in grammar.nonterminals}
            rules = {nt: dp.rule_for(node, nt) for nt in grammar.nonterminals}
            expected = state_signature(normalize_costs(costs), rules)
            assert labeling.state_of(node).signature == expected, node


@pytest.mark.parametrize(
    ("text", "bindings", "batch"),
    [
        (SATURATING_GRAMMAR, {"huge": _near_infinite}, _saturating_batch),
        (HUGE_CONSTRAINT_GRAMMAR, {"odd": _odd}, _huge_constraint_batch),
    ],
    ids=["dynamic_cost", "constraint"],
)
def test_large_costs_label_and_select_as_dp_does(text, bindings, batch):
    """Costs near ``1 << 24`` label every node with the state DP builds,
    on demand and on the eager tables (which miss nothing unless the
    build skipped the dynamic-cost operator), and select what DP
    selects: the NEG(CNST) forest derives ``big`` too."""
    grammar = parse_grammar(text, bindings=bindings)
    forests = batch()
    _assert_states_match_dp(grammar, OnDemandAutomaton(grammar).label_many(forests), forests)
    eager = OnDemandAutomaton(grammar)
    skipped = eager.build_eager()["skipped"]
    contact = LabelMetrics()
    _assert_states_match_dp(grammar, eager.label_many(forests, contact), forests)
    assert (contact.table_misses == 0) == (skipped == [])

    ondemand = _outcome(Selector(grammar), forests)
    assert ondemand == _outcome(Selector(grammar, mode="dp"), forests)
    assert not any(isinstance(value, tuple) for value in ondemand[0])


def test_costs_scaled_by_two_to_the_22_scale_every_state():
    """Scaling every rule cost of ``synthetic_grammar(12, 5, seed)`` by
    ``1 << 22`` labels every node of ``synthetic_forests`` with the
    unscaled state, its delta costs scaled exactly, and with the state
    DP builds; the state set keeps its size.  The seed follows
    ``REPRO_CHAOS_SEED``, so each CI seed checks another large-cost
    grammar."""
    scale = 1 << 22
    plain = synthetic_grammar(12, 5, CHAOS_SEED)
    scaled = synthetic_grammar(12, 5, CHAOS_SEED)
    for rule in scaled.rules:
        rule.cost *= scale
    forests = synthetic_forests(scaled.operators, CHAOS_SEED, 4, 8, 5)
    plain_automaton = OnDemandAutomaton(plain)
    plain_labeling = plain_automaton.label_many(forests)
    automaton = OnDemandAutomaton(scaled)
    labeling = automaton.label_many(forests)
    _assert_states_match_dp(scaled, labeling, forests)
    for forest in forests:
        for node in forest.nodes():
            want = tuple(
                (nt, cost * scale, number)
                for nt, cost, number in plain_labeling.state_of(node).signature
            )
            assert labeling.state_of(node).signature == want, node
    assert len(automaton.pool) == len(plain_automaton.pool)
