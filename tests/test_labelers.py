"""DP versus on-demand automaton: optimality, DAGs, amortization, dynamics."""

from __future__ import annotations

import time
from collections import Counter

import pytest

from conftest import BENCHMARK_BUILDERS, build_dag_forest, build_dynamic_forest
from repro.bench import EmitContext
from repro.bench.workloads import (
    BENCH_GRAMMAR_TEXT,
    DYNAMIC_BENCH_RULES,
    _imm4,
    _pow2,
    bench_grammar,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
)
from repro.errors import DeadlineExceededError
from repro.grammar import parse_grammar
from repro.grammar.costs import INFINITE, normalize_costs
from repro.ir import Forest, Node, NodeBuilder
from repro.metrics import LabelMetrics, format_table
from repro.selection import (
    DPLabeler,
    OnDemandAutomaton,
    Selector,
    extract_cover,
    label_dp,
)
from repro.selection.resilience import DEADLINE_CHECK_EVERY
from repro.selection.states import State, state_signature


def test_dp_and_automaton_produce_equal_cover_costs(demo_grammar, benchmark_forests):
    automaton = OnDemandAutomaton(demo_grammar)
    for forest in benchmark_forests:
        dp_cover = extract_cover(label_dp(demo_grammar, forest), forest)
        auto_cover = extract_cover(automaton.label(forest), forest)
        assert dp_cover.total_cost() == auto_cover.total_cost(), forest.name
        assert len(dp_cover) > 0


def test_dag_nodes_labeled_once(demo_grammar):
    forest = build_dag_forest()
    metrics = LabelMetrics()
    labeling = label_dp(demo_grammar, forest, metrics)
    assert metrics.nodes_labeled == forest.node_count()
    cover = extract_cover(labeling, forest)
    # DAG sharing: each (node, nonterminal) decision appears exactly once.
    decisions = [(id(entry.node), entry.nonterminal) for entry in cover.entries]
    assert len(decisions) == len(set(decisions))

    auto_metrics = LabelMetrics()
    OnDemandAutomaton(demo_grammar).label(forest, auto_metrics)
    assert auto_metrics.nodes_labeled == forest.node_count()


def test_automaton_amortizes_repeated_shapes(demo_grammar):
    """Re-labeling the same forest shapes must become pure table lookups."""
    automaton = OnDemandAutomaton(demo_grammar)

    first = LabelMetrics()
    for build in BENCHMARK_BUILDERS:
        automaton.label(build(), first)
    assert first.table_misses > 0
    assert first.states_created > 0
    assert first.construction_operations() > 0

    second = LabelMetrics()
    for build in BENCHMARK_BUILDERS:
        automaton.label(build(), second)
    assert second.nodes_labeled == first.nodes_labeled
    assert second.table_lookups == second.nodes_labeled
    assert second.table_misses == 0
    assert second.states_created == 0
    assert second.chain_checks == 0
    assert second.rule_checks == 0
    assert second.construction_operations() < first.construction_operations()


def test_dp_labeling_work_stays_constant(demo_grammar):
    labeler = DPLabeler(demo_grammar)
    first = LabelMetrics()
    second = LabelMetrics()
    for build in BENCHMARK_BUILDERS:
        labeler.label(build(), first)
    for build in BENCHMARK_BUILDERS:
        labeler.label(build(), second)
    assert first.chain_checks == second.chain_checks > 0
    assert first.rule_checks == second.rule_checks > 0


def test_dynamic_costs_and_constraints_agree(dynamic_grammar):
    forest = build_dynamic_forest()
    automaton = OnDemandAutomaton(dynamic_grammar)
    dp_metrics = LabelMetrics()
    auto_metrics = LabelMetrics()
    dp_cover = extract_cover(label_dp(dynamic_grammar, forest, dp_metrics), forest)
    auto_cover = extract_cover(automaton.label(forest, auto_metrics), forest)
    assert dp_cover.total_cost() == auto_cover.total_cost()
    assert dp_metrics.dynamic_evals > 0
    assert auto_metrics.dynamic_evals > 0
    # Constraint outcomes split the CNST transitions: small (immediate)
    # and large constants must reach different states.
    templates = {entry.rule.template for entry in dp_cover.entries if entry.rule.template}
    assert "li" in templates  # the large constant needs the load-immediate path


def test_dynamic_signatures_are_memoized(dynamic_grammar):
    """Same constraint outcome ⇒ table hit, even for different payloads."""
    automaton = OnDemandAutomaton(dynamic_grammar)
    automaton.label(build_dynamic_forest())
    repeat = LabelMetrics()
    automaton.label(build_dynamic_forest(), repeat)
    assert repeat.table_misses == 0
    assert repeat.dynamic_evals > 0  # dynamic checks are inherently per node


def test_multi_node_dynamic_cost_only_runs_where_pattern_matches():
    """Dynamic costs on multi-node rules may dereference the pattern's
    inner nodes; the automaton must not evaluate them at nodes the
    original pattern does not structurally match (it used to, crashing
    on e.g. a plain STORE while DP labeled the forest fine)."""
    def memadd_cost(node):
        inner = node.kids[1].kids[0]  # the LOAD of STORE(addr, ADD(LOAD(addr), reg))
        return 1 if inner.op.name == "LOAD" else 2

    grammar = parse_grammar(
        """
        %grammar md
        %start stmt
        stmt: EXPR(reg)                          (0)
        stmt: STORE(addr, reg)                   (2)
        stmt: STORE(addr, ADD(LOAD(addr), reg))  (memadd)
        addr: reg                                (0)
        reg:  REG                                (0)
        reg:  LOAD(addr)                         (3)
        reg:  ADD(reg, reg)                      (1)
        reg:  CNST                               (1)
        """,
        bindings={"memadd": memadd_cost},
    )
    b = NodeBuilder()
    forest = Forest(
        [
            b.store(b.reg(1), b.reg(2)),  # plain store: rule must not match
            b.store(b.reg(3), b.add(b.load(b.reg(3)), b.reg(4))),  # add-to-memory
        ]
    )
    automaton = OnDemandAutomaton(grammar)
    dp_cover = extract_cover(label_dp(grammar, forest), forest)
    auto_cover = extract_cover(automaton.label(forest), forest)
    assert dp_cover.total_cost() == auto_cover.total_cost()
    # The matching root uses the cheap dynamic add-to-memory rule.
    assert any(rule.dynamic_cost is memadd_cost for rule in auto_cover.original_rules_used())

    # The DP labeler on the *normalized* grammar sees only the flattened
    # one-level top pattern and must apply the same original-pattern
    # guard (it used to crash here too).
    from repro.grammar import normalize

    normalized = normalize(grammar)
    nf_cover = extract_cover(label_dp(normalized, forest), forest)
    assert nf_cover.total_cost() == dp_cover.total_cost()


def test_single_level_dynamic_rule_not_evaluated_on_arity_mismatch():
    """A dynamic cost on an ordinary (single-level) rule may read
    node.kids positions its pattern guarantees; when a node dialect
    disagrees about the operator's arity, neither labeler may run the
    callable (the automaton used to, crashing before _base_costs could
    filter the rule out)."""
    from repro.errors import CoverError
    from repro.grammar import Grammar
    from repro.ir import OperatorSet

    grammar_ops = OperatorSet(name="grammar-dialect")
    grammar_ops.define("EXPR", 1, is_statement=True)
    grammar_ops.define("REG", 0, has_payload=True)
    grammar_ops.define("PAIR", 2)
    grammar = Grammar(name="dialects", operators=grammar_ops, start="stmt")
    grammar.op_rule("stmt", "EXPR", ["reg"], 0)
    grammar.op_rule("reg", "REG", [], 0)
    grammar.op_rule(
        "reg", "PAIR", ["reg", "reg"], 0,
        dynamic_cost=lambda node: 1 + node.kids[1].nid,  # relies on arity 2
    )

    node_ops = OperatorSet(name="node-dialect")
    node_ops.define("EXPR", 1, is_statement=True)
    node_ops.define("REG", 0, has_payload=True)
    node_ops.define("PAIR", 1)  # same name, arity 1
    b = NodeBuilder(node_ops)
    forest = Forest([b.expr(b.pair(b.reg(1)))])

    # Neither labeler may crash; both must report "no derivation".
    for labeling in (label_dp(grammar, forest), OnDemandAutomaton(grammar).label(forest)):
        import pytest

        with pytest.raises(CoverError):
            extract_cover(labeling, forest)


def _dynamic_chain_grammar():
    """A grammar with one dynamic chain rule, ``addr: con``."""

    def addr_cost(node):
        return node.value % 4  # valid exactly where `con` is derivable (CNST)

    return parse_grammar(
        """
        %grammar chainmd
        %start stmt
        stmt: EXPR(reg)        (0)
        stmt: STORE(addr, reg) (1)
        addr: reg              (0)
        addr: con              (addrc)
        reg:  REG              (0)
        reg:  ADD(reg, reg)    (1)
        reg:  con              (1)
        con:  CNST             (0)
        """,
        bindings={"addrc": addr_cost},
    )


def test_dynamic_chain_rule_only_runs_where_source_is_derivable():
    """A dynamic chain rule's callable may rely on the node shapes its
    source nonterminal can label (here: CNST payloads); the automaton
    must not evaluate it at unrelated nodes (it used to, crashing on
    REG/ADD nodes where node.value is None), and same-outcome payloads
    must still share transitions."""
    grammar = _dynamic_chain_grammar()

    def build(payload):
        b = NodeBuilder()
        return Forest(
            [
                b.store(b.cnst(payload), b.add(b.reg(1), b.reg(2))),
                b.expr(b.reg(3)),
            ]
        )

    automaton = OnDemandAutomaton(grammar)
    cold = LabelMetrics()
    forest = build(8)
    dp_cover = extract_cover(label_dp(grammar, forest), forest)
    auto_cover = extract_cover(automaton.label(forest, cold), forest)
    assert dp_cover.total_cost() == auto_cover.total_cost()
    # CNST(8) and CNST(12) have the same dynamic outcome (0 mod 4): the
    # warm run must be pure table hits despite the different payload.
    warm = LabelMetrics()
    repeat = build(12)
    automaton.label(repeat, warm)
    assert warm.table_misses == 0
    assert warm.dynamic_evals > 0
    # A different outcome (2 mod 4) must split the transition, and agree
    # with DP about the resulting cover cost.
    other = build(6)
    dp_other = extract_cover(label_dp(grammar, other), other)
    auto_other = extract_cover(automaton.label(other), other)
    assert dp_other.total_cost() == auto_other.total_cost()


def test_grammar_extension_invalidates_automaton(demo_grammar):
    forest_before = build_dag_forest()
    automaton = OnDemandAutomaton(demo_grammar)
    cost_before = extract_cover(automaton.label(forest_before), forest_before).total_cost()
    states_before = len(automaton.pool)
    assert states_before > 0

    # A JIT-style extension: loads become free.  The automaton must
    # resynchronise and agree with DP on the extended grammar.
    demo_grammar.op_rule("reg", "LOAD", ["addr"], 0)
    forest_after = build_dag_forest()
    auto_cover = extract_cover(automaton.label(forest_after), forest_after)
    dp_cover = extract_cover(label_dp(demo_grammar, forest_after), forest_after)
    assert auto_cover.total_cost() == dp_cover.total_cost()
    assert auto_cover.total_cost() < cost_before


def test_multi_node_rule_actions_get_identical_operands_under_all_labelers():
    """A multi-node rule's action must receive the same flat operand list
    whether the reducer runs over the original grammar (DP) or the
    normalized one (automaton / DP-on-normalized); helper-rule values
    used to arrive as one nested list under the normalized grammars."""
    from repro.grammar import Grammar, normalize, nt_pattern, op_pattern
    from repro.selection import Reducer

    grammar = Grammar(name="ops", start="stmt")
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

    results = []
    for name, make_labeling in [
        ("dp-original", lambda f: label_dp(grammar, f)),
        ("dp-normalized", lambda f: label_dp(normalize(grammar), f)),
        ("automaton", lambda f: OnDemandAutomaton(grammar).label(f)),
    ]:
        forest = build()
        values = Reducer(make_labeling(forest)).reduce_forest(forest)
        results.append((name, values[0]))
    expected = ("r1", "r2", "r3")
    for name, value in results:
        assert value == expected, f"{name} produced {value!r}"


def test_metrics_render_as_comparison_table(demo_grammar):
    forest = build_dag_forest()
    dp_metrics = LabelMetrics()
    auto_metrics = LabelMetrics()
    label_dp(demo_grammar, forest, dp_metrics)
    OnDemandAutomaton(demo_grammar).label(forest, auto_metrics)
    rows = [
        {"labeler": "dp", **dp_metrics.as_row()},
        {"labeler": "ondemand", **auto_metrics.as_row()},
    ]
    table = format_table(rows, title="labeling work")
    assert "chain checks" in table
    assert "dp" in table and "ondemand" in table
    assert dp_metrics.operations() > 0 and auto_metrics.operations() > 0


def _chain_forests() -> list[Forest]:
    """Forests over the dynamic-chain grammar sharing one subtree."""
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.reg(2))
    return [
        Forest([b.store(b.cnst(payload), shared), b.expr(b.add(shared, b.reg(payload)))])
        for payload in (3, 8, 12, 14)
    ]


def _strict_kid(node: Node, index: int, op: str) -> Node:
    """``node.kids[index]``, which must be an *op* node: a callable built
    on it raises wherever a labeler runs it outside its pattern."""
    kid = node.kids[index]
    if kid.op.name != op:
        raise AssertionError(
            f"callable ran at {node.op.name}(nid={node.nid}): kid {index} is {kid.op.name}"
        )
    return kid


def _helper_dynamic_grammar():
    """A multi-node constrained pattern (normalized to helper
    nonterminals) and an lburg-style dynamic cost on a binary operator;
    both callables read nodes their pattern names, and raise elsewhere."""

    def memimm(node):
        inner = _strict_kid(node, 1, "ADD")
        _strict_kid(inner, 0, "LOAD")
        return _strict_kid(inner, 1, "CNST").value < 16

    def mulcost(node):
        return 1 if _strict_kid(node, 1, "CNST").value in (2, 4, 8) else 3

    return parse_grammar(
        """
        %grammar helperdyn
        %start stmt
        stmt: EXPR(reg)                          (0)
        stmt: STORE(addr, reg)                   (1)
        stmt: STORE(addr, ADD(LOAD(addr), con))  (0) @constraint(memimm)
        addr: reg                                (0)
        reg:  REG                                (0)
        reg:  con                                (1)
        con:  CNST                               (0)
        reg:  LOAD(addr)                         (3)
        reg:  ADD(reg, reg)                      (1)
        reg:  MUL(reg, reg)                      (3)
        reg:  MUL(reg, con)                      (mulcost)
        """,
        bindings={"memimm": memimm, "mulcost": mulcost},
    )


def _helper_forests() -> list[Forest]:
    """Stores that do and do not match the multi-node pattern, products
    by constants and registers, and a subtree shared across forests."""
    b = NodeBuilder()
    shared = b.mul(b.reg(1), b.cnst(4))
    forests = []
    for value in (3, 8, 20, 4):
        forests.append(
            Forest(
                [
                    b.store(b.reg(2), b.add(b.load(b.reg(3)), b.cnst(value))),
                    b.store(b.reg(2), b.add(b.load(b.reg(3)), b.reg(value))),
                    b.store(shared, b.add(b.reg(4), b.cnst(value))),
                    b.expr(b.mul(b.add(shared, b.reg(5)), b.cnst(value))),
                    b.expr(b.mul(b.reg(6), b.load(b.cnst(value)))),
                ]
            )
        )
    return forests


#: Grammars for the labeling-walk checks: static, dynamic with
#: constraint rules, with helper-normalized and dynamic-cost rules, and
#: with a dynamic chain rule (which routes every operator through the
#: dynamic tail).
WALK_FAMILIES = [
    ("static", bench_grammar, lambda: dag_heavy_forests(91, forests=3, statements=6, shared=4)),
    ("dynamic", dynamic_bench_grammar, lambda: dynamic_constraint_forests(92, forests=3, statements=5)),
    ("dynamic_helper", _helper_dynamic_grammar, _helper_forests),
    ("dynamic_chain", _dynamic_chain_grammar, _chain_forests),
]


def _batch_nodes(forests: list[Forest]) -> list[Node]:
    """The distinct nodes of a batch, children first."""
    return Forest([root for forest in forests for root in forest.roots]).nodes()


@pytest.mark.parametrize(
    "name,make_grammar,make_forests", WALK_FAMILIES, ids=[f[0] for f in WALK_FAMILIES]
)
def test_metrics_and_deadlines_never_change_a_state(name, make_grammar, make_forests):
    """With and without metrics or a deadline, on a fresh automaton
    each, every node gets the same state; a metered cold run charges one
    lookup per distinct node and one miss per transition it built."""
    grammar = make_grammar()
    forests = make_forests()
    nodes = _batch_nodes(forests)
    far = time.monotonic_ns() + 3600 * 10**9

    def signatures(metrics=None, deadline_at_ns=None):
        automaton = OnDemandAutomaton(grammar)
        labeling = automaton.label_many(forests, metrics, deadline_at_ns=deadline_at_ns)
        if metrics is not None:
            assert metrics.table_misses == automaton.transition_count()
            assert metrics.table_lookups == metrics.nodes_labeled == labeling.nodes_labeled
            assert metrics.states_created == len(automaton.pool)
        return [labeling.state_of(node).signature for node in nodes]

    reference = signatures()
    assert signatures(deadline_at_ns=far) == reference
    for deadline_at_ns in (None, far):
        metrics = LabelMetrics()
        assert signatures(metrics, deadline_at_ns) == reference
        assert metrics.nodes_labeled == len(nodes)


@pytest.mark.parametrize("metered", [False, True], ids=["unmetered", "metered"])
@pytest.mark.parametrize(
    "name,make_grammar,make_forests", WALK_FAMILIES, ids=[f[0] for f in WALK_FAMILIES]
)
def test_label_deadline_fires_inside_the_walk(name, make_grammar, make_forests, metered):
    """An expired deadline stops ``label_many`` itself within
    ``DEADLINE_CHECK_EVERY`` steps; a metered walk still counts the
    nodes it labeled before the deadline fired."""
    forests = [forest for _ in range(4) for forest in make_forests()]
    nodes = _batch_nodes(forests)
    assert len(nodes) > DEADLINE_CHECK_EVERY
    metrics = LabelMetrics() if metered else None
    with pytest.raises(DeadlineExceededError):
        OnDemandAutomaton(make_grammar()).label_many(
            forests, metrics, deadline_at_ns=time.monotonic_ns() - 1
        )
    if metered:
        assert 0 < metrics.nodes_labeled == metrics.table_lookups < len(nodes)


def _leaf_heavy_forests() -> list[Forest]:
    """64 statements whose binary nodes all have two leaf kids."""
    b = NodeBuilder()
    return [
        Forest(
            [
                b.expr(b.add(b.mul(b.reg(i), b.cnst(i)), b.sub(b.reg(i + 1), b.cnst(3))))
                for i in range(first, first + 8)
            ]
        )
        for first in range(0, 64, 8)
    ]


@pytest.mark.parametrize("metered", [False, True], ids=["unmetered", "metered"])
def test_label_deadline_fires_inside_a_warm_leaf_heavy_walk(metered):
    """On a warm automaton the walk labels leaf kids in place, off the
    stack; an expired deadline still stops ``label_many`` itself."""
    forests = _leaf_heavy_forests()
    nodes = _batch_nodes(forests)
    automaton = OnDemandAutomaton(bench_grammar())
    automaton.label_many(forests)  # every leaf table now holds its state
    metrics = LabelMetrics() if metered else None
    with pytest.raises(DeadlineExceededError):
        automaton.label_many(forests, metrics, deadline_at_ns=time.monotonic_ns() - 1)
    if metered:
        assert 0 < metrics.nodes_labeled == metrics.table_lookups < len(nodes)


@pytest.mark.parametrize(
    "name,make_grammar,make_forests", WALK_FAMILIES, ids=[f[0] for f in WALK_FAMILIES]
)
def test_a_warm_walk_gives_the_cold_walks_states_and_tree_flags(
    name, make_grammar, make_forests
):
    """A warm automaton — its leaf tables hold their states, so the walk
    labels leaf kids in place — gives every node the state a cold one
    gives, and every batch (the whole one, and each root alone) the
    same tree flag."""
    grammar = make_grammar()
    forests = make_forests()
    nodes = _batch_nodes(forests)
    batches = [forests] + [[Forest([root])] for forest in forests for root in forest.roots]

    def labelings(automaton):
        return [automaton.label_many(batch) for batch in batches]

    cold = labelings(OnDemandAutomaton(grammar))
    automaton = OnDemandAutomaton(grammar)
    automaton.label_many(forests)
    metrics = LabelMetrics()
    warm = automaton.label_many(forests, metrics)
    assert metrics.table_misses == 0 and warm.nodes_labeled == len(nodes)
    assert [warm.state_of(node).signature for node in nodes] == [
        cold[0].state_of(node).signature for node in nodes
    ]
    flags = [labeling.tree for labeling in labelings(automaton)]
    assert flags == [labeling.tree for labeling in cold]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_leaf_with_two_referrers_is_no_tree(warm):
    """A leaf labeled in place still counts its edges: ``ADD(L, L)``,
    ``NEG`` twice over one leaf, and a leaf shared by two forests are
    no trees, while the same shapes over distinct leaves are."""
    automaton = OnDemandAutomaton(bench_grammar())
    b = NodeBuilder()
    if warm:
        automaton.label_many([Forest([b.expr(b.add(b.neg(b.reg(9)), b.cnst(9)))])])
    leaf = b.reg(1)
    twice = automaton.label_many([Forest([b.expr(b.add(leaf, leaf))])])
    assert twice.tree is False and twice.nodes_labeled == 3
    unary = automaton.label_many([Forest([b.expr(b.neg(leaf)), b.expr(b.neg(leaf))])])
    assert unary.tree is False and unary.nodes_labeled == 5
    shared = b.cnst(2)
    across = [Forest([b.expr(b.add(b.reg(2), shared))]), Forest([b.expr(b.mul(b.reg(3), shared))])]
    assert automaton.label_many(across).tree is False
    distinct = [
        Forest([b.expr(b.add(b.reg(1), b.reg(1))), b.expr(b.neg(b.reg(1)))]),
        Forest([b.expr(b.mul(b.reg(3), b.cnst(2)))]),
    ]
    assert automaton.label_many(distinct).tree is True


def _dp_signatures(grammar, forests: list[Forest], nodes: list[Node]) -> list:
    """Every node's DP cost vector as a delta-cost state signature."""
    dp = DPLabeler(grammar).label_many(forests)
    signatures = []
    for node in nodes:
        costs = {nt: dp.cost_of(node, nt) for nt in grammar.nonterminals}
        rules = {nt: dp.rule_for(node, nt) for nt in grammar.nonterminals}
        signatures.append(state_signature(normalize_costs(costs), rules))
    return signatures


def test_foreign_and_dynamic_leaves_label_like_dp_cold_and_warm():
    """A leaf operator the grammar never mentions (its table appears on
    demand) and a leaf with a constraint rule (no static state to take
    in place) label as DP labels them, on the first walk and the next;
    the leaf constraint runs once per distinct leaf on every walk."""
    calls: list[int] = []

    def small(node):
        calls.append(id(node))
        return node.value < 8

    grammar = parse_grammar(
        """
        %grammar leaves
        %start stmt
        stmt: EXPR(reg)       (0)
        reg:  REG             (0)
        reg:  ADD(reg, reg)   (1)
        reg:  ADD(reg, con)   (1)
        reg:  NEG(reg)        (1)
        reg:  con             (1)
        con:  CNST            (0) @constraint(small)
        reg:  CNST            (3)
        """,
        bindings={"small": small},
    )
    b = NodeBuilder()
    # TEMP (a leaf) and SUB are foreign here: the grammar never names them.
    forests = [
        Forest(
            [
                b.expr(b.add(b.reg(1), b.cnst(value))),
                b.expr(b.add(b.neg(b.cnst(value + 4)), b.temp(value))),
                b.expr(b.neg(b.temp(2))),
                b.expr(b.add(b.sub(b.reg(3), b.cnst(1)), b.cnst(value))),
            ]
        )
        for value in (2, 6, 9)
    ]
    nodes = _batch_nodes(forests)
    constants = [node for node in nodes if node.op.name == "CNST"]
    expected = _dp_signatures(grammar, forests, nodes)
    automaton = OnDemandAutomaton(grammar)
    for _ in range(2):
        calls.clear()
        labeling = automaton.label_many(forests)
        assert [labeling.state_of(node).signature for node in nodes] == expected
        assert Counter(calls) == Counter(id(node) for node in constants)


def test_constraints_run_in_the_walks_pinned_order():
    """Labeling leaves in place moves no constraint call: on a fixed
    batch, cold and warm, the callables see nodes in this order (roots
    last to first, each subtree children first)."""
    calls: list[str] = []
    names: dict[int, str] = {}

    def recording(tag, predicate):
        def constraint(node):
            calls.append(f"{tag}:{names[id(node)]}")
            return predicate(node)

        return constraint

    grammar = parse_grammar(
        BENCH_GRAMMAR_TEXT + DYNAMIC_BENCH_RULES,
        bindings={"imm4": recording("imm4", _imm4), "pow2": recording("pow2", _pow2)},
    )
    b = NodeBuilder()

    def named(name, node):
        names[id(node)] = name
        return node

    c3 = b.cnst(3)
    a1 = named("a1", b.add(b.reg(1), c3))
    s1 = b.store(b.reg(2), named("m1", b.mul(a1, b.cnst(8))))
    s2 = named("s2", b.store(named("a2", b.add(b.neg(b.reg(3)), c3)), c3))
    m2 = named("m2", b.mul(b.cnst(2), named("a3", b.add(b.reg(4), b.cnst(20)))))
    e1 = b.expr(named("a4", b.add(m2, b.cnst(5))))
    s3 = named("s3", b.store(b.load(b.reg(5)), b.cnst(7)))
    e2 = b.expr(named("a5", b.add(b.mul(b.reg(6), b.reg(7)), b.cnst(16))))
    forests = [Forest([s1, s2]), Forest([e1, s3]), Forest([e2])]
    pinned = ["imm4:a5", "imm4:s3", "imm4:a3", "imm4:a4", "imm4:a2", "imm4:s2", "imm4:a1", "pow2:m1"]
    automaton = OnDemandAutomaton(grammar)
    for _ in range(2):
        calls.clear()
        automaton.label_many(forests)
        assert calls == pinned


@pytest.mark.parametrize(
    "name,make_grammar,make_forests", WALK_FAMILIES, ids=[f[0] for f in WALK_FAMILIES]
)
def test_states_and_covers_equal_the_dp_oracle(name, make_grammar, make_forests):
    """Every node's state is the DP cost vector (over the normalized
    grammar) shifted to delta costs, with the same rule numbers; every
    forest's cover costs what the DP cover over the source grammar does;
    and both labelers run the same dynamic callables."""
    from repro.grammar import normalize

    grammar = make_grammar()
    forests = make_forests()
    normalized = normalize(grammar)
    auto_metrics, dp_metrics = LabelMetrics(), LabelMetrics()
    labeling = OnDemandAutomaton(grammar).label_many(forests, auto_metrics)
    dp = DPLabeler(normalized).label_many(forests)
    for node in _batch_nodes(forests):
        costs = {nt: dp.cost_of(node, nt) for nt in normalized.nonterminals}
        rules = {nt: dp.rule_for(node, nt) for nt in normalized.nonterminals}
        expected = state_signature(normalize_costs(costs), rules)
        assert labeling.state_of(node).signature == expected, node
    source_dp = DPLabeler(grammar).label_many(forests, dp_metrics)
    for forest in forests:
        assert (
            extract_cover(labeling, forest).total_cost()
            == extract_cover(source_dp, forest).total_cost()
        )
    assert auto_metrics.dynamic_evals == dp_metrics.dynamic_evals
    if name != "static":
        assert auto_metrics.dynamic_evals > 0


def _counted(fn, calls: list[int]):
    def counted(node):
        calls.append(id(node))
        return fn(node)

    return counted


@pytest.mark.parametrize("mode", ["ondemand", "eager", "dp"])
def test_constraints_run_exactly_where_their_operands_derive(mode):
    """``imm4``/``pow2`` run once per labeled ``ADD``/``STORE`` (resp.
    ``MUL``) node whose second child's state derives ``con``, and at no
    other node — on a cold automaton, an eager one, and under DP."""
    imm4_calls: list[int] = []
    pow2_calls: list[int] = []
    grammar = parse_grammar(
        BENCH_GRAMMAR_TEXT + DYNAMIC_BENCH_RULES,
        bindings={"imm4": _counted(_imm4, imm4_calls), "pow2": _counted(_pow2, pow2_calls)},
    )
    forests = dynamic_constraint_forests(93, forests=6, statements=8)
    if mode == "dp":
        DPLabeler(grammar).label_many(forests)
    else:
        automaton = OnDemandAutomaton(grammar)
        if mode == "eager":
            automaton.build_eager()
            assert not imm4_calls and not pow2_calls  # enumeration runs no callable
        automaton.label_many(forests)
    oracle = OnDemandAutomaton(dynamic_bench_grammar()).label_many(forests)
    expected_imm4, expected_pow2 = Counter(), Counter()
    for node in _batch_nodes(forests):
        if len(node.kids) != 2 or oracle.cost_of(node.kids[1], "con") >= INFINITE:
            continue
        if node.op.name in ("ADD", "STORE"):
            expected_imm4[id(node)] += 1
        elif node.op.name == "MUL":
            expected_pow2[id(node)] += 1
    assert expected_imm4 and expected_pow2
    assert Counter(imm4_calls) == expected_imm4
    assert Counter(pow2_calls) == expected_pow2


@pytest.mark.parametrize("mode", ["ondemand", "eager", "dp"])
def test_constraint_reading_a_constant_operand_never_faults(mode):
    """A constraint that raises unless ``kids[1]`` is a ``CNST`` is safe:
    no labeler runs it where the child states rule its rule out."""
    def strict(predicate):
        def constraint(node):
            _strict_kid(node, 1, "CNST")
            return predicate(node)

        return constraint

    grammar = parse_grammar(
        BENCH_GRAMMAR_TEXT + DYNAMIC_BENCH_RULES,
        bindings={"imm4": strict(_imm4), "pow2": strict(_pow2)},
    )
    forests = dynamic_constraint_forests(94, forests=6, statements=8)
    result = Selector(grammar, mode=mode).select_many(forests, context=EmitContext())
    assert not result.failures
    oracle = DPLabeler(dynamic_bench_grammar()).label_many(forests)
    assert result.report.cover_cost == sum(
        extract_cover(oracle, forest).total_cost() for forest in forests
    )


def test_static_grammar_never_reaches_the_dynamic_tail(monkeypatch):
    """A static grammar labels through the static tables alone: no
    dynamic row or candidate is ever built, and every table entry is a
    state."""

    def forbidden(*args, **kwargs):
        raise AssertionError("static grammar reached the dynamic tail")

    for method in ("_new_row", "_dyn_state", "_chain_state"):
        monkeypatch.setattr(OnDemandAutomaton, method, forbidden)
    automaton = OnDemandAutomaton(bench_grammar())
    automaton.label_many(dag_heavy_forests(95, forests=4, statements=6, shared=4))
    automaton.build_eager()
    tables = automaton._tables.values()
    assert not any(table.dynamic for table in tables)
    assert all(
        isinstance(entry, State)
        for table in tables
        for slot in table.slots
        for _, entry in slot.entries()
    )
