"""The emission-tape compiler: differential, fragment, and fault tests.

These contracts are pinned here:

* **Differential emission** — the tape engine (compile + sweep) is
  byte-for-byte equivalent to the frame-stack :class:`Reducer` oracle:
  same semantic values, same emitted instructions, same ``(rule,
  mnemonic, operands)`` trace, same ``reductions``/``memo_hits``
  counters, across every benchmark workload family — including repeat
  batches on one long-lived selector, which compile every forest
  again from the automaton's derivation fragments (nothing is cached
  by forest shape, and a selector keeps no forest alive).
* **Stack code** — a tape's operand counts replay without underflow to
  one value per root; loads appear only in slot-walk tapes, one per
  slot-table hit; on a tree batch both walks lay out the same code, and
  a fault at any entry of either leaves the frame engine's counters,
  provenance and rollback.
* **Fault isolation** — ``on_error="isolate"`` under injected action
  faults rolls the tape's value buffer back to the same state the frame
  engine's memo surgery reaches, and both engines agree on every
  surviving forest's values; action faults carry node provenance,
  deadline aborts do not; a broken cover faults *before* any action
  runs (the frame engine's partial-prefix emission never happens).
* **Identity keying** — a node is its object on every engine: the
  labeling, the slot walk and the frame engine's memo all key nodes by
  ``id()``, so a forest and its unpickled, cloned, hand-built or
  ``replace_kids`` copy emit as two forests everywhere, and ``nid`` is
  provenance only.
* **Free cover cost** — the cost both engines sum in the walk that
  emits a forest (the tape's compile walk; the frame engine's
  reduction walk) equals the ``extract_cover`` oracle on
  every path, dynamic costs included, and ``extract_cover`` runs only
  for forests that memo-hit an earlier forest's entry.
"""

from __future__ import annotations

import gc
import pickle
import random
import time
import weakref

import pytest

from conftest import DEMO_TEXT, DYNAMIC_TEXT, build_dynamic_forest, echo_batch, mul_cost, small_const
from repro.errors import CoverError, DeadlineExceededError
from repro.grammar import Grammar, parse_grammar
from repro.ir import Forest, Node, NodeBuilder
from repro.ir.ops import DEFAULT_OPERATORS, Operator, OperatorSet
from repro.ir.traversal import topological_order
from repro.selection import (
    EMITTERS,
    MODES,
    ON_ERROR_POLICIES,
    CompiledTape,
    DPLabeler,
    Labeling,
    OnDemandAutomaton,
    Reducer,
    Selector,
    SelectorConfig,
    TapeEmitter,
    extract_cover,
)
from repro.selection import cover as cover_module
from repro.selection import tape as tape_module
from repro.selection.automaton import action_thunk
from repro.selection.reducer import _SplicedOperands, pass_through
from repro.selection.resilience import SelectionFailure, node_provenance
from repro.bench.workloads import (
    EmitContext,
    bench_grammar,
    clone_forest,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    recurring_shape_stream,
    reduce_heavy_forests,
    shared_reduction_forests,
)
from repro.testing import FaultyCallable, InjectedFault, poison_action, poison_constraint
from test_labelers import _helper_dynamic_grammar

# ----------------------------------------------------------------------
# Helpers

def _dynamic_dag_forests(seed: int) -> list[Forest]:
    """Dynamic-grammar forests over a shared pool of constraint-biased
    subtrees: operands repeat within a forest and across the batch, so
    the tape resolves shared entries through its slot table and later
    forests memo-hit earlier ones."""
    rng = random.Random(seed)
    sources = dynamic_constraint_forests(seed, forests=3, statements=6, max_depth=4)
    pool = [root.kids[-1] for forest in sources for root in forest.roots]
    b = NodeBuilder()
    out: list[Forest] = []
    for i in range(4):
        forest = Forest(name=f"dyn-dag-{i}")
        for _ in range(6):
            value = b.node(rng.choice(("ADD", "MUL")), rng.choice(pool), rng.choice(pool))
            if rng.random() < 0.3:
                forest.add(b.store(rng.choice(pool), value))
            else:
                forest.add(b.expr(value))
        out.append(forest)
    return out


#: The benchmark workload families the pipeline bench reduces, as
#: ``(name, grammar factory, forest factory, labeling mode)`` — the
#: differential surface: every automaton labeling emits through the
#: tape, dynamic grammars included.
FAMILIES = [
    ("random_trees", bench_grammar, lambda: random_forests(11, forests=6, statements=6, max_depth=5), "ondemand"),
    ("reduce_heavy", emit_bench_grammar, lambda: reduce_heavy_forests(12, forests=5, statements=6, max_depth=4), "ondemand"),
    ("dag_reduce", emit_bench_grammar, lambda: shared_reduction_forests(13, forests=5, statements=8, shared=4, max_depth=4), "ondemand"),
    ("dynamic_constraints", dynamic_bench_grammar, lambda: dynamic_constraint_forests(14, forests=5, statements=6, max_depth=4), "ondemand"),
    ("dynamic_eager", dynamic_bench_grammar, lambda: dynamic_constraint_forests(15, forests=5, statements=6, max_depth=4), "eager"),
    ("dynamic_dag", dynamic_bench_grammar, lambda: _dynamic_dag_forests(16), "ondemand"),
    ("recurring_stream", bench_grammar, lambda: recurring_shape_stream(15, shapes=3, length=12, statements=5, max_depth=4), "ondemand"),
]


def _tape_selector(grammar, **config):
    return Selector(grammar, mode="ondemand", config=SelectorConfig(emitter="tape", **config))


def _frame_selector(grammar, **config):
    return Selector(grammar, mode="ondemand", config=SelectorConfig(emitter="reducer", **config))


def _pure_action(lhs: str, pattern: str):
    def action(context, node, operands):
        return (lhs, pattern, node.op.name, node.value, tuple(operands))

    return action


ACTION_TEXT = """
%grammar tapechaos
%start stmt

stmt: EXPR(reg)      (0)
reg:  REG            (0)
reg:  con            (1)
reg:  ADD(reg, reg)  (1)
reg:  SUB(reg, reg)  (2)
reg:  MUL(reg, reg)  (3)
con:  CNST           (0)
"""


def _action_grammar():
    grammar = parse_grammar(ACTION_TEXT)
    for rule in grammar.rules:
        rule.action = _pure_action(rule.lhs, str(rule.pattern))
    return grammar


def _action_forests() -> list[Forest]:
    b = NodeBuilder()
    f0 = Forest(name="f0")
    f0.add(b.expr(b.add(b.reg(1), b.cnst(4))))
    f1 = Forest(name="f1")
    f1.add(b.expr(b.mul(b.reg(1), b.reg(2))))
    f2 = Forest(name="f2")  # the only forest containing SUB
    f2.add(b.expr(b.sub(b.reg(3), b.cnst(7))))
    f3 = Forest(name="f3")
    f3.add(b.expr(b.add(b.add(b.reg(1), b.reg(2)), b.cnst(3))))
    return [f0, f1, f2, f3]


def _rule(grammar, lhs: str, fragment: str):
    return next(r for r in grammar.rules if r.lhs == lhs and fragment in str(r.pattern))


def _chain_forest(length: int) -> Forest:
    """A left-leaning ADD chain long enough to cross deadline strides."""
    b = NodeBuilder()
    value = b.reg(0)
    for i in range(length):
        value = b.add(value, b.cnst(i % 8))
    forest = Forest(name="chain")
    forest.add(b.expr(value))
    return forest


# ----------------------------------------------------------------------
# Differential emission: tape vs frame reducer, every workload family


@pytest.mark.parametrize(
    "name,make_grammar,make_forests,mode", FAMILIES, ids=[f[0] for f in FAMILIES]
)
def test_tape_matches_reducer_on_workload_family(name, make_grammar, make_forests, mode):
    tape_ctx, frame_ctx = EmitContext(), EmitContext()
    tape_sel = Selector(make_grammar(), mode=mode, config=SelectorConfig(emitter="tape"))
    frame_sel = Selector(make_grammar(), mode=mode, config=SelectorConfig(emitter="reducer"))
    tape = tape_sel.select_many(make_forests(), context=tape_ctx)
    frame = frame_sel.select_many(make_forests(), context=frame_ctx)

    assert tape.report.tapes_compiled > 0  # the tape engine really ran
    assert tape.values == frame.values
    assert tape_ctx.instructions == frame_ctx.instructions
    assert tape_ctx.trace == frame_ctx.trace
    assert tape.report.reductions == frame.report.reductions
    assert tape.report.memo_hits == frame.report.memo_hits
    assert tape.report.cover_cost == frame.report.cover_cost


def test_repeat_batches_compile_every_forest_and_match_reducer():
    """Repeat batches of recurring shapes on one long-lived selector
    compile every forest again (nothing is cached by forest shape) and
    stay byte-identical to the oracle."""
    tape_sel = _tape_selector(bench_grammar())
    for _ in range(3):
        tape_ctx, frame_ctx = EmitContext(), EmitContext()
        stream = recurring_shape_stream(21, shapes=3, length=10, statements=5, max_depth=4)
        tape = tape_sel.select_many(stream, context=tape_ctx)
        frame = _frame_selector(bench_grammar()).select_many(
            recurring_shape_stream(21, shapes=3, length=10, statements=5, max_depth=4),
            context=frame_ctx,
        )
        assert tape.values == frame.values
        assert tape_ctx.instructions == frame_ctx.instructions
        assert tape_ctx.trace == frame_ctx.trace
        assert tape.report.memo_hits == frame.report.memo_hits
        assert tape.report.tapes_compiled == len(stream)
    assert "tape_cache" not in tape_sel.stats()["selection"]


def test_selector_report_carries_tape_counters():
    grammar = bench_grammar()
    stream = recurring_shape_stream(22, shapes=2, length=6, statements=4, max_depth=4)
    result = _tape_selector(grammar).select_many(stream, context=EmitContext())
    assert result.report.tapes_compiled == len(stream)  # one per forest
    assert result.report.tape_cache_hits == 0
    row = result.report.as_row()
    assert row["tapes_compiled"] == len(stream)
    assert "tape_cache_hits" not in row
    frame = _frame_selector(grammar).select_many(
        recurring_shape_stream(22, shapes=2, length=6, statements=4, max_depth=4),
        context=EmitContext(),
    )
    assert frame.report.tapes_compiled == 0
    assert frame.report.tape_cache_hits == 0


def test_emitters_registry_and_unknown_emitter_rejected():
    """An unknown emitter fails at construction, and ``stats()`` names
    the engine that actually runs: the frame engine under ``mode="dp"``
    even when the config says ``"tape"``."""
    assert EMITTERS == ("tape", "reducer")
    grammar = parse_grammar(DEMO_TEXT)
    for mode in MODES:
        with pytest.raises(ValueError, match="unknown emitter 'frames'"):
            Selector(grammar, mode, config=SelectorConfig(emitter="frames"))
    for mode, emitter, engine, tapes in (
        ("ondemand", "tape", "tape", 1),
        ("eager", "tape", "tape", 1),
        ("ondemand", "reducer", "reducer", 0),
        ("dp", "tape", "reducer", 0),
        ("dp", "reducer", "reducer", 0),
    ):
        sel = Selector(emit_bench_grammar(), mode, SelectorConfig(emitter=emitter))
        assert sel.stats()["selection"]["emitter"] == engine, (mode, emitter)
        result = sel.select_many([_chain_forest(2)], context=EmitContext())
        assert result.report.tapes_compiled == tapes, (mode, emitter)
        assert sel.stats()["selection"]["emitter"] == engine, (mode, emitter)


# ----------------------------------------------------------------------
# Every forest compiles


def _label(grammar, forest):
    return Selector(grammar, mode="ondemand").label(forest)


def test_dynamic_grammars_are_never_cached():
    grammar = dynamic_bench_grammar()
    sel = _tape_selector(grammar)
    for _ in range(2):
        result = sel.select_many(
            dynamic_constraint_forests(31, forests=3, statements=4, max_depth=3),
            context=EmitContext(),
        )
        assert result.report.tape_cache_hits == 0
        assert result.report.tapes_compiled == 3


def _sharing_pair() -> list[Forest]:
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.cnst(4))
    first = Forest(name="first")
    first.add(b.expr(shared))
    second = Forest(name="second")  # same shape, shares `shared` with first
    second.add(b.expr(shared))
    return [first, second]


def test_cross_forest_sharing_disables_caching_but_not_correctness():
    tape = _tape_selector(_action_grammar()).select_many(_sharing_pair())
    frame = _frame_selector(_action_grammar()).select_many(_sharing_pair())
    # The second forest memo-hits the shared subtree through the slot
    # table instead of re-emitting it.
    assert tape.values == frame.values
    assert tape.report.memo_hits == frame.report.memo_hits
    assert tape.report.reductions == frame.report.reductions


def test_unhashable_payloads_emit_and_match_reducer():
    def build() -> Forest:
        b = NodeBuilder()
        forest = Forest(name="weird")
        forest.add(b.expr(b.cnst([1, 2])))  # unhashable payload
        forest.add(b.expr(b.add(b.reg({"r": 1}), b.cnst([3]))))
        return forest

    tape_ctx, frame_ctx = EmitContext(), EmitContext()
    tape = _tape_selector(bench_grammar()).select_many([build()], context=tape_ctx)
    frame = _frame_selector(bench_grammar()).select_many([build()], context=frame_ctx)
    assert tape.report.tapes_compiled == 1
    assert tape.values == frame.values
    assert tape_ctx.instructions == frame_ctx.instructions
    assert tape.report.cover_cost == frame.report.cover_cost


def test_reemitted_and_grown_forests_recompile():
    grammar = _action_grammar()
    sel = _tape_selector(grammar)
    b = NodeBuilder()
    forest = Forest(name="again")
    forest.add(b.expr(b.add(b.reg(1), b.cnst(2))))
    baseline = sel.select_many([forest])
    assert baseline.report.tapes_compiled == 1
    again = sel.select_many([forest])  # same object, fresh emitter
    assert again.report.tapes_compiled == 1
    assert again.values == baseline.values
    forest.add(b.expr(b.sub(b.reg(1), b.reg(2))))
    result = sel.select_many([forest])
    assert result.report.tapes_compiled == 1
    assert len(result.values[0]) == 2
    assert result.values[0][:1] == baseline.values[0]
    oracle = _frame_selector(_action_grammar()).select_many([forest])
    assert result.values == oracle.values


def test_selector_holds_no_forest_after_select_many():
    sel = _tape_selector(bench_grammar())
    forests = recurring_shape_stream(52, shapes=2, length=4, statements=5, max_depth=4)
    refs = [weakref.ref(forest) for forest in forests]
    result = sel.select_many(forests, context=EmitContext())
    assert result.report.tapes_compiled == len(forests)
    del forests, result
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def _twin_operators() -> OperatorSet:
    """A second operator set with the default set's names, arities and
    flags; only the docs differ, so its operators compare unequal."""
    twin = OperatorSet(name="twin")
    for op in DEFAULT_OPERATORS:
        twin.register(Operator(op.name, op.arity, op.is_statement, op.has_payload, doc="twin"))
    return twin


def test_shape_key_uses_operator_names():
    """The automaton keys transitions, and so fragments, by operator
    *name*: a same-shaped forest over a second operator set emits what
    the first did, and forests differing in one operator name do
    not."""

    def build(builder: NodeBuilder, op_name: str) -> Forest:
        forest = Forest(name=op_name)
        forest.add(builder.expr(builder.node(op_name, builder.reg(1), builder.cnst(4))))
        return forest

    sel = _tape_selector(_action_grammar())
    first = sel.select_many([build(NodeBuilder(), "ADD")])
    assert first.report.tapes_compiled == 1

    twin = build(NodeBuilder(_twin_operators()), "ADD")
    assert twin.roots[0].op != DEFAULT_OPERATORS["EXPR"]
    again = sel.select_many([twin])
    assert again.report.tapes_compiled == 1
    assert again.values == first.values

    sub = sel.select_many([build(NodeBuilder(), "SUB")])
    assert sub.report.tapes_compiled == 1
    oracle = _frame_selector(_action_grammar()).select_many([build(NodeBuilder(), "SUB")])
    assert sub.values == oracle.values != first.values


def test_tape_engine_matches_reducer_on_dynamic_grammar_directly():
    """The engine level of the selector's dynamic-grammar routing: a
    TapeEmitter over a dynamic labeling compiles every forest and stays
    differentially equal to the oracle."""
    grammar = dynamic_bench_grammar()
    forests = dynamic_constraint_forests(61, forests=4, statements=5, max_depth=4)
    labeling = Selector(grammar, mode="ondemand").label_many(forests)
    tape_ctx, frame_ctx = EmitContext(), EmitContext()
    tape = TapeEmitter(labeling, tape_ctx)
    frame = Reducer(labeling, frame_ctx)
    tape_values = [tape.reduce_forest(forest) for forest in forests]
    frame_values = [frame.reduce_forest(forest) for forest in forests]
    assert tape_values == frame_values
    assert tape_ctx.instructions == frame_ctx.instructions
    assert tape_ctx.trace == frame_ctx.trace
    assert tape.tapes_compiled == len(forests)


def test_selector_routes_by_labeling_kind():
    """Every automaton labeling emits through the tape, static or
    dynamic grammar; a labeling without states (``mode="dp"``) and
    ``emitter="reducer"`` take the frame engine."""
    forests = {
        "static": [_chain_forest(3)],
        "dynamic": dynamic_constraint_forests(62, forests=2, statements=4, max_depth=3),
    }
    grammars = {"static": _action_grammar, "dynamic": dynamic_bench_grammar}
    for kind, make_grammar in grammars.items():
        for mode in ("ondemand", "eager"):
            sel = Selector(make_grammar(), mode=mode, config=SelectorConfig(emitter="tape"))
            labeling = sel.label_many(forests[kind])
            assert type(sel._make_emitter(labeling, None, None)) is TapeEmitter, (kind, mode)
        dp = Selector(make_grammar(), mode="dp", config=SelectorConfig(emitter="tape"))
        dp_labeling = dp.label_many(forests[kind])
        assert type(dp._make_emitter(dp_labeling, None, None)) is Reducer, kind
        with pytest.raises(TypeError, match="automaton labelings only"):
            TapeEmitter(dp_labeling)
        frame = Selector(make_grammar(), mode="ondemand", config=SelectorConfig(emitter="reducer"))
        frame_labeling = frame.label_many(forests[kind])
        assert type(frame._make_emitter(frame_labeling, None, None)) is Reducer, kind


# ----------------------------------------------------------------------
# Derivation fragments: the compile walk reads (state, goal) fragments


def _fresh_blocks_batches(batches: int) -> list[list[Forest]]:
    """The first *batches* of a seed-1 ``fresh_blocks``-style pool: 4
    reduce-heavy plus 4 shared-reduction forests per batch."""
    rng = random.Random(1)
    seeds = [rng.randrange(1 << 30) for _ in range(batches)]
    return [reduce_heavy_forests(s, 4) + shared_reduction_forests(s + 1, 4) for s in seeds]


def _dynamic_batches(batches: int) -> list[list[Forest]]:
    """The first *batches* of a seed-1 ``dynamic_constraints``-style pool."""
    rng = random.Random(1)
    return [dynamic_constraint_forests(rng.randrange(1 << 30), 8) for _ in range(batches)]


def _reordered_clones(forests: list[Forest]) -> list[Forest]:
    """Fresh-nid clones with each forest's roots reversed: the same
    states and (state, goal) pairs, but new forest shapes."""
    return [
        Forest(list(reversed(clone_forest(forest).roots)), name=forest.name)
        for forest in forests
    ]


#: ``(name, grammar factory, batch factory)``: a static grammar and a
#: dynamic one, each batch compiling fresh tapes.
FRAGMENT_FAMILIES = [
    ("static", emit_bench_grammar, lambda: _fresh_blocks_batches(1)[0]),
    ("dynamic", dynamic_bench_grammar, lambda: _dynamic_batches(1)[0]),
]


@pytest.mark.parametrize(
    "name,make_grammar,make_batch", FRAGMENT_FAMILIES, ids=[f[0] for f in FRAGMENT_FAMILIES]
)
def test_warm_tape_compile_resolves_no_rule_per_node(monkeypatch, name, make_grammar, make_batch):
    """On a warm selector a tape compile reads fragments only: no
    per-entry rule lookup, operand planning or thunk compilation, and
    no fragment is built again."""
    sel = Selector(make_grammar())
    batch = make_batch()
    assert sel.select_many(batch, context=EmitContext()).ok
    automaton = sel.engine
    built = automaton.fragment_count()
    assert built > 0

    calls: dict[str, int] = {}

    def count(owner, attr: str) -> None:
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] = calls.get(attr, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(Labeling, "require_rule")
    count(OnDemandAutomaton, "fragment")
    forests = _reordered_clones(batch)
    context = EmitContext()
    again = sel.select_many(forests, context=context)
    assert again.ok
    assert again.report.tapes_compiled == len(forests)
    assert calls == {}
    assert automaton.fragment_count() == built
    # The tape engine has no per-rule thunk compiler of its own, and
    # inherits no rule resolution from the frame engine.
    assert Reducer not in TapeEmitter.__mro__
    emitter = TapeEmitter(again.labeling, EmitContext())
    assert not {"reduce", "_memo", "_plans", "_earlier"} & set(dir(emitter))
    assert not hasattr(TapeEmitter, "_thunk_info")
    assert not hasattr(TapeEmitter, "_compile_thunk")

    oracle_context = EmitContext()
    oracle = _frame_selector(make_grammar()).select_many(
        _reordered_clones(batch), context=oracle_context
    )
    assert again.values == oracle.values
    assert context.instructions == oracle_context.instructions


@pytest.mark.parametrize(
    "make_grammar,make_pool",
    [(emit_bench_grammar, _fresh_blocks_batches), (dynamic_bench_grammar, _dynamic_batches)],
    ids=["fresh_blocks", "dynamic_constraints"],
)
def test_fragments_stay_within_the_derivable_pairs(make_grammar, make_pool):
    """One pass over a seed-1 pool builds at most one fragment per
    derivable (state, goal) pair for its one context kind."""
    sel = Selector(make_grammar())
    for batch in make_pool(96):
        assert sel.select_many(batch, context=EmitContext()).ok
    automaton = sel.engine
    derivable = sum(len(state.signature) for state in automaton.pool)
    assert 0 < automaton.fragment_count() <= derivable
    assert not automaton.fragments[0]  # EmitContext is the templated kind


@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
def test_unknown_start_nonterminal_fails_alike_on_both_engines(on_error):
    """A start name the grammar never declared fails the forest with the
    labeling's CoverError on every engine (the same message on the tape
    and frame engines over one automaton grammar), emits nothing, and
    leaves the automaton's nonterminal id space as it was."""
    selectors = {
        "tape": _tape_selector(emit_bench_grammar()),
        "frame": _frame_selector(emit_bench_grammar()),
        "dp": Selector(emit_bench_grammar(), mode="dp"),
    }
    messages = {}
    for name, sel in selectors.items():
        forests = random_forests(7, forests=1, statements=3, max_depth=3)
        first = forests[0].roots[0]
        expected = (
            f"no derivation of node {first.op.name} (nid={first.nid}) "
            f"from nonterminal 'bogus'"
        )
        context = EmitContext()
        if on_error == "raise":
            with pytest.raises(CoverError) as caught:
                sel.select_many(forests, context=context, start="bogus")
            error = caught.value
        else:
            result = sel.select_many(forests, context=context, start="bogus", on_error=on_error)
            [failure] = result.failures
            assert failure.phase == "reduce" and failure.roots_completed == 0, name
            error = failure.error
            assert isinstance(error, CoverError), name
        assert str(error).startswith(expected), (name, str(error))
        messages[name] = str(error).replace(f"nid={first.nid}", "nid=?")
        assert context.instructions == [] and context.trace == [], name
    assert messages["tape"] == messages["frame"]
    assert "bogus" not in selectors["tape"].engine.pool.nt_ids


def test_tape_rejects_a_chain_cycle_in_a_corrupt_state():
    """A state whose rule vector answers a chain-rule cycle (a from b,
    b from a) fails with the frame engine's CoverError when its
    fragment is built — before any action runs."""
    grammar = Grammar(name="cycle", start="a")
    grammar.op_rule("a", "REG", [], 0)
    grammar.op_rule("b", "REG", [], 0)
    a_from_b = grammar.chain("a", "b", 1)
    b_from_a = grammar.chain("b", "a", 1)
    emitted: list = []
    for rule in grammar.rules:
        rule.action = lambda context, node, operands: emitted.append(node.nid)
    node = NodeBuilder().reg(1)
    sel = Selector(grammar)
    labeling = sel.label_many([Forest([node], name="cyclic")])
    state = labeling.state_of(node)
    nt_ids = sel.engine.pool.nt_ids
    state.rule_vec[nt_ids["a"]] = a_from_b
    state.rule_vec[nt_ids["b"]] = b_from_a

    tape = TapeEmitter(labeling, [])
    with pytest.raises(CoverError, match="cyclic derivation"):
        tape.reduce_forest(Forest([node], name="cyclic"), "a")
    assert tape.memo_size() == 0 and len(tape._slots) == 0
    with pytest.raises(CoverError, match="cyclic derivation"):
        Reducer(labeling, []).reduce(node, "a")
    result = sel.select_many([Forest([node], name="cyclic")], on_error="isolate")
    [failure] = result.failures
    assert failure.phase == "reduce" and isinstance(failure.error, CoverError)
    assert emitted == []


def test_grammar_extension_drops_stale_fragments():
    """A grammar extension between batches drops the fragments with the
    state pool; the next batch compiles from fresh ones and equals the
    frame oracle over the same extended grammar."""

    def extend(grammar):
        rule = grammar.op_rule("reg", "CNST", [], 0)  # cheaper than reg: con + con: CNST
        rule.action = _pure_action("reg", "CNST")

    grammar = _action_grammar()
    sel = _tape_selector(grammar)
    first = sel.select_many(_action_forests())
    automaton = sel.engine
    stale = automaton.fragments
    assert automaton.fragment_count() > 0

    extend(grammar)
    second = sel.select_many(_action_forests())
    assert automaton.fragments is not stale
    live = set(automaton.pool.states)
    assert all(state in live for rows in automaton.fragments for state in rows)

    oracle_grammar = _action_grammar()
    extend(oracle_grammar)
    oracle = _frame_selector(oracle_grammar).select_many(_action_forests())
    assert second.values == oracle.values != first.values
    assert second.report.cover_cost == oracle.report.cover_cost < first.report.cover_cost
    assert second.report.reductions == oracle.report.reductions


class _TemplateFreeContext:
    """An emit context without ``emit_template``: templated rules pass
    their operands through, as under ``context=None``."""


@pytest.mark.parametrize(
    "make_grammar,make_forests",
    [
        (bench_grammar, lambda: random_forests(111, forests=3, statements=5, max_depth=4)),
        (dynamic_bench_grammar, lambda: dynamic_constraint_forests(112, forests=3, statements=5, max_depth=4)),
    ],
    ids=["static", "dynamic"],
)
def test_fragment_thunks_never_leak_across_context_kinds(make_grammar, make_forests):
    """One selector alternating a templated context, ``None`` and a
    template-free context: each run equals the frame oracle under the
    same context, so no template thunk serves the other kind."""
    sel = _tape_selector(make_grammar())
    frame = _frame_selector(make_grammar())
    for _ in range(2):
        for make_context in (EmitContext, lambda: None, _TemplateFreeContext):
            tape_ctx, frame_ctx = make_context(), make_context()
            tape = sel.select_many(make_forests(), context=tape_ctx)
            oracle = frame.select_many(make_forests(), context=frame_ctx)
            assert tape.values == oracle.values
            assert getattr(tape_ctx, "instructions", None) == getattr(frame_ctx, "instructions", None)
            assert tape.report.cover_cost == oracle.report.cover_cost
    assert all(sel.engine.fragments)  # both kinds were built


# ----------------------------------------------------------------------
# Fault isolation


@pytest.mark.parametrize("emitter", EMITTERS)
def test_isolate_rolls_back_identically_under_action_fault(emitter):
    # Clean oracle run first (fresh grammar, no fault).
    clean = _frame_selector(_action_grammar()).select_many(_action_forests())

    grammar = _action_grammar()
    poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
    # Build the selector *after* poisoning: thunks bind rule actions.
    sel = Selector(grammar, mode="ondemand", config=SelectorConfig(emitter=emitter))
    result = sel.select_many(_action_forests(), on_error="isolate")

    failure = result.values[2]
    assert isinstance(failure, SelectionFailure)
    assert failure.phase == "reduce"
    assert isinstance(failure.error, InjectedFault)
    assert failure.roots_completed == 0
    for index in (0, 1, 3):
        assert result.values[index] == clean.values[index]
    resilience = sel.stats()["resilience"]
    assert resilience["isolated_failures"] == 1
    assert resilience["failures_by_phase"].get("reduce") == 1


def test_isolate_rollback_keeps_later_batches_clean():
    """After a rollback, re-selecting the faulted forest's shape must
    re-emit from scratch — no stale slots, no stale cache tape."""
    grammar = _action_grammar()
    fault, _restore = poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
    sel = _tape_selector(grammar)
    first = sel.select_many(_action_forests(), on_error="isolate")
    assert isinstance(first.values[2], SelectionFailure)
    # The fault healed (non-sticky); the same batch now fully succeeds.
    second = sel.select_many(_action_forests(), on_error="isolate")
    assert not any(isinstance(v, SelectionFailure) for v in second.values)
    oracle = _frame_selector(_action_grammar()).select_many(_action_forests())
    assert second.values == oracle.values
    assert fault.faults == 1


def test_broken_cover_faults_before_any_action_runs():
    """Compilation precedes emission: a forest whose *second* root has
    no cover emits nothing through the tape, while the frame engine
    emits the first root's prefix before discovering the hole."""
    grammar = _action_grammar()
    b = NodeBuilder()
    forest = Forest(name="half-covered")
    forest.add(b.cnst(1))            # coverable from `con`
    forest.add(b.add(b.reg(1), b.reg(2)))  # `con` cannot derive ADD
    labeling = _label(grammar, forest)

    tape_ctx: list = []
    tape = TapeEmitter(labeling, tape_ctx)
    with pytest.raises(CoverError):
        tape.reduce_forest(forest, "con")
    assert tape.last_roots_completed == 0
    assert tape.memo_size() == 0      # nothing emitted, nothing to roll back
    assert len(tape._slots) == 0      # compile-time slots were unwound

    frame = Reducer(labeling, [])
    with pytest.raises(CoverError):
        frame.reduce_forest(forest, "con")
    assert frame.last_roots_completed == 1  # the prefix emitted first


def test_startless_grammar_raises_cover_error_in_isolate_path():
    grammar = _action_grammar()
    sel = Selector(grammar, mode="ondemand")
    forests = _action_forests()
    # Erase the start nonterminal on the grammar the emitters see.
    sel.label(forests[0]).grammar.start = None
    with pytest.raises(CoverError, match="no start nonterminal"):
        sel.select_many(_action_forests(), on_error="isolate")
    # An explicit start sidesteps the missing default.
    result = sel.select_many(_action_forests(), start="stmt", on_error="isolate")
    assert not any(isinstance(v, SelectionFailure) for v in result.values)


def test_action_fault_has_provenance_deadline_abort_does_not():
    grammar = _action_grammar()
    poison_action(_rule(grammar, "reg", "ADD"), on_call=1)
    forest = _chain_forest(80)
    labeling = _label(grammar, forest)
    emitter = TapeEmitter(labeling, [])
    with pytest.raises(InjectedFault) as excinfo:
        emitter.reduce_forest(forest)
    assert node_provenance(excinfo.value) is not None
    assert "ADD" in node_provenance(excinfo.value)

    # The compile walk finishes well inside the deadline; the first
    # action then stalls past it, so the *sweep* aborts mid-tape at its
    # next stride with *no* provenance (the action is not at fault).
    grammar = _action_grammar()
    deadline = time.monotonic_ns() + 200_000_000

    def stall_then_record(context, node, operands):
        while time.monotonic_ns() <= deadline:
            time.sleep(0.005)
        context.append(node.op.name)
        return node.op.name

    for rule in grammar.rules:
        rule.action = stall_then_record
    forest = _chain_forest(80)
    context: list = []
    emitter = TapeEmitter(_label(grammar, forest), context, deadline_at_ns=deadline)
    with pytest.raises(DeadlineExceededError) as excinfo:
        emitter.reduce_forest(forest)
    assert node_provenance(excinfo.value) is None
    emitted = emitter.memo_size()
    assert 0 < emitted == len(context) == emitter.reductions  # actions ran: a sweep abort
    assert len(emitter._slots) == emitted  # slots trimmed to the completed entries
    assert emitter.last_roots_completed == 0
    assert emitter.rollback_to(0) == emitted
    assert emitter.memo_size() == len(emitter._slots) == emitter.reductions == 0


def test_rollback_to_truncates_values_and_slots():
    grammar = _action_grammar()
    forests = _action_forests()
    labeling = Selector(grammar, mode="ondemand").label_many(forests)
    emitter = TapeEmitter(labeling, [])
    emitter.reduce_forest(forests[0])
    mark = emitter.memo_size()
    prefix = list(emitter._values)
    emitter.reduce_forest(forests[1])
    assert emitter.memo_size() > mark
    discarded = emitter.rollback_to(mark)
    assert discarded > 0
    assert emitter.memo_size() == mark == len(emitter._slots)
    # Re-reducing the rolled-back forest starts clean and agrees with a
    # fresh engine (no stale slot reuse, no corrupted seen counts).
    again = emitter.reduce_forest(forests[1])
    fresh = TapeEmitter(labeling, [])
    fresh.reduce_forest(forests[0])
    assert again == fresh.reduce_forest(forests[1])
    assert emitter._values[:mark] == prefix  # forest 0's slots untouched


# ----------------------------------------------------------------------
# Identity keying: a node is its object on every engine; nid is provenance


def _identity_source() -> Forest:
    return random_forests(3, forests=1, statements=3, max_depth=3)[0]


def _hand_built_copy(forest: Forest) -> Forest:
    """A structurally equal copy of *forest* built with ``Node(...)``:
    new node objects that carry no nid (``-1``)."""
    copies: dict[int, Node] = {}
    for node in topological_order(forest.roots):
        copies[id(node)] = Node(node.op, [copies[id(kid)] for kid in node.kids], node.value)
    return Forest([copies[id(root)] for root in forest.roots], name=forest.name)


def _replace_kids_root(forest: Forest) -> Forest:
    """A forest whose root is a ``replace_kids`` copy of *forest*'s first
    root, over the same kids (so beside *forest* it makes a DAG)."""
    root = forest.roots[0]
    return Forest([root.replace_kids(root.kids)], name="copy")


def _beside(copy):
    """A batch factory: the source forest beside ``copy(source)``."""

    def make() -> list[Forest]:
        forest = _identity_source()
        return [forest, copy(forest)]

    return make


#: ``(name, batch factory, (reductions, memo_hits, instructions))``.
#: The source forest alone reduces 37 times into 4 instructions; beside
#: a copy of it — builder-made, hand-built, cloned or unpickled — it
#: emits twice.  The ``replace_kids`` copy shares its source's kids, so
#: one entry memo-hits.  The unpickled case is the reproduction of the
#: object-vs-nid divergence: a copy with its source's nids.
IDENTITY_BATCHES = [
    ("builder", _beside(lambda forest: _identity_source()), (74, 0, 8)),
    ("hand_built", _beside(_hand_built_copy), (74, 0, 8)),
    ("clone_forest", _beside(clone_forest), (74, 0, 8)),
    ("replace_kids_root", _beside(_replace_kids_root), (38, 1, 4)),
    ("unpickled", _beside(lambda forest: pickle.loads(pickle.dumps(forest))), (74, 0, 8)),
]


@pytest.mark.parametrize(
    "name,make_batch,figures", IDENTITY_BATCHES, ids=[case[0] for case in IDENTITY_BATCHES]
)
def test_every_engine_keys_nodes_by_object(name, make_batch, figures):
    """``select_many``, a standalone :class:`TapeEmitter` (the slot
    walk), the frame :class:`Reducer` over the automaton labeling and
    DP + the frame ``Reducer`` emit the same values, instructions and
    trace.  These forests use no multi-node rule, so DP's counters
    compare with the automaton engines' too."""
    batch = make_batch()
    context = EmitContext()
    result = Selector(bench_grammar()).select_many(batch, context=context)
    report = result.report
    expected = (result.values, context.instructions, context.trace, report.reductions, report.memo_hits)
    assert (report.reductions, report.memo_hits, len(context.instructions)) == figures
    dp = DPLabeler(bench_grammar()).label_many(batch)
    for engine_cls, labeling in ((TapeEmitter, result.labeling), (Reducer, result.labeling), (Reducer, dp)):
        context = EmitContext()
        engine = engine_cls(labeling, context)
        values = [engine.reduce_forest(forest) for forest in batch]
        run = (values, context.instructions, context.trace, engine.reductions, engine.memo_hits)
        assert run == expected, (engine_cls.__name__, type(labeling).__name__)


def test_replace_kids_assigns_fresh_nid():
    b = NodeBuilder()
    original = b.add(b.reg(1), b.reg(2))
    copy = original.replace_kids((b.reg(3), b.reg(4)))
    assert copy.nid >= 0
    assert copy.nid != original.nid
    # Hand-built sources never had a nid and stay that way.
    hand = Node(original.op, original.kids)
    assert hand.replace_kids(original.kids).nid == -1


@pytest.mark.parametrize("engine_cls", [Reducer, TapeEmitter])
def test_memo_never_aliases_replace_kids_copy(engine_cls):
    grammar = _action_grammar()
    b = NodeBuilder()
    original = b.add(b.reg(1), b.cnst(2))
    copy = original.replace_kids((b.reg(9), b.cnst(8)))
    forest = Forest(name="alias")
    forest.add(b.expr(original))
    forest.add(b.expr(copy))
    labeling = _label(grammar, forest)
    engine = engine_cls(labeling, [])
    values = engine.reduce_forest(forest, "stmt")
    # A memo that aliased the copy with its original would return the
    # original's value; the copy is its own object, so it reduces again.
    assert values[0] != values[1]
    # The copy's left operand really is REG(9), not the original's REG(1).
    assert values[1][4][0][4][0] == ("reg", "REG", "REG", 9, ())


# ----------------------------------------------------------------------
# Free cover cost: summed by the emitting walk

#: Every bench workload family, plus the dynamic family.
COST_FAMILIES = [
    ("random", bench_grammar, lambda: random_forests(71, forests=4, statements=5, max_depth=4)),
    ("dag_heavy", bench_grammar, lambda: dag_heavy_forests(72, forests=4, statements=6, shared=4, max_depth=3)),
    ("reduce_heavy", emit_bench_grammar, lambda: reduce_heavy_forests(73, forests=4, statements=5, max_depth=4)),
    ("shared_reduction", emit_bench_grammar, lambda: shared_reduction_forests(74, forests=4, statements=6, shared=3, max_depth=4)),
    ("recurring_stream", bench_grammar, lambda: recurring_shape_stream(75, shapes=2, length=8, statements=4, max_depth=4)),
    ("dynamic_constraints", dynamic_bench_grammar, lambda: dynamic_constraint_forests(76, forests=4, statements=5, max_depth=4)),
]


def _oracle_cost(labeling, forests, start=None) -> int:
    """The batch's cover cost by the independent oracle:
    ``extract_cover`` over one forest holding every forest's roots, so
    each distinct (node, nonterminal) entry counts once."""
    union = Forest(name="union")
    for forest in forests:
        for root in forest.roots:
            union.add(root)
    return extract_cover(labeling, union, start).total_cost()


def _count_extract_cover(monkeypatch) -> list[str]:
    """Record every ``extract_cover`` walk, however it is reached (each
    builds one ``Cover``, looked up in the cover module at call time),
    by the grammar name it covers."""
    calls: list[str] = []

    class CountingCover(cover_module.Cover):
        def __init__(self, grammar, **fields):
            calls.append(grammar.name)
            super().__init__(grammar, **fields)

    monkeypatch.setattr(cover_module, "Cover", CountingCover)
    return calls


@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "name,make_grammar,make_forests", COST_FAMILIES, ids=[f[0] for f in COST_FAMILIES]
)
def test_cover_cost_matches_extract_cover_oracle(
    name, make_grammar, make_forests, mode, emitter, on_error
):
    sel = Selector(make_grammar(), mode=mode, config=SelectorConfig(emitter=emitter))
    forests = make_forests()
    first = sel.select_many(forests, context=EmitContext(), on_error=on_error)
    assert first.ok
    assert first.report.cover_cost == _oracle_cost(first.labeling, forests)
    assert "cover_ns" not in first.report.as_row()

    # Fresh-nid clones: a second batch on the same selector.
    clones = [clone_forest(forest) for forest in forests]
    again = sel.select_many(clones, context=EmitContext(), on_error=on_error)
    assert again.report.cover_cost == _oracle_cost(again.labeling, clones)
    assert again.report.cover_cost == first.report.cover_cost
    # Automaton labelings compile every forest to a tape; the dp
    # labeling has no states and takes the frame engine.
    on_tape = emitter == "tape" and mode != "dp"
    assert again.report.tapes_compiled == (len(clones) if on_tape else 0)


#: ``(name, grammar factory, batch factory)``: recurring shapes, fresh
#: reduce-heavy plus intra-forest-shared blocks, the dynamic family,
#: and two batches whose forests share nodes (the sharing pair, and
#: dynamic forests plus an echo of the first one's roots).
DEFAULT_PATH_FAMILIES = [
    ("recurring", bench_grammar, lambda: recurring_shape_stream(81, shapes=3, length=16, statements=5, max_depth=4)),
    ("fresh", emit_bench_grammar, lambda: reduce_heavy_forests(82, forests=4, statements=5, max_depth=4) + shared_reduction_forests(83, forests=4, statements=6, shared=3, max_depth=4)),
    ("dynamic", dynamic_bench_grammar, lambda: dynamic_constraint_forests(84, forests=8, statements=5, max_depth=4)),
    ("sharing_pair", _action_grammar, _sharing_pair),
    ("echo", dynamic_bench_grammar, echo_batch),
]


@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize(
    "name,make_grammar,make_batch", DEFAULT_PATH_FAMILIES, ids=[f[0] for f in DEFAULT_PATH_FAMILIES]
)
def test_default_tape_path_never_calls_extract_cover(
    monkeypatch, name, make_grammar, make_batch, emitter, on_error
):
    calls = _count_extract_cover(monkeypatch)
    # collect_cover=True is the default.
    sel = Selector(make_grammar(), config=SelectorConfig(emitter=emitter))
    batch = make_batch()
    for forests in (batch, [clone_forest(forest) for forest in batch]):
        result = sel.select_many(forests, context=EmitContext(), on_error=on_error)
        assert calls == []
        assert result.ok
        assert result.report.cover_cost == _oracle_cost(result.labeling, forests)
        calls.clear()  # the oracle's own walk
    stats = sel.stats()["selection"]
    assert "cover_ns" not in stats
    assert stats["total_ns"] == stats["label_ns"] + stats["reduce_ns"]


@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
def test_cross_forest_sharing_costs_shared_entries_once(monkeypatch, on_error):
    """Two forests sharing a subtree: the batch emits it once, with the
    first forest, and costs it once — 2, not 2 per forest — on both
    engines, with no ``extract_cover`` walk."""
    calls = _count_extract_cover(monkeypatch)
    for emitter in EMITTERS:
        forests = _sharing_pair()
        sel = Selector(_action_grammar(), config=SelectorConfig(emitter=emitter))
        result = sel.select_many(forests, on_error=on_error)
        assert calls == []
        assert result.report.cover_cost == 2
        assert result.report.cover_cost == _oracle_cost(result.labeling, forests)
        calls.clear()

    labeling = result.labeling
    for engine in (TapeEmitter(labeling, None), Reducer(labeling, None)):
        engine.reduce_forest(forests[0])
        assert engine.last_cover_cost == 2 == extract_cover(labeling, forests[0]).total_cost()
        engine.reduce_forest(forests[1])  # EXPR (0) over the memo-hit subtree
        assert engine.last_cover_cost == 0
        assert engine.memo_hits == 1


def test_frame_rollback_keeps_the_cross_forest_test_exact():
    """Rolling an engine back discards the rolled-back entries' cost
    with them: a later forest that re-lays them pays for them again, and
    a forest after it that memo-hits them pays nothing."""
    big, other = _chain_forest(6), _chain_forest(2)
    first, second = _sharing_pair()
    labeling = Selector(_action_grammar()).label_many([big, other, first, second])
    for engine in (Reducer(labeling, None), TapeEmitter(labeling, None)):
        engine.reduce_forest(big)
        mark = engine.memo_size()
        engine.reduce_forest(first)
        engine.rollback_to(mark)
        engine.reduce_forest(second)  # re-lays the shared subtree
        assert engine.last_cover_cost == extract_cover(labeling, second).total_cost() == 2
        engine.reduce_forest(first)  # memo-hits it
        assert engine.last_cover_cost == 0
        engine.rollback_to(0)
        engine.reduce_forest(other)
        assert engine.last_cover_cost == extract_cover(labeling, other).total_cost()


def test_explicit_start_costs_from_that_nonterminal():
    sel = _tape_selector(_action_grammar())
    b = NodeBuilder()
    forest = Forest(name="values")
    forest.add(b.add(b.reg(1), b.cnst(4)))  # reg: ADD (1) + REG (0) + con (1) + CNST (0)
    forest.add(b.cnst(9))                   # reg: con (1) + CNST (0)
    result = sel.select_many([forest], start="reg")
    assert result.report.cover_cost == 3
    assert result.report.cover_cost == extract_cover(result.labeling, forest, "reg").total_cost()
    again = sel.select_many([clone_forest(forest)], start="reg")
    assert again.report.tapes_compiled == 1
    assert again.report.cover_cost == 3


@pytest.mark.parametrize("emitter", EMITTERS)
def test_isolate_excludes_the_failed_forests_cost(emitter):
    forests = _action_forests()
    labeling = Selector(_action_grammar()).label_many(forests)
    clean = [extract_cover(labeling, forest).total_cost() for forest in forests]

    grammar = _action_grammar()
    poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
    sel = Selector(grammar, mode="ondemand", config=SelectorConfig(emitter=emitter))
    result = sel.select_many(_action_forests(), on_error="isolate")
    assert [failure.index for failure in result.failures] == [2]
    assert result.report.cover_cost == clean[0] + clean[1] + clean[3]


def test_compiled_tape_cost_sums_its_rules():
    for make_grammar, forests in (
        (bench_grammar, random_forests(91, forests=3, statements=5, max_depth=4)),
        (emit_bench_grammar, reduce_heavy_forests(92, forests=3, statements=5, max_depth=4)),
    ):
        result = _tape_selector(make_grammar()).select_many(forests, context=EmitContext())
        emitter = TapeEmitter(result.labeling, EmitContext())
        start = emitter.resolve_start(None)
        tapes = [emitter._compile(forest, start) for forest in forests]
        for tape, forest in zip(tapes, forests):
            assert tape.cost == extract_cover(result.labeling, forest).total_cost()
        assert sum(tape.cost for tape in tapes) == result.report.cover_cost

    # Constraint rules add their fixed cost: the compile walk costs a
    # dynamic grammar's tape too.
    forests = dynamic_constraint_forests(93, forests=2, statements=4, max_depth=3)
    labeling = Selector(dynamic_bench_grammar()).label_many(forests)
    emitter = TapeEmitter(labeling, EmitContext())
    emitter.reduce_forest(forests[0])
    assert emitter.last_cover_cost == extract_cover(labeling, forests[0]).total_cost()


def _dynamic_cost_grammar(mulcost=mul_cost):
    """conftest's dynamic grammar: a constraint plus a true lburg-style
    ``dynamic_cost`` rule, ``reg: MUL(reg, con) (mulcost)``."""
    return parse_grammar(DYNAMIC_TEXT, bindings={"small": small_const, "mulcost": mulcost})


def _dynamic_cost_forests() -> list[Forest]:
    b = NodeBuilder()
    shared = b.mul(b.add(b.reg(1), b.reg(2)), b.cnst(4))
    dag = Forest(name="dyn-dag")  # the MUL subtree is reduced once, costed once
    dag.add(b.expr(shared))
    dag.add(b.expr(b.add(shared, b.cnst(9))))
    return [build_dynamic_forest(), dag]


@pytest.mark.parametrize("mode", MODES)
def test_walk_cost_evaluates_dynamic_costs_like_extract_cover(monkeypatch, mode):
    forests = _dynamic_cost_forests()
    sel = Selector(_dynamic_cost_grammar(), mode=mode)
    labeling = sel.label_many(forests)
    covers = [extract_cover(labeling, forest) for forest in forests]
    assert all(
        any(entry.rule.dynamic_cost is not None for entry in cover.entries) for cover in covers
    )
    # The tape compiles automaton labelings only; dp is the frame engine's.
    for engine_cls in (Reducer,) if mode == "dp" else (Reducer, TapeEmitter):
        engine = engine_cls(labeling, None)
        for forest, cover in zip(forests, covers):
            engine.reduce_forest(forest)
            assert engine.last_cover_cost == cover.total_cost()

    calls = _count_extract_cover(monkeypatch)
    again = _dynamic_cost_forests()
    result = sel.select_many(again)
    assert calls == []
    assert result.report.cover_cost == _oracle_cost(result.labeling, again)


def _mul_forests() -> list[Forest]:
    """Three forests; only the middle one's cover uses ``mulcost``."""
    b = NodeBuilder()
    forests = [Forest(name=name) for name in ("add-const", "mul", "add-regs")]
    forests[0].add(b.expr(b.add(b.reg(1), b.cnst(3))))
    forests[1].add(b.expr(b.mul(b.reg(1), b.cnst(4))))
    forests[2].add(b.expr(b.add(b.reg(1), b.reg(2))))
    return forests


def _faulting_mulcost() -> FaultyCallable:
    """``mul_cost`` raising on its first call after labeling
    :func:`_mul_forests`, i.e. on its first call from an emitting walk."""
    counter = FaultyCallable(mul_cost, predicate=lambda node: False)
    Selector(_dynamic_cost_grammar(counter)).label_many(_mul_forests())
    return FaultyCallable(mul_cost, on_call=counter.calls + 1)


def test_raising_dynamic_cost_fails_only_its_forest():
    forests = _mul_forests()
    clean = Selector(_dynamic_cost_grammar()).select_many(forests)
    clean_costs = [extract_cover(clean.labeling, forest).total_cost() for forest in forests]
    assert clean.report.cover_cost == sum(clean_costs)

    sel = Selector(_dynamic_cost_grammar(_faulting_mulcost()))
    result = sel.select_many(_mul_forests(), on_error="isolate")
    [failure] = result.failures
    assert failure.index == 1
    assert failure.phase == "reduce"
    assert isinstance(failure.error, InjectedFault)
    assert failure.node is not None and failure.node.startswith("MUL(")
    assert failure.node == node_provenance(failure.error)
    assert result.values[0] == clean.values[0]
    assert result.values[2] == clean.values[2]
    assert result.report.cover_cost == clean_costs[0] + clean_costs[2]
    assert sel.stats()["resilience"]["failures_by_phase"]["reduce"] == 1


def test_raising_dynamic_cost_faults_the_tape_before_any_action_runs():
    """The tape evaluates dynamic costs in its compile walk, so the
    faulted forest emits nothing; the frame engine evaluates them as it
    reduces, after the entry's operands have emitted."""

    def record(context, node, operands):
        context.append(node.nid)
        return node.nid

    for engine_cls, actions_before_fault in ((TapeEmitter, 0), (Reducer, 2)):
        grammar = _dynamic_cost_grammar(_faulting_mulcost())
        for rule in grammar.rules:
            rule.action = record
        forests = _mul_forests()
        labeling = Selector(grammar).label_many(forests)
        context: list = []
        engine = engine_cls(labeling, context)
        engine.reduce_forest(forests[0])
        emitted = len(context)
        with pytest.raises(InjectedFault) as info:
            engine.reduce_forest(forests[1])
        assert node_provenance(info.value).startswith("MUL(")
        assert engine.last_roots_completed == 0
        assert len(context) - emitted == actions_before_fault  # REG and CNST operands


# ----------------------------------------------------------------------
# Two compile walks: the tree walk (select_many over a tree labeling)
# and the slot walk (DAG batches, standalone emitters)


def _referrers_are_single(forests: list[Forest]) -> bool:
    """Brute force: every distinct node of the batch has exactly one
    referrer — one root occurrence or one parent edge."""
    referrers: dict[int, int] = {}
    stack = [root for forest in forests for root in forest.roots]
    for root in stack:
        referrers[id(root)] = referrers.get(id(root), 0) + 1
    expanded: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in expanded:
            continue
        expanded.add(id(node))
        for kid in node.kids:
            referrers[id(kid)] = referrers.get(id(kid), 0) + 1
            stack.append(kid)
    return all(count == 1 for count in referrers.values())


def _tree_flag_batches() -> list[tuple[str, bool, list[Forest]]]:
    """``(name, is a tree, batch)`` triples."""
    b = NodeBuilder()
    tree = _action_forests()
    dag = Forest(name="dag")
    shared = b.add(b.reg(1), b.cnst(2))
    dag.add(b.expr(shared))
    dag.add(b.expr(b.mul(shared, b.reg(3))))
    twice = _action_forests()[0]
    first, second = Forest(name="first"), Forest(name="second")
    root = b.expr(b.sub(b.reg(4), b.cnst(5)))
    first.add(root)
    second.add(root)
    repeated_kid = Forest(name="same-kid")
    reg = b.reg(6)
    repeated_kid.add(b.expr(b.add(reg, reg)))
    original = _action_forests()[0]
    return [
        ("forest_and_unpickled_copy", True, [original, pickle.loads(pickle.dumps(original))]),
        ("forest_and_clone", True, [original, clone_forest(original)]),
        ("tree", True, tree),
        ("dag", False, [dag]),
        ("repeated_forest", False, [twice, twice]),
        ("root_shared_by_two_forests", False, [first, second]),
        ("one_kid_twice", False, [repeated_kid]),
        ("empty", True, []),
    ]


@pytest.mark.parametrize("mode", ["ondemand", "eager"])
def test_tree_flag_matches_a_brute_force_referrer_count(mode):
    sel = Selector(_action_grammar(), mode=mode)
    for name, is_tree, forests in _tree_flag_batches():
        assert _referrers_are_single(forests) is is_tree, name
        assert sel.label_many(forests).tree is is_tree, name
        assert sel.select_many(forests).labeling.tree is is_tree, name


def test_tree_flag_of_the_survivors_relabeled_after_a_label_fault():
    """``_label_survivors`` labels the survivors again in one batch; its
    labeling's flag describes that batch, with sharing or without."""
    for share in (False, True):
        b = NodeBuilder()
        product = b.mul(b.reg(1), b.cnst(4))
        g0 = Forest(name="g0")
        g0.add(b.expr(product))
        g1 = Forest(name="g1")  # the only forest containing CNST 13
        g1.add(b.expr(b.add(b.cnst(13), b.reg(1))))
        g2 = Forest(name="g2")
        g2.add(b.expr(b.add(product if share else b.mul(b.reg(1), b.cnst(4)), b.reg(2))))
        grammar = _dynamic_cost_grammar()
        constrained = next(r for r in grammar.rules if r.constraint is not None)
        poison_constraint(constrained, predicate=lambda node: node.value == 13)
        result = Selector(grammar).select_many([g0, g1, g2], on_error="isolate")
        assert [failure.index for failure in result.failures] == [1]
        assert _referrers_are_single([g0, g2]) is (not share)
        assert result.labeling.tree is (not share)


@pytest.fixture
def walks(monkeypatch) -> list[str]:
    """Record which compile walk lays out each forest: ``"tree"`` or
    ``"slot"``."""
    seen: list[str] = []
    tree, slot = TapeEmitter._compile_tree, TapeEmitter._compile_roots

    def compile_tree(self, forest, start):
        seen.append("tree")
        return tree(self, forest, start)

    def compile_slots(self, forest, start):
        seen.append("slot")
        return slot(self, forest, start)

    monkeypatch.setattr(TapeEmitter, "_compile_tree", compile_tree)
    monkeypatch.setattr(TapeEmitter, "_compile_roots", compile_slots)
    return seen


def _helper_tree_forests() -> list[Forest]:
    """The helper grammar's stores and products (multi-node constrained
    patterns whose helper operands splice flat), built as trees."""
    b = NodeBuilder()
    forests = []
    for value in (3, 8, 20, 4):
        forests.append(
            Forest(
                [
                    b.store(b.reg(2), b.add(b.load(b.reg(3)), b.cnst(value))),
                    b.store(b.reg(2), b.add(b.load(b.reg(3)), b.reg(value))),
                    b.store(b.mul(b.reg(1), b.cnst(4)), b.add(b.reg(4), b.cnst(value))),
                    b.expr(b.mul(b.add(b.mul(b.reg(1), b.cnst(4)), b.reg(5)), b.cnst(value))),
                    b.expr(b.mul(b.reg(6), b.load(b.cnst(value)))),
                ]
            )
        )
    return forests


#: Every tree family of the differential grid (``reduce_heavy``,
#: ``dag_reduce`` and ``dynamic_dag`` share nodes), plus the helper
#: grammar's spliced operands.
TREE_FAMILIES = [
    family for family in FAMILIES if family[0] not in ("reduce_heavy", "dag_reduce", "dynamic_dag")
] + [
    ("dynamic_helper", _helper_dynamic_grammar, _helper_tree_forests, "ondemand"),
]


def _standalone_run(engine_cls, make_grammar, make_forests, mode, context):
    """Emit every forest once through a standalone engine (the tape's
    slot walk, or the frame reducer), as ``select_many`` would."""
    forests = make_forests()
    labeling = Selector(make_grammar(), mode=mode).label_many(forests)
    engine = engine_cls(labeling, context)
    start = engine.resolve_start(None)
    values, cost = [], 0
    for forest in forests:
        values.append(engine.reduce_forest(forest, start))
        cost += engine.last_cover_cost
    return values, cost, engine.reductions, engine.memo_hits


@pytest.mark.parametrize("make_context", [EmitContext, _TemplateFreeContext], ids=["templated", "template_free"])
@pytest.mark.parametrize(
    "name,make_grammar,make_forests,mode", TREE_FAMILIES, ids=[f[0] for f in TREE_FAMILIES]
)
def test_tree_walk_matches_the_slot_walk_and_the_reducer(
    walks, name, make_grammar, make_forests, mode, make_context
):
    context = make_context()
    result = Selector(make_grammar(), mode=mode).select_many(make_forests(), context=context)
    assert result.labeling.tree
    assert walks == ["tree"] * len(result.values)
    report = result.report
    tree = (result.values, report.cover_cost, report.reductions, report.memo_hits)
    assert report.memo_hits == 0  # no entry of a tree can recur
    for engine_cls in (TapeEmitter, Reducer):
        walks.clear()
        other_context = make_context()
        assert _standalone_run(engine_cls, make_grammar, make_forests, mode, other_context) == tree
        assert walks == (["slot"] * len(result.values) if engine_cls is TapeEmitter else [])
        for field in ("instructions", "trace"):
            assert getattr(context, field, None) == getattr(other_context, field, None)


def test_dag_batches_and_standalone_emitters_keep_the_slot_walk(walks):
    forests = _sharing_pair()
    result = _tape_selector(_action_grammar()).select_many(forests)
    assert not result.labeling.tree
    assert walks == ["slot", "slot"] and result.report.memo_hits == 1

    walks.clear()
    forests = _action_forests()
    labeling = _tape_selector(_action_grammar()).label_many(forests)
    assert labeling.tree
    emitter = TapeEmitter(labeling, [])
    emitter.reduce_forest(forests[0])
    assert walks == ["slot"] and len(emitter._slots) == emitter.memo_size() > 0


def _replay_depths(tape) -> list[int]:
    """Replay *tape*'s operand counts on an empty stack: the depth after
    each entry, asserting that no entry pops more than the stack holds."""
    depth = 0
    depths = []
    for thunk, count in tape.codes:
        if thunk is not None:
            depth -= abs(count)
            assert depth >= 0
        depth += 1
        depths.append(depth)
    return depths


def _standalone_tapes(labeling, forests, once):
    """``(forest, tape, values, memo hits)`` for every forest of the
    batch *labeling* labeled, compiled and swept by one standalone
    emitter."""
    emitter = TapeEmitter(labeling, EmitContext(), once=once)
    start = emitter.resolve_start(None)
    out = []
    for forest in forests:
        hits = emitter.memo_hits
        tape = emitter._compile(forest, start)
        out.append((forest, tape, emitter._sweep(tape), emitter.memo_hits - hits))
    return emitter, out


#: The differential grid's families plus the helper grammar's trees.
ALL_FAMILIES = FAMILIES + [TREE_FAMILIES[-1]]


@pytest.mark.parametrize("once", [False, True], ids=["slot", "tree"])
@pytest.mark.parametrize(
    "name,make_grammar,make_forests,mode",
    ALL_FAMILIES,
    ids=[f[0] for f in ALL_FAMILIES],
)
def test_operand_counts_replay_to_one_value_per_root(name, make_grammar, make_forests, mode, once):
    """Replaying a tape's operand counts never pops an empty stack and
    leaves exactly one value per root, the last of root *r* on top once
    the replay passes ``ends[r]``."""
    forests = make_forests()
    labeling = Selector(make_grammar(), mode=mode).label_many(forests)
    _, tapes = _standalone_tapes(labeling, forests, once)
    for forest, tape, values, _ in tapes:
        assert isinstance(tape, CompiledTape)
        depths = _replay_depths(tape)
        assert len(tape.codes) == len(tape.nodes) == len(depths)
        assert tape.entries == sum(thunk is not None for thunk, _ in tape.codes)
        assert len(values) == len(tape.ends) == len(forest.roots)
        assert [depths[end - 1] for end in tape.ends] == list(range(1, len(forest.roots) + 1))
        assert depths[-1] == len(forest.roots)
        for (thunk, _), node in zip(tape.codes, tape.nodes):
            assert isinstance(node, Node) if thunk is not None else isinstance(node, int)


@pytest.mark.parametrize(
    "name,make_grammar,make_forests,mode",
    ALL_FAMILIES,
    ids=[f[0] for f in ALL_FAMILIES],
)
def test_loads_appear_only_in_slot_tapes_exactly_at_slot_table_hits(name, make_grammar, make_forests, mode):
    """A slot tape holds one load per slot-table hit of its compile, of
    a slot an earlier entry filled; the slot walk of a tree batch and
    every tree tape hold none."""
    forests = make_forests()
    labeling = Selector(make_grammar(), mode=mode).label_many(forests)
    tree = labeling.tree
    for once in (False, True):
        emitter, tapes = _standalone_tapes(labeling, forests, once)
        filled = 0
        for _, tape, _, hits in tapes:
            loads = [i for i, code in enumerate(tape.codes) if code is tape_module._LOAD]
            assert len(loads) == hits
            if once and tree:
                assert loads == []
            for i in loads:
                computed_before = filled + sum(code is not tape_module._LOAD for code in tape.codes[:i])
                assert 0 <= tape.nodes[i] < computed_before
            filled += tape.entries
        if once and tree:
            assert emitter.memo_hits == 0 and emitter._values == [] and emitter._slots == {}
        else:
            assert len(emitter._values) == len(emitter._slots) == emitter.reductions == filled
        if tree:
            assert emitter.memo_hits == 0


@pytest.mark.parametrize(
    "name,make_grammar,make_forests,mode", TREE_FAMILIES, ids=[f[0] for f in TREE_FAMILIES]
)
def test_tree_and_slot_tapes_of_a_tree_batch_lay_out_the_same_code(name, make_grammar, make_forests, mode):
    """On a tree batch the two walks lay out equal thunks, nodes and
    operand counts, root ends and costs; only the slot walk fills the
    value buffer."""
    forests = make_forests()
    labeling = Selector(make_grammar(), mode=mode).label_many(forests)
    slot, by_slots = _standalone_tapes(labeling, forests, once=False)
    tree, by_tree = _standalone_tapes(labeling, forests, once=True)
    assert tree._tree and not slot._tree
    for (_, a, a_values, _), (_, b, b_values, _) in zip(by_slots, by_tree):
        assert a.codes == b.codes
        assert a.nodes == b.nodes
        assert (a.ends, a.cost, a.entries) == (b.ends, b.cost, b.entries)
        assert a_values == b_values
    assert tree._values == [] and len(slot._values) == slot.reductions
    assert tree.reductions == slot.reductions and tree.memo_size() == slot.memo_size()


class _Planted(Exception):
    """The fault :func:`_failing_at_call` plants."""


def _failing_at_call(at: int):
    """The action grammar, every action recording its value in the
    context, the *at*-th action call raising :class:`_Planted`."""
    grammar = _action_grammar()
    calls = [0]
    for rule in grammar.rules:
        inner = rule.action

        def action(context, node, operands, _inner=inner):
            calls[0] += 1
            if calls[0] == at:
                raise _Planted(at)
            value = _inner(context, node, operands)
            context.append(value)
            return value

        rule.action = action
    return grammar


def _three_root_forests(shared: bool) -> list[Forest]:
    """A three-root forest and a later one; with *shared*, the first
    forest's roots reuse one subtree, which the later forest reuses too."""
    b = NodeBuilder()
    common = b.add(b.reg(1), b.reg(2))
    first = Forest(name="three")
    first.add(b.expr(b.add(b.reg(1), b.cnst(4))))
    first.add(b.expr(b.mul(common if shared else b.add(b.reg(1), b.reg(2)), b.cnst(3))))
    first.add(b.expr(b.sub(common if shared else b.reg(3), b.cnst(7))))
    later = Forest(name="later")
    later.add(b.expr(b.add(b.cnst(5), common if shared else b.reg(6))))
    return [first, later]


@pytest.mark.parametrize("shared", [False, True], ids=["tree", "dag"])
def test_a_mid_sweep_fault_matches_the_slot_walk_and_the_reducer(walks, shared):
    """An action fault at every entry of a three-root forest: the tape
    (the tree walk, and the slot walk with its loads) blames the frame
    Reducer's node, counts its reductions and completed roots, and rolls
    back to the same state, after which a later forest emits the same."""
    forests = _three_root_forests(shared)
    clean = Reducer(_label_many(_action_grammar(), forests), [])
    clean.reduce_forest(forests[0])
    assert (clean.memo_hits > 0) is shared
    for at in range(1, clean.reductions + 1):
        runs = {}
        for engine in ("slot", "reducer") if shared else ("tree", "slot", "reducer"):
            labeling = _label_many(_failing_at_call(at), forests)
            assert labeling.tree is not shared
            context: list = []
            if engine == "reducer":
                emitter = Reducer(labeling, context)
            else:
                emitter = TapeEmitter(labeling, context, once=engine == "tree")
            walks.clear()
            mark = emitter.memo_size()
            with pytest.raises(_Planted) as excinfo:
                emitter.reduce_forest(forests[0])
            at_fault = (
                node_provenance(excinfo.value),
                emitter.reductions,
                emitter.last_roots_completed,
                list(context),
            )
            discarded = emitter.rollback_to(mark)
            later = emitter.reduce_forest(forests[1])
            runs[engine] = (at_fault, discarded, emitter.reductions, emitter.memo_size(), later, context)
            assert walks == ([] if engine == "reducer" else [engine, engine])
        assert runs.get("tree", runs["slot"]) == runs["slot"] == runs["reducer"], at
        assert runs["slot"][0][1] == at - 1  # the entries before the fault completed


def _label_many(grammar, forests):
    return Selector(grammar, mode="ondemand").label_many(forests)


def test_a_spliced_helper_value_reached_through_a_load_is_spliced():
    """Two stores over one ``ADD(LOAD(addr), con)`` both match the
    multi-node pattern, so the second reaches the helper nonterminal's
    value — a splice-flat list — through a load: the store's action
    still sees its operands flat, as the DP labeling's frame Reducer
    hands them over."""

    def grammar():
        g = _helper_dynamic_grammar()
        for rule in g.rules:
            rule.action = _pure_action(rule.lhs, str(rule.pattern))
        return g

    def forests():
        b = NodeBuilder()
        inner = b.add(b.load(b.reg(3)), b.cnst(5))
        return [Forest([b.store(b.reg(1), inner), b.store(b.reg(2), inner)], name="stores")]

    batch = forests()
    result = Selector(grammar()).select_many(batch)
    oracle_batch = forests()
    oracle = Reducer(DPLabeler(grammar()).label_many(oracle_batch), None)
    assert result.values == [oracle.reduce_forest(oracle_batch[0])]
    first, second = result.values[0]
    assert first[0] == second[0] == "stmt"
    assert len(first[4]) == len(second[4]) == 3  # addr, the loaded addr, con

    emitter = TapeEmitter(_label_many(grammar(), batch), None)
    tape = emitter._compile(batch[0], "stmt")
    loads = [node for code, node in zip(tape.codes, tape.nodes) if code is tape_module._LOAD]
    emitter._sweep(tape)
    assert any(isinstance(emitter._values[slot], _SplicedOperands) for slot in loads)
    spliced = [count for thunk, count in tape.codes if thunk is not None and count < 0]
    assert spliced  # the store and the helper over the helper splice


def test_deadline_inside_the_tree_walk_has_no_provenance(walks):
    forest = _chain_forest(80)
    labeling = _label(_action_grammar(), forest)
    assert labeling.tree
    context: list = []
    emitter = TapeEmitter(labeling, context, deadline_at_ns=time.monotonic_ns() - 1, once=True)
    with pytest.raises(DeadlineExceededError) as excinfo:
        emitter.reduce_forest(forest)
    assert walks == ["tree"]
    assert node_provenance(excinfo.value) is None
    assert context == [] and emitter.memo_size() == emitter.reductions == 0
    assert emitter.last_roots_completed == 0


def _unary_chain_forest(depth: int) -> Forest:
    """``EXPR(NEG(NEG(...REG)))``: every visit but the root's is carried."""
    b = NodeBuilder()
    value = b.reg(0)
    for _ in range(depth):
        value = b.neg(value)
    return Forest([b.expr(value)], name="unary")


def _wide_forest(width: int) -> Forest:
    """Many short roots: most visits are pushed and popped."""
    b = NodeBuilder()
    return Forest([b.expr(b.add(b.reg(i), b.cnst(i % 8))) for i in range(width)], name="wide")


#: ``(shape, walk) -> deadline checks`` with a stride of one: one per
#: visit (and, in the slot walk, one per pending entry).
_COMPILE_TICKS = {
    ("unary", "tree"): 202,
    ("unary", "slot"): 403,
    ("wide", "tree"): 160,
    ("wide", "slot"): 240,
}


@pytest.mark.parametrize("walk", ["tree", "slot"])
@pytest.mark.parametrize("shape", ["unary", "wide"])
def test_expired_deadline_fires_inside_both_compile_walks(walks, monkeypatch, shape, walk):
    """A visit carried in locals still ticks the deadline: with a stride
    of one, each walk checks once per visit; with the real stride, an
    expired deadline fires inside the compile walk, before any action."""
    forest = _unary_chain_forest(200) if shape == "unary" else _wide_forest(40)
    labeling = OnDemandAutomaton(bench_grammar()).label_many([forest])
    assert labeling.tree
    once = walk == "tree"
    checks: list[str] = []
    with monkeypatch.context() as patch:
        patch.setattr(tape_module, "DEADLINE_CHECK_EVERY", 1)
        patch.setattr(tape_module, "check_deadline", lambda deadline, phase: checks.append(phase))
        far = time.monotonic_ns() + 3600 * 10**9
        counted = TapeEmitter(labeling, deadline_at_ns=far, once=once)
        compile_walk = counted._compile_tree if once else counted._compile_roots
        compile_walk(forest, "stmt")
    assert len(checks) == _COMPILE_TICKS[shape, walk]
    walks.clear()
    emitter = TapeEmitter(labeling, deadline_at_ns=time.monotonic_ns() - 1, once=once)
    with pytest.raises(DeadlineExceededError):
        emitter.reduce_forest(forest)
    assert walks == [walk]
    assert emitter.memo_size() == emitter.reductions == 0


def test_one_pass_through_serves_the_tape_and_the_reducer():
    """A rule with neither action nor template passes its operands
    through: the tape's thunk is :func:`pass_through` itself, and the
    frame engine's dispatch returns what it returns on every operand
    shape — never the caller's list, which stays as it was."""
    grammar = bench_grammar()
    rule = next(r for r in grammar.rules if r.action is None and r.template is None)
    assert action_thunk(rule, False) is action_thunk(rule, True) is pass_through
    reducer = Reducer(OnDemandAutomaton(grammar).label_many([]), EmitContext())
    node = NodeBuilder().reg(1)
    x, a, b = "x", ("a",), 3
    cases = [
        ([], []),
        ([x], x),
        ([[a, b]], [a, b]),
        ([[a]], a),
        ([x, [a, b]], [x, a, b]),
        ([x, _SplicedOperands([a, b])], [x, a, b]),
    ]
    for operands, expected in cases:
        before = [list(operand) if isinstance(operand, list) else operand for operand in operands]
        by_tape = pass_through(reducer.context, node, operands)
        by_frame = reducer._run_action(rule, node, operands)
        assert by_tape == by_frame == expected
        for result in (by_tape, by_frame):
            if isinstance(result, list):
                assert all(result is not held for held in [operands, *operands])
        assert operands == before


def _rollback_forests() -> list[Forest]:
    """Four tree forests; the third's second root holds the only SUB."""
    b = NodeBuilder()
    forests = _action_forests()
    forests[2] = Forest(name="f2")
    forests[2].add(b.expr(b.add(b.reg(5), b.cnst(6))))
    forests[2].add(b.expr(b.sub(b.reg(3), b.cnst(7))))
    return forests


def test_rollback_after_an_isolated_fault_in_a_tree_batch_matches_the_slot_walk(walks):
    runs = {}
    for walk in ("tree", "slot"):
        grammar = _action_grammar()
        for rule in grammar.rules:
            inner = rule.action

            def recorded(context, node, operands, _inner=inner):
                value = _inner(context, node, operands)
                context.append(value)
                return value

            rule.action = recorded
        poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
        context: list = []
        walks.clear()
        if walk == "tree":
            result = _tape_selector(grammar).select_many(
                _rollback_forests(), context=context, on_error="isolate"
            )
            [failure] = result.failures
            runs[walk] = (
                result.values[:2] + result.values[3:],
                failure.index,
                failure.roots_completed,
                result.report.reductions,
                result.report.cover_cost,
                context,
            )
        else:
            forests = _rollback_forests()
            emitter = TapeEmitter(_tape_selector(grammar).label_many(forests), context)
            values, cost = [], 0
            for index, forest in enumerate(forests):
                mark = emitter.memo_size()
                try:
                    values.append(emitter.reduce_forest(forest))
                except InjectedFault:
                    emitter.rollback_to(mark)
                    faulted = (index, emitter.last_roots_completed)
                else:
                    cost += emitter.last_cover_cost
            runs[walk] = (values, *faulted, emitter.reductions, cost, context)
        assert walks == [walk] * 4
    assert runs["tree"] == runs["slot"]
    assert runs["tree"][1:3] == (2, 1)  # the first root of f2 finished


def _two_product_roots() -> Forest:
    b = NodeBuilder()
    forest = Forest(name="products")
    forest.add(b.expr(b.mul(b.reg(1), b.cnst(4))))
    forest.add(b.expr(b.mul(b.reg(2), b.cnst(8))))
    return forest


def _first_emitting_call_faults(forests: list[Forest]) -> FaultyCallable:
    """``mul_cost`` raising on its first call after labeling *forests*."""
    counter = FaultyCallable(mul_cost, predicate=lambda node: False)
    Selector(_dynamic_cost_grammar(counter)).label_many(forests)
    return FaultyCallable(mul_cost, on_call=counter.calls + 1)


@pytest.mark.parametrize("start", [None, "reg"], ids=["stmt", "reg"])
def test_first_dynamic_cost_fault_is_the_same_on_both_walks_and_the_reducer(walks, start):
    """Both roots multiply by a constant; ``mulcost`` raises on its first
    emitting call.  Every engine blames the first root's ``MUL``.  Under
    ``start="reg"`` the first root is the bare ``MUL`` and the second, an
    ``EXPR``, has no derivation of ``reg``, yet the first root's cost
    still faults first (the slot walk costs a root before it reaches the
    next one)."""
    for engine in ("tree", "slot", "reducer"):
        forest = _two_product_roots()
        if start == "reg":
            forest = Forest([forest.roots[0].kids[0], forest.roots[1]], name="mixed")
        grammar = _dynamic_cost_grammar(_first_emitting_call_faults([forest]))
        record: list = []
        for rule in grammar.rules:
            rule.action = lambda context, node, operands: context.append(node.nid)
        walks.clear()
        with pytest.raises(InjectedFault) as excinfo:
            if engine == "tree":
                Selector(grammar).select_many([forest], context=record, start=start)
            else:
                labeling = Selector(grammar).label_many([forest])
                cls = TapeEmitter if engine == "slot" else Reducer
                cls(labeling, record).reduce_forest(forest, start)
        first_mul = forest.roots[0] if start == "reg" else forest.roots[0].kids[0]
        assert node_provenance(excinfo.value) == f"MUL(nid={first_mul.nid})"
        assert walks == ([] if engine == "reducer" else [engine])
        if engine != "reducer":
            assert record == []  # the tape faults before any action runs


def test_tree_walk_raises_the_first_underivable_root_after_costing_the_ones_before():
    """A root with no derivation from the start faults after the roots
    before it are laid out and costed, and the first such root is named,
    as on the slot walk."""
    b = NodeBuilder()
    forest = Forest(name="mixed")
    forest.add(b.mul(b.reg(1), b.cnst(4)))   # derives reg
    forest.add(b.expr(b.reg(2)))             # a statement: no reg
    forest.add(b.expr(b.reg(3)))             # neither
    messages = {}
    for engine in ("tree", "slot"):
        labeling = Selector(_dynamic_cost_grammar()).label_many([forest])
        emitter = TapeEmitter(labeling, [], once=engine == "tree")
        with pytest.raises(CoverError) as excinfo:
            emitter.reduce_forest(forest, "reg")
        messages[engine] = str(excinfo.value)
        assert emitter.memo_size() == 0 and emitter.last_roots_completed == 0
    assert messages["tree"] == messages["slot"]
    assert f"EXPR (nid={forest.roots[1].nid})" in messages["tree"]
