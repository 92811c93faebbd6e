"""The emission-tape compiler: differential, caching, and fault tests.

Four contracts are pinned here:

* **Differential emission** — the tape engine (compile + sweep) is
  byte-for-byte equivalent to the frame-stack :class:`Reducer` oracle:
  same semantic values, same emitted instructions, same ``(rule,
  mnemonic, operands)`` trace, same ``reductions``/``memo_hits``
  counters, across every benchmark workload family — including repeat
  batches where the tape answers from its shape cache (a *different*
  emitter instance replaying a tape the first instance compiled).
* **Cache soundness** — shape-keyed replay is refused exactly where it
  would be unsound: dynamic grammars, cross-forest node sharing,
  unhashable payloads; a re-emitted forest object replays through the
  same signature lookup and a grown one recompiles; the cache is
  FIFO-bounded and keeps no forest or IR node alive.
* **Fault isolation** — ``on_error="isolate"`` under injected action
  faults rolls the tape's value buffer back to the same state the frame
  engine's memo surgery reaches, and both engines agree on every
  surviving forest's values; action faults carry node provenance,
  deadline aborts do not; a broken cover faults *before* any action
  runs (the frame engine's partial-prefix emission never happens).
* **Identity keying** — reduction memos key by ``node.nid`` (with the
  documented ``~id`` fallback for hand-built nodes), and
  ``replace_kids`` copies get fresh nids so they can never alias their
  source in a memo.
* **Free cover cost** — the cost both engines sum in the walk that
  emits a forest (the tape's compile walk, replayed from the cache; the
  frame engine's reduction walk) equals the ``extract_cover`` oracle on
  every path, dynamic costs included, and ``extract_cover`` runs only
  for forests that memo-hit an earlier forest's entry.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from conftest import DEMO_TEXT, DYNAMIC_TEXT, build_dynamic_forest, mul_cost, small_const
from repro.errors import CoverError, DeadlineExceededError
from repro.grammar import Grammar, parse_grammar
from repro.ir import Forest, Node, NodeBuilder
from repro.ir.ops import DEFAULT_OPERATORS, Operator, OperatorSet
from repro.selection import (
    EMITTERS,
    MODES,
    ON_ERROR_POLICIES,
    CompiledTape,
    Labeling,
    OnDemandAutomaton,
    Reducer,
    Selector,
    SelectorConfig,
    TapeCache,
    TapeEmitter,
    extract_cover,
    node_memo_key,
)
from repro.selection import selector as selector_module
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
from repro.testing import FaultyCallable, InjectedFault, poison_action

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


def test_tape_cache_replay_matches_reducer_across_batches():
    """Repeat batches replay shape-cached tapes compiled by an *earlier*
    emitter instance (each ``select_many`` builds a fresh engine over
    the selector-owned cache) and stay byte-identical to the oracle."""
    grammar = bench_grammar()
    tape_sel = _tape_selector(grammar)
    hits = 0
    compiled = 0
    for round_number in range(3):
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
        hits += tape.report.tape_cache_hits
        compiled += tape.report.tapes_compiled
        if round_number > 0:
            assert tape.report.tapes_compiled == 0  # everything replayed
    assert hits > 0
    cache = tape_sel.stats()["selection"]["tape_cache"]
    assert cache["hits"] == hits
    assert cache["size"] == compiled


def test_selector_report_carries_tape_counters():
    grammar = bench_grammar()
    stream = recurring_shape_stream(22, shapes=2, length=6, statements=4, max_depth=4)
    result = _tape_selector(grammar).select_many(stream, context=EmitContext())
    compiled = result.report.tapes_compiled
    assert 1 <= compiled <= 2  # one per distinct template shape drawn
    assert result.report.tape_cache_hits == len(stream) - compiled
    row = result.report.as_row()
    assert row["tapes_compiled"] == compiled
    assert row["tape_cache_hits"] == len(stream) - compiled
    frame = _frame_selector(grammar).select_many(
        recurring_shape_stream(22, shapes=2, length=6, statements=4, max_depth=4),
        context=EmitContext(),
    )
    assert frame.report.tapes_compiled == 0
    assert frame.report.tape_cache_hits == 0


def test_emitters_registry_and_unknown_emitter_rejected():
    assert EMITTERS == ("tape", "reducer")
    grammar = parse_grammar(DEMO_TEXT)
    sel = Selector(grammar, config=SelectorConfig(emitter="frames"))
    with pytest.raises(ValueError, match="unknown emitter 'frames'"):
        sel.select_many([_chain_forest(2)])
    assert Selector(grammar).stats()["selection"]["emitter"] == "tape"


# ----------------------------------------------------------------------
# Cache soundness gates


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
    stats = sel.stats()["selection"]["tape_cache"]
    assert stats["size"] == 0 and stats["hits"] == 0


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
    # The second forest memo-hits the shared subtree instead of
    # re-emitting it — replaying a cached tape here would double-emit.
    assert tape.report.tape_cache_hits == 0
    assert tape.values == frame.values
    assert tape.report.memo_hits == frame.report.memo_hits
    assert tape.report.reductions == frame.report.reductions


def test_unhashable_payload_skips_signature():
    grammar = _action_grammar()
    b = NodeBuilder()
    forest = Forest(name="weird")
    forest.add(b.expr(b.cnst([1, 2])))  # unhashable payload
    emitter = TapeEmitter(_label(grammar, forest), cache=TapeCache())
    signature, nodes, ord_of, shares = emitter._signature(forest)
    assert signature is None
    assert len(nodes) == len(ord_of) == 2  # EXPR and its CNST leaf
    assert shares is False
    # Emission still works; the tape just is not cached.
    values = emitter.reduce_forest(forest)
    assert len(values) == 1
    assert emitter.tapes_compiled == 1 and len(emitter._cache) == 0


def test_reemitted_forest_replays_by_signature_and_grown_forest_recompiles():
    grammar = _action_grammar()
    sel = _tape_selector(grammar)
    b = NodeBuilder()
    forest = Forest(name="again")
    forest.add(b.expr(b.add(b.reg(1), b.cnst(2))))
    baseline = sel.select_many([forest])
    assert baseline.report.tapes_compiled == 1
    replay = sel.select_many([forest])  # same object: same signature
    assert replay.report.tapes_compiled == 0
    assert replay.report.tape_cache_hits == 1
    assert replay.values == baseline.values
    # A grown forest is a new shape: it recompiles instead of replaying
    # the one-root tape.
    forest.add(b.expr(b.sub(b.reg(1), b.reg(2))))
    result = sel.select_many([forest])
    assert result.report.tapes_compiled == 1
    assert result.report.tape_cache_hits == 0
    assert len(result.values[0]) == 2
    assert result.values[0][:1] == baseline.values[0]
    oracle = _frame_selector(_action_grammar()).select_many([forest])
    assert result.values == oracle.values


def _holds_node(value) -> bool:
    if isinstance(value, Node):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_node(item) for item in value)
    return False


def test_tape_cache_keeps_no_forest_alive():
    sel = _tape_selector(bench_grammar())
    forests = recurring_shape_stream(52, shapes=2, length=4, statements=5, max_depth=4)
    refs = [weakref.ref(forest) for forest in forests]
    result = sel.select_many(forests, context=EmitContext())
    assert result.report.tape_cache_hits > 0
    tapes = list(sel._tape_cache._tapes.values())
    assert tapes
    for tape in tapes:
        for field in CompiledTape.__slots__:
            assert not _holds_node(getattr(tape, field)), field
    del forests, result
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_tape_cache_fifo_eviction():
    cache = TapeCache(maxsize=2)
    sentinel = object()
    cache.put(("a",), sentinel)
    cache.put(("b",), sentinel)
    cache.put(("c",), sentinel)
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.get(("a",)) is None  # FIFO: oldest key evicted
    assert cache.get(("c",)) is sentinel
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def _twin_operators() -> OperatorSet:
    """A second operator set with the default set's names, arities and
    flags; only the docs differ, so its operators compare unequal."""
    twin = OperatorSet(name="twin")
    for op in DEFAULT_OPERATORS:
        twin.register(Operator(op.name, op.arity, op.is_statement, op.has_payload, doc="twin"))
    return twin


def test_shape_key_uses_operator_names():
    """Tapes are keyed by operator *name*, the automaton's transition
    key: a same-shaped forest over a second operator set replays the
    cached tape, and forests differing in one operator name never share
    one."""

    def build(builder: NodeBuilder, op_name: str) -> Forest:
        forest = Forest(name=op_name)
        forest.add(builder.expr(builder.node(op_name, builder.reg(1), builder.cnst(4))))
        return forest

    sel = _tape_selector(_action_grammar())
    first = sel.select_many([build(NodeBuilder(), "ADD")])
    assert first.report.tapes_compiled == 1

    twin = build(NodeBuilder(_twin_operators()), "ADD")
    assert twin.roots[0].op != DEFAULT_OPERATORS["EXPR"]
    replay = sel.select_many([twin])
    assert replay.report.tapes_compiled == 0
    assert replay.report.tape_cache_hits == 1
    assert replay.values == first.values

    sub = sel.select_many([build(NodeBuilder(), "SUB")])
    assert sub.report.tapes_compiled == 1
    assert sub.report.tape_cache_hits == 0
    oracle = _frame_selector(_action_grammar()).select_many([build(NodeBuilder(), "SUB")])
    assert sub.values == oracle.values != first.values
    assert len(sel._tape_cache) == 2


def test_tape_engine_matches_reducer_on_dynamic_grammar_directly():
    """The engine level of the selector's dynamic-grammar routing: a
    TapeEmitter over a dynamic labeling compiles every forest (never a
    shape-cache replay) and stays differentially equal to the oracle."""
    grammar = dynamic_bench_grammar()
    forests = dynamic_constraint_forests(61, forests=4, statements=5, max_depth=4)
    labeling = Selector(grammar, mode="ondemand").label_many(forests)
    tape_ctx, frame_ctx = EmitContext(), EmitContext()
    tape = TapeEmitter(labeling, tape_ctx, cache=TapeCache())
    frame = Reducer(labeling, frame_ctx)
    tape_values = [tape.reduce_forest(forest) for forest in forests]
    frame_values = [frame.reduce_forest(forest) for forest in forests]
    assert tape_values == frame_values
    assert tape_ctx.instructions == frame_ctx.instructions
    assert tape_ctx.trace == frame_ctx.trace
    assert tape.tapes_compiled == len(forests)
    assert tape.tape_cache_hits == 0


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
    states and (state, goal) pairs, but new forest shapes, so a warm
    selector compiles every tape instead of replaying a cached one."""
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
    count(Reducer, "_targets_for")
    count(Reducer, "_plan_for")
    count(OnDemandAutomaton, "fragment")
    forests = _reordered_clones(batch)
    context = EmitContext()
    again = sel.select_many(forests, context=context)
    assert again.ok
    assert again.report.tapes_compiled == len(forests)
    assert again.report.tape_cache_hits == 0
    assert calls == {}
    assert automaton.fragment_count() == built
    # The tape engine has no per-rule thunk compiler of its own.
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
        tape.reduce(node, "a")
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
# Tape layout


def test_tape_fields_are_consistent():
    grammar = bench_grammar()
    sel = _tape_selector(grammar)
    sel.select_many(
        recurring_shape_stream(51, shapes=2, length=4, statements=5, max_depth=4),
        context=EmitContext(),
    )
    tapes = list(sel._tape_cache._tapes.values())
    assert tapes
    for tape in tapes:
        n = tape.entries
        assert len(tape.thunks) == len(tape.nt_ids) == len(tape.spliced) == n
        assert len(tape.runs) == len(tape.node_ords) == n
        assert all(0 <= ordinal for ordinal in tape.node_ords)
        for i, run in enumerate(tape.runs):
            # Postorder: an entry's operands are earlier slots.
            for ref in run:
                assert tape.base <= (ref >> 1) < tape.base + i
        assert tape.cacheable
        assert all(0 <= ref < tape.base + n for ref in tape.root_refs)


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

    # Replay the cached shape under an expired deadline: the sweep
    # aborts mid-tape with *no* provenance (the action is not at fault).
    grammar = _action_grammar()
    forest = _chain_forest(80)
    labeling = _label(grammar, forest)
    cache = TapeCache()
    TapeEmitter(labeling, [], cache=cache).reduce_forest(forest)
    expired = TapeEmitter(
        labeling, [], deadline_at_ns=1, cache=cache
    )
    with pytest.raises(DeadlineExceededError) as excinfo:
        expired.reduce_forest(clone_forest(forest))
    assert node_provenance(excinfo.value) is None


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
# Identity keying (nid-keyed memos, replace_kids freshness)


def test_node_memo_key_ranges_are_disjoint():
    b = NodeBuilder()
    built = b.reg(1)
    assert built.nid >= 0
    assert node_memo_key(built) == built.nid
    hand = Node(built.op, (), value=7)
    assert hand.nid == -1
    assert node_memo_key(hand) == ~id(hand) < 0


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
    # Same memo key would return the original's value for the copy; the
    # fresh nid forces a genuine second reduction with copy's operands.
    assert values[0] != values[1]
    # The copy's left operand really is REG(9), not the original's REG(1).
    assert values[1][4][0][4][0] == ("reg", "REG", "REG", 9, ())


# ----------------------------------------------------------------------
# Free cover cost: summed by the emitting walk, cached on the tape

#: Every bench workload family, plus the dynamic family (whose tapes
#: are never shape-cached).
COST_FAMILIES = [
    ("random", bench_grammar, lambda: random_forests(71, forests=4, statements=5, max_depth=4)),
    ("dag_heavy", bench_grammar, lambda: dag_heavy_forests(72, forests=4, statements=6, shared=4, max_depth=3)),
    ("reduce_heavy", emit_bench_grammar, lambda: reduce_heavy_forests(73, forests=4, statements=5, max_depth=4)),
    ("shared_reduction", emit_bench_grammar, lambda: shared_reduction_forests(74, forests=4, statements=6, shared=3, max_depth=4)),
    ("recurring_stream", bench_grammar, lambda: recurring_shape_stream(75, shapes=2, length=8, statements=4, max_depth=4)),
    ("dynamic_constraints", dynamic_bench_grammar, lambda: dynamic_constraint_forests(76, forests=4, statements=5, max_depth=4)),
]


def _oracle_cost(labeling, forests, start=None) -> int:
    return sum(extract_cover(labeling, forest, start).total_cost() for forest in forests)


def _count_extract_cover(monkeypatch) -> list[str]:
    """Count the selector's ``extract_cover`` calls (forest names)."""
    calls: list[str] = []
    real = selector_module.extract_cover

    def counting(labeling, forest, start=None):
        calls.append(forest.name)
        return real(labeling, forest, start)

    monkeypatch.setattr(selector_module, "extract_cover", counting)
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
    report = first.report
    assert report.total_ns == report.label_ns + report.reduce_ns + report.cover_ns

    # Fresh-nid clones: on the tape path every forest replays a cached
    # tape and takes its cost from it.
    clones = [clone_forest(forest) for forest in forests]
    again = sel.select_many(clones, context=EmitContext(), on_error=on_error)
    assert again.report.cover_cost == _oracle_cost(again.labeling, clones)
    assert again.report.cover_cost == first.report.cover_cost
    # Automaton labelings emit through the tape; a static grammar's
    # clones replay it, a dynamic grammar's always recompile.  The dp
    # labeling has no states and takes the frame engine.
    on_tape = emitter == "tape" and mode != "dp"
    if on_tape and name != "dynamic_constraints":
        assert again.report.tapes_compiled == 0
        assert again.report.tape_cache_hits == len(clones)
    elif on_tape:
        assert again.report.tapes_compiled == len(clones)
        assert again.report.tape_cache_hits == 0
    else:
        assert again.report.tapes_compiled == again.report.tape_cache_hits == 0
    # Both engines cost every forest in the walk that emits it.
    assert first.report.cover_ns == again.report.cover_ns == 0


#: ``(name, grammar factory, batch factory)``: recurring shapes (tape
#: replays), fresh reduce-heavy plus intra-forest-shared blocks (tape
#: compiles), and the dynamic family (tape compiles, never cached).
DEFAULT_PATH_FAMILIES = [
    ("recurring", bench_grammar, lambda: recurring_shape_stream(81, shapes=3, length=16, statements=5, max_depth=4)),
    ("fresh", emit_bench_grammar, lambda: reduce_heavy_forests(82, forests=4, statements=5, max_depth=4) + shared_reduction_forests(83, forests=4, statements=6, shared=3, max_depth=4)),
    ("dynamic", dynamic_bench_grammar, lambda: dynamic_constraint_forests(84, forests=8, statements=5, max_depth=4)),
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
        assert result.ok
        assert result.report.cover_cost == _oracle_cost(result.labeling, forests)
        assert result.report.cover_ns == 0
    assert calls == []
    stats = sel.stats()["selection"]
    assert stats["cover_ns"] == 0
    assert stats["total_ns"] == stats["label_ns"] + stats["reduce_ns"]


@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
def test_cross_forest_sharing_falls_back_to_extract_cover(monkeypatch, on_error):
    """A forest whose emission memo-hits an earlier forest's entry
    (tape slot or frame memo) has only part of its cover in its own
    walk, so that forest (only) is costed by the ``extract_cover``
    fallback, timed as ``cover_ns`` — on both engines."""
    calls = _count_extract_cover(monkeypatch)
    for emitter in EMITTERS:
        calls.clear()
        forests = _sharing_pair()
        sel = Selector(_action_grammar(), config=SelectorConfig(emitter=emitter))
        result = sel.select_many(forests, on_error=on_error)
        assert calls == ["second"]
        assert result.report.cover_cost == _oracle_cost(result.labeling, forests)
        report = result.report
        assert report.cover_ns > 0
        assert report.total_ns == report.label_ns + report.reduce_ns + report.cover_ns
        assert report.as_row()["cover_ns"] == report.cover_ns

    labeling = result.labeling
    for engine in (TapeEmitter(labeling, None), Reducer(labeling, None)):
        engine.reduce_forest(forests[0])
        assert engine.last_cover_cost == extract_cover(labeling, forests[0]).total_cost()
        engine.reduce_forest(forests[1])
        assert engine.last_cover_cost is None


def test_frame_rollback_keeps_the_cross_forest_test_exact():
    """Rolling the frame memo back below a forest's start discards what
    the cross-forest test knew of it: entries made after the rollback
    count as earlier entries for the next forest."""
    big, other = _chain_forest(6), _chain_forest(2)
    first, second = _sharing_pair()
    labeling = Selector(_action_grammar()).label_many([big, other, first, second])
    frame = Reducer(labeling, None)
    frame.reduce_forest(big)
    frame.reduce_forest(other)
    frame.rollback_to(0)
    frame.reduce_forest(first)
    assert frame.last_cover_cost == extract_cover(labeling, first).total_cost()
    frame.reduce_forest(second)  # memo-hits `first`'s shared subtree
    assert frame.last_cover_cost is None


def test_explicit_start_costs_from_that_nonterminal():
    sel = _tape_selector(_action_grammar())
    b = NodeBuilder()
    forest = Forest(name="values")
    forest.add(b.add(b.reg(1), b.cnst(4)))  # reg: ADD (1) + REG (0) + con (1) + CNST (0)
    forest.add(b.cnst(9))                   # reg: con (1) + CNST (0)
    result = sel.select_many([forest], start="reg")
    assert result.report.cover_cost == 3
    assert result.report.cover_cost == extract_cover(result.labeling, forest, "reg").total_cost()
    replay = sel.select_many([clone_forest(forest)], start="reg")
    assert replay.report.tape_cache_hits == 1
    assert replay.report.cover_cost == 3


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
        sel = _tape_selector(make_grammar())
        result = sel.select_many(forests, context=EmitContext())
        tapes = list(sel._tape_cache._tapes.values())
        assert len(tapes) == len(forests)
        for tape, forest in zip(tapes, forests):
            assert tape.self_contained and tape.cacheable
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
    assert result.report.cover_ns == 0
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
