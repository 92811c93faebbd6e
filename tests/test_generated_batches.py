"""Generated-input differential test: ``select_many`` against DP + the
frame :class:`Reducer`.

Hypothesis draws trees and DAGs over three grammars — the emitting
bench grammar, the constrained bench grammar and a grammar whose
multi-node constrained pattern normalizes to helper nonterminals —
with subtrees shared within and across forests, a root shared by two
forests, a forest repeated in its batch, and a forest beside its
unpickled or ``clone_forest`` copy: new node objects (the unpickled one
keeping the nids), so two forests on every engine, since node identity
is the object.  The default selector
(on-demand automaton, tape emitter) must produce byte-identical values
and emitted code to DP labeling emitted by the frame ``Reducer``, the
same cover cost, and the same counters as the frame ``Reducer`` over
its own labeling.  Hypothesis shrinks a failure to a small batch.
"""

from __future__ import annotations

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bench.workloads import EmitContext, clone_forest, dynamic_bench_grammar, emit_bench_grammar  # noqa: E402
from repro.ir import Forest, NodeBuilder  # noqa: E402
from repro.selection import DPLabeler, Reducer, Selector  # noqa: E402
from test_labelers import _helper_dynamic_grammar  # noqa: E402

#: Constant payloads around the grammars' constraint boundaries: 4-bit
#: immediates, powers of two, and the helper grammar's shift costs.
_CONSTANTS = (0, 1, 2, 3, 4, 7, 8, 15, 16, 20, 64, 255)


class _Recorder(list):
    """Emit context of the helper grammar: each action appends what it
    returns."""


def _recording_action(rule):
    number = rule.number

    def action(context, node, operands):
        value = (number, node.op.name, node.value, tuple(operands))
        context.append(value)
        return value

    return action


def _recording_helper_grammar():
    """The helper grammar with an action on every operator rule with
    operands; leaves and chain rules pass their operands through."""
    grammar = _helper_dynamic_grammar()
    for rule in grammar.rules:
        if rule.pattern.kids:
            rule.action = _recording_action(rule)
    return grammar


def _emitted(context) -> list:
    if isinstance(context, EmitContext):
        return [context.instructions, context.trace]
    return list(context)


#: ``name -> (grammar factory, unary ops, binary ops, context factory)``.
FAMILIES = {
    "emit_bench": (
        emit_bench_grammar,
        ("NEG", "NOT", "LOAD"),
        ("ADD", "SUB", "MUL", "AND", "OR", "XOR"),
        EmitContext,
    ),
    "dynamic_bench": (
        dynamic_bench_grammar,
        ("NEG", "NOT", "LOAD"),
        ("ADD", "SUB", "MUL", "AND", "OR", "XOR"),
        EmitContext,
    ),
    "helper_dynamic": (_recording_helper_grammar, ("LOAD",), ("ADD", "MUL"), _Recorder),
}


@st.composite
def _batches(draw, unary: tuple[str, ...], binary: tuple[str, ...]) -> list[Forest]:
    """A batch of 1–3 forests of 1–3 statements each: half of them trees.
    In the other half a value is reused from the ones built so far with
    probability 1/5 (a shared subtree), a root is taken from an earlier
    forest with probability 1/6, and the batch repeats one of its
    forests with probability 1/5.  In either half the batch then gains
    an unpickled or a ``clone_forest`` copy of one of its forests with
    probability 1/4 (a copy shares no node, so a tree stays a tree)."""
    b = NodeBuilder()
    built = []
    share = draw(st.booleans())

    def value(depth: int):
        if share and built and draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(built))
        kind = draw(st.integers(0, 2)) if depth > 0 else 0
        if kind == 0:
            if draw(st.booleans()):
                node = b.cnst(draw(st.sampled_from(_CONSTANTS)))
            else:
                node = b.reg(draw(st.integers(0, 7)))
        elif kind == 1:
            node = b.node(draw(st.sampled_from(unary)), value(depth - 1))
        else:
            node = b.node(draw(st.sampled_from(binary)), value(depth - 1), value(depth - 1))
        built.append(node)
        return node

    forests: list[Forest] = []
    for index in range(draw(st.integers(1, 3))):
        forest = Forest(name=f"f{index}")
        for _ in range(draw(st.integers(1, 3))):
            earlier = [root for other in forests for root in other.roots]
            if share and earlier and draw(st.integers(0, 5)) == 0:
                forest.add(draw(st.sampled_from(earlier)))
            elif draw(st.booleans()):
                forest.add(b.store(value(1), value(3)))
            else:
                forest.add(b.expr(value(3)))
        forests.append(forest)
    if share and draw(st.integers(0, 4)) == 0:
        forests.append(draw(st.sampled_from(forests)))
    if draw(st.integers(0, 3)) == 0:
        original = draw(st.sampled_from(forests))
        if draw(st.booleans()):
            forests.append(pickle.loads(pickle.dumps(original)))
        else:
            forests.append(clone_forest(original))
    return forests


def _frame_run(labeling, batch, context):
    """Emit *batch* forest by forest through one frame ``Reducer``, as
    ``select_many`` does: values, summed cover cost, counters."""
    reducer = Reducer(labeling, context)
    start = reducer.resolve_start(None)
    values, cost = [], 0
    for forest in batch:
        values.append(reducer.reduce_forest(forest, start))
        cost += reducer.last_cover_cost
    return values, cost, reducer.reductions, reducer.memo_hits


def _check_generated_batch(family, data):
    make_grammar, unary, binary, make_context = FAMILIES[family]
    batch = data.draw(_batches(unary, binary))

    context = make_context()
    result = Selector(make_grammar()).select_many(batch, context=context)
    assert result.ok
    report = result.report

    oracle_context = make_context()
    values, cost, _, _ = _frame_run(DPLabeler(make_grammar()).label_many(batch), batch, oracle_context)
    assert pickle.dumps(result.values) == pickle.dumps(values)
    assert pickle.dumps(_emitted(context)) == pickle.dumps(_emitted(oracle_context))
    assert report.cover_cost == cost

    # The counters follow the automaton's (normalized) grammar, so the
    # frame Reducer checks them over the tape's own labeling.
    frame = _frame_run(result.labeling, batch, make_context())
    assert pickle.dumps(frame[0]) == pickle.dumps(values)
    assert frame[1:] == (cost, report.reductions, report.memo_hits)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_select_many_matches_dp_and_the_frame_reducer(family, request):
    """One derandomized example stream per family by default;
    ``--hypothesis-seed=N`` draws the stream seed *N* picks instead."""
    seeded = request.config.getoption("hypothesis_seed", None) is not None

    @settings(
        max_examples=60,
        deadline=None,
        database=None,
        derandomize=not seeded,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def check(data):
        _check_generated_batch(family, data)

    check()
