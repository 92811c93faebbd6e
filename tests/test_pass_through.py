"""Pass-through edge values: the tape's inline pass-through against the
frame :class:`Reducer`, byte for byte.

The sweep runs a pass-through entry (a rule with no action, template or
helper role) of 0, 1 or 2 operands inline instead of calling
:func:`~repro.selection.reducer.pass_through`.  Hypothesis draws trees
and DAGs whose leaf actions return the values where flattening has edge
cases — ``[]``, a one-element list, a one-element list holding a list,
a two-element list, and non-list values — under pass-through rules of
every count: a payload leaf with no action (count 0), chain and unary
rules (count 1), binary and statement rules (count 2, mixed list and
non-list operands), and multi-node patterns whose normalisation helper
rules splice ``_SplicedOperands`` into a pass-through (negative count)
or an action.  One action mutates its list operands and one returns its
operand list, so a list the sweep builds where ``pass_through`` would
build a new one, or shares where it would not, shows in the pickles.
Both compile walks (the tree walk on a tree batch, the slot walk always)
must match the frame ``Reducer`` over the same labeling: values, the
action record, reductions and memo hits.
"""

from __future__ import annotations

import pickle

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.grammar import parse_grammar  # noqa: E402
from repro.ir import Forest, NodeBuilder  # noqa: E402
from repro.selection import Reducer, Selector, TapeEmitter  # noqa: E402

_TEXT = """
%grammar passthru
%start stmt
stmt: EXPR(reg)           (0)
stmt: STORE(reg, reg)     (1)
reg:  REG                 (0)
reg:  CNST                (0)
reg:  val                 (1)
val:  NEG(reg)            (0)
reg:  ADD(reg, reg)       (1)
reg:  SUB(reg, reg)       (1)
reg:  LOAD(reg)           (1)
reg:  MUL(reg, NEG(reg))  (0)
reg:  AND(reg, NOT(val))  (0)
"""


class _Record(list):
    """Emit context: every action appends ``(operator, operands)``."""

    def next_value(self) -> tuple:
        return ("v", len(self))


def _leaf(context, node, operands):
    """``REG``: the payload picks a value shape."""
    value = context.next_value()
    context.append(("REG", node.value))
    shape = node.value % 6
    if shape == 0:
        return []
    if shape == 1:
        return [value]
    if shape == 2:
        return [[value]]
    if shape == 3:
        return [value, value[1]]
    if shape == 4:
        return value
    return value[1]


def _mutate(context, node, operands):
    """``SUB``: appends to every list operand, then returns the first."""
    context.append(("SUB", pickle.dumps(operands)))
    for operand in operands:
        if isinstance(operand, list):
            operand.append("m")
    return operands[0]


def _forward(context, node, operands):
    """``LOAD``, ``AND`` and ``EXPR``: record and return the operand list."""
    context.append((node.op.name, pickle.dumps(operands)))
    return operands


def _grammar():
    grammar = parse_grammar(_TEXT)
    actions = {"REG": _leaf, "SUB": _mutate, "LOAD": _forward, "AND": _forward, "EXPR": _forward}
    for rule in grammar.rules:
        if rule.pattern.is_operator and rule.pattern.symbol in actions:
            rule.action = actions[rule.pattern.symbol]
    return grammar


@st.composite
def _batches(draw) -> list[Forest]:
    """1–3 forests of 1–3 statements; half the batches share subtrees
    within and across forests (DAGs), the other half are trees."""
    b = NodeBuilder()
    built = []
    share = draw(st.booleans())

    def value(depth: int):
        if share and built and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(built))
        kind = draw(st.integers(0, 6)) if depth > 0 else draw(st.integers(0, 1))
        if kind == 0:
            node = b.reg(draw(st.integers(0, 11)))
        elif kind == 1:
            node = b.cnst(draw(st.integers(0, 3)))
        elif kind == 2:
            node = b.neg(value(depth - 1))
        elif kind == 3:
            node = b.load(value(depth - 1))
        elif kind == 4:
            node = b.mul(value(depth - 1), b.neg(value(depth - 1)))
        elif kind == 5:
            node = b.node("AND", value(depth - 1), b.node("NOT", b.neg(value(depth - 1))))
        else:
            node = b.node(draw(st.sampled_from(("ADD", "SUB"))), value(depth - 1), value(depth - 1))
        built.append(node)
        return node

    forests = []
    for index in range(draw(st.integers(1, 3))):
        forest = Forest(name=f"f{index}")
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                forest.add(b.store(value(3), value(3)))
            else:
                forest.add(b.expr(value(3)))
        forests.append(forest)
    return forests


def _emit(engine, batch):
    values = [engine.reduce_forest(forest) for forest in batch]
    return pickle.dumps(values), pickle.dumps(engine.context), engine.reductions, engine.memo_hits


def _check(batch):
    selector = Selector(_grammar())
    labeling = selector.label_many(batch)
    expected = _emit(Reducer(labeling, _Record()), batch)
    walks = {"slot": TapeEmitter(labeling, _Record())}
    if labeling.tree:
        walks["tree"] = TapeEmitter(labeling, _Record(), once=True)
    for walk, emitter in walks.items():
        assert _emit(emitter, batch) == expected, walk

    context = _Record()
    result = selector.select_many(batch, context=context)
    assert result.ok
    assert (pickle.dumps(result.values), pickle.dumps(context)) == expected[:2]


def test_inline_pass_through_matches_the_reducer_on_each_count():
    """One hand-built forest holding every pass-through count over every
    leaf shape, on both walks."""
    b = NodeBuilder()
    shapes = range(7)  # six REG value shapes, then a CNST leaf

    def leaf(shape):
        return b.reg(shape) if shape < 6 else b.cnst(1)

    roots = []
    for left in shapes:
        for right in shapes:
            roots.append(
                b.store(
                    b.add(leaf(left), b.neg(leaf(right))),
                    b.mul(b.load(leaf(right)), b.neg(leaf(left))),
                )
            )
            roots.append(b.expr(b.sub(b.neg(leaf(left)), leaf(right))))
            roots.append(b.expr(b.node("AND", leaf(left), b.node("NOT", b.neg(leaf(right))))))
    tree = [Forest(roots, name="edges")]
    _check(tree)
    _check(tree + [Forest(roots[:5], name="shared")])


def test_inline_pass_through_matches_the_reducer_on_generated_batches(request):
    """One derandomized example stream by default;
    ``--hypothesis-seed=N`` draws the stream seed *N* picks instead."""
    seeded = request.config.getoption("hypothesis_seed", None) is not None

    @settings(
        max_examples=80,
        deadline=None,
        database=None,
        derandomize=not seeded,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(batch=_batches())
    def check(batch):
        _check(batch)

    check()
