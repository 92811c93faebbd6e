"""Seeded workload generators for the selection benchmarks.

Labeling families, mirroring the paper's motivating scenarios:

* **random tree forests** — independent statement trees, the generic
  compile-a-function workload;
* **DAG-heavy forests** — statements sharing common subexpressions
  (post-CSE basic blocks), stressing the labelers' sharing awareness;
* **recurring-shape streams** — a small set of template forests cloned
  over and over with fresh nodes, the JIT workload whose repetition the
  on-demand automaton amortizes into pure table lookups;
* **dynamic-constraint forests** — trees biased toward
  immediate-operand shapes, labeled under a grammar whose constrained
  rules (small immediates, power-of-two multiplies) split transitions
  by signature — the restricted-dynamic-cost scenario.

Pipeline (label→reduce→emit) families, over the emit-action variant of
the benchmark grammar (:func:`emit_bench_grammar` / :class:`EmitContext`):

* **reduce-heavy forests** — trees biased toward chain-rule ladders,
  templated rules, and the multi-node add-to-memory shape, so the
  reduction/emission phase dominates the pipeline;
* **shared-reduction forests** — statements drawing most operands from
  a pool of shared subtrees, so the reducer's (node, nonterminal) memo
  pays off (each shared subtree is reduced — and emitted — once).

A separate **grammar-size sweep** builds synthetic grammars of growing
operator/nonterminal counts (:func:`synthetic_grammar`) to chart how
on-demand table population compares with eager (offline) construction
as the grammar grows.

All generators are driven by :class:`random.Random` seeded explicitly,
so workloads are reproducible across runs and machines; the equivalence
test sweep reuses them with many seeds.
"""

from __future__ import annotations

import random

from repro.grammar import Grammar, parse_grammar
from repro.ir import Forest, Node, NodeBuilder
from repro.ir.node import fresh_nid
from repro.ir.ops import OperatorSet
from repro.ir.traversal import topological_order

__all__ = [
    "BENCH_GRAMMAR_TEXT",
    "DYNAMIC_BENCH_RULES",
    "EmitContext",
    "bench_grammar",
    "clone_forest",
    "dag_heavy_forest",
    "dag_heavy_forests",
    "dynamic_bench_grammar",
    "dynamic_constraint_forests",
    "emit_bench_grammar",
    "random_forests",
    "random_tree_forest",
    "recurring_shape_stream",
    "reduce_heavy_forests",
    "shared_reduction_forests",
    "synthetic_forests",
    "synthetic_grammar",
]

#: Machine description used by the benchmarks: a demo-scale burg-style
#: grammar with chain rules, a multi-node add-to-memory rule, immediate
#: addressing, and one rule per generated operator.
BENCH_GRAMMAR_TEXT = """
%grammar bench
%start stmt

stmt: EXPR(reg)                          (0)
stmt: STORE(addr, reg)                   (1) "st %1, (%0)"
stmt: STORE(addr, ADD(LOAD(addr), reg))  (2) "add %1, (%0)"
addr: reg                                (0)
addr: ADD(reg, con)                      (0) "index"
reg:  REG                                (0)
reg:  LOAD(addr)                         (3)
reg:  ADD(reg, reg)                      (1)
reg:  ADD(reg, con)                      (1) "addi"
reg:  SUB(reg, reg)                      (1)
reg:  MUL(reg, reg)                      (2)
reg:  AND(reg, reg)                      (1)
reg:  OR(reg, reg)                       (1)
reg:  XOR(reg, reg)                      (1)
reg:  NEG(reg)                           (1)
reg:  NOT(reg)                           (1)
reg:  con                                (1) "li"
con:  CNST                               (0)
reg:  MUL(reg, con)                      (4) "muli"
addr: LOAD(addr)                         (4)
"""


def bench_grammar() -> Grammar:
    """A fresh instance of the benchmark machine description."""
    return parse_grammar(BENCH_GRAMMAR_TEXT)


#: Constrained rules appended to the benchmark grammar by
#: :func:`dynamic_bench_grammar`.  All three are *constraints* (fixed
#: cost, node predicate), so each has exactly two signature outcomes and
#: the offline automaton can enumerate them — the paper's restricted
#: dynamic costs.
DYNAMIC_BENCH_RULES = """
reg:  ADD(reg, con)     (0) "addi4" @constraint(imm4)
reg:  MUL(reg, con)     (1) "shl"   @constraint(pow2)
stmt: STORE(addr, con)  (0) "sti"   @constraint(imm4)
"""


def _imm4(node: Node) -> bool:
    """Constraint: the second operand is a 4-bit constant."""
    kid = node.kids[1]
    return kid.op.name == "CNST" and kid.value is not None and 0 <= kid.value < 16


def _pow2(node: Node) -> bool:
    """Constraint: the second operand is a power-of-two constant."""
    kid = node.kids[1]
    value = kid.value
    return (
        kid.op.name == "CNST"
        and isinstance(value, int)
        and value > 0
        and value & (value - 1) == 0
    )


def dynamic_bench_grammar() -> Grammar:
    """The benchmark grammar extended with constrained (dynamic) rules.

    Shares every static rule with :func:`bench_grammar`, so differences
    between the two benchmark families isolate the cost of the dynamic
    signature machinery.
    """
    text = BENCH_GRAMMAR_TEXT.replace("%grammar bench", "%grammar bench_dyn", 1)
    return parse_grammar(text + DYNAMIC_BENCH_RULES, bindings={"imm4": _imm4, "pow2": _pow2})


_BINARY_OPS = ("ADD", "SUB", "MUL", "AND", "OR", "XOR")
_UNARY_OPS = ("NEG", "NOT")


def _random_value(rng: random.Random, builder: NodeBuilder, depth: int) -> Node:
    """A random value-producing expression of height ≤ *depth* + 1."""
    if depth <= 0 or rng.random() < 0.15:
        if rng.random() < 0.4:
            return builder.cnst(rng.randrange(256))
        return builder.reg(rng.randrange(16))
    roll = rng.random()
    if roll < 0.15:
        return builder.node(rng.choice(_UNARY_OPS), _random_value(rng, builder, depth - 1))
    if roll < 0.25:
        return builder.load(_random_value(rng, builder, depth - 1))
    return builder.node(
        rng.choice(_BINARY_OPS),
        _random_value(rng, builder, depth - 1),
        _random_value(rng, builder, depth - 1),
    )


def _random_statement(rng: random.Random, builder: NodeBuilder, depth: int) -> Node:
    value = _random_value(rng, builder, depth)
    if rng.random() < 0.35:
        address = _random_value(rng, builder, max(1, depth - 2))
        return builder.store(address, value)
    return builder.expr(value)


def random_tree_forest(
    rng: random.Random, statements: int = 10, max_depth: int = 6, name: str = "random"
) -> Forest:
    """One forest of independent random statement trees."""
    builder = NodeBuilder()
    return Forest(
        [_random_statement(rng, builder, max_depth) for _ in range(statements)], name=name
    )


def random_forests(
    seed: int, forests: int = 8, statements: int = 10, max_depth: int = 6
) -> list[Forest]:
    """A reproducible batch of random tree forests."""
    rng = random.Random(seed)
    return [
        random_tree_forest(rng, statements, max_depth, name=f"random-{i}")
        for i in range(forests)
    ]


def dag_heavy_forest(
    rng: random.Random,
    statements: int = 10,
    shared: int = 6,
    max_depth: int = 4,
    name: str = "dag",
) -> Forest:
    """One forest whose statements share a pool of common subexpressions.

    A pool of *shared* random subtrees is built first; every statement
    combines pool picks (with high probability) and fresh expressions,
    so most value nodes have several parents — the post-CSE shape.
    """
    builder = NodeBuilder()
    pool = [_random_value(rng, builder, rng.randint(1, max_depth)) for _ in range(shared)]

    def operand(depth: int) -> Node:
        if rng.random() < 0.7:
            return rng.choice(pool)
        return _random_value(rng, builder, depth)

    forest = Forest(name=name)
    for _ in range(statements):
        value = builder.node(rng.choice(_BINARY_OPS), operand(max_depth), operand(max_depth))
        if rng.random() < 0.35:
            forest.add(builder.store(operand(max_depth - 1), value))
        else:
            forest.add(builder.expr(value))
    return forest


def dag_heavy_forests(
    seed: int, forests: int = 8, statements: int = 10, shared: int = 6, max_depth: int = 4
) -> list[Forest]:
    """A reproducible batch of DAG-heavy forests."""
    rng = random.Random(seed)
    return [
        dag_heavy_forest(rng, statements, shared, max_depth, name=f"dag-{i}")
        for i in range(forests)
    ]


def clone_forest(forest: Forest, name: str | None = None) -> Forest:
    """A deep copy of *forest* with fresh node objects, sharing preserved.

    This models a JIT recompiling the same code shape: the clones are
    new node objects, so labelers and emitters, which key nodes by
    object identity, cannot cheat through memoisation (they also get
    fresh nids, for provenance), but the structure — including DAG
    sharing — is identical.
    """
    cloned: dict[Node, Node] = {}
    for node in topological_order(forest.roots):
        cloned[node] = Node(node.op, [cloned[kid] for kid in node.kids], node.value, fresh_nid())
    return Forest([cloned[root] for root in forest.roots], name=name or forest.name)


def recurring_shape_stream(
    seed: int,
    shapes: int = 6,
    length: int = 32,
    statements: int = 8,
    max_depth: int = 5,
) -> list[Forest]:
    """A JIT-style stream: *length* forests drawn from *shapes* templates.

    Each emitted forest is a fresh-node clone of a randomly chosen
    template, so an on-demand automaton sees every transition after the
    first few forests and labels the rest of the stream warm.
    """
    rng = random.Random(seed)
    templates = [
        random_tree_forest(rng, statements, max_depth, name=f"shape-{i}") for i in range(shapes)
    ]
    return [
        clone_forest(rng.choice(templates), name=f"stream-{i}") for i in range(length)
    ]


# ----------------------------------------------------------------------
# Pipeline (label→reduce→emit) workload families


class EmitContext:
    """Instruction-collecting emit context for the pipeline benchmarks.

    Rule actions (and templated rules routed through
    :meth:`emit_template`) append one rendered instruction per
    application and receive a fresh virtual register as the semantic
    value.  :attr:`trace` records ``(original rule number, mnemonic,
    operands)`` per application, so differential tests can compare
    emission *order and operands* exactly across labelers, not just
    final values.
    """

    __slots__ = ("instructions", "trace", "_temps")

    def __init__(self) -> None:
        self.instructions: list[str] = []
        self.trace: list[tuple[int, str, tuple]] = []
        self._temps = 0

    def new_temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def emit(self, rule_number: int, mnemonic: str, operands: list) -> str:
        """Record one instruction; returns the result virtual register."""
        temp = self.new_temp()
        rendered = ", ".join(str(operand) for operand in operands)
        self.instructions.append(f"{mnemonic} {rendered} -> {temp}" if rendered else f"{mnemonic} -> {temp}")
        self.trace.append((rule_number, mnemonic, tuple(operands)))
        return temp

    def emit_template(self, rule, node, operands: list) -> str:
        """Reducer hook for rules carrying a template but no action."""
        original = rule.original
        return self.emit(original.number, original.template or original.lhs, operands)


def _make_emit_action(rule):
    """An emit action bound to *rule* (closing over the user-written
    rule, so normalized top rules emit identically to their originals)."""
    number = rule.number
    if rule.is_chain:
        mnemonic = f"{rule.lhs}<-{rule.pattern.symbol}"
    else:
        mnemonic = rule.pattern.symbol.lower()

    def action(ctx, node, operands):
        return ctx.emit(number, mnemonic, operands)

    return action


def emit_bench_grammar() -> Grammar:
    """The benchmark grammar with emit actions on every untemplated rule.

    Templated rules keep relying on the context's ``emit_template``
    hook, so the pipeline benchmarks exercise both emission paths of
    the reducer; rules added later (e.g. by extension tests) are not
    touched.  Shares all rule shapes with :func:`bench_grammar`, so
    pipeline-versus-labeling comparisons isolate reduction/emission.
    """
    text = BENCH_GRAMMAR_TEXT.replace("%grammar bench", "%grammar bench_emit", 1)
    grammar = parse_grammar(text)
    for rule in grammar.rules:
        if rule.template is None:
            rule.action = _make_emit_action(rule)
    return grammar


def _reduce_heavy_value(rng: random.Random, builder: NodeBuilder, depth: int) -> Node:
    """A random expression biased toward chain ladders and templated shapes.

    Constants force the ``con → reg`` chain plus the "li" template,
    ``ADD(x, CNST)`` hits the "addi"/"index" rules, and loads force
    ``addr`` chain decisions — all shapes whose reduction runs several
    rule applications (and emissions) per IR node.
    """
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return builder.cnst(rng.randrange(64))
        return builder.reg(rng.randrange(8))
    roll = rng.random()
    if roll < 0.3:
        return builder.add(_reduce_heavy_value(rng, builder, depth - 1), builder.cnst(rng.randrange(32)))
    if roll < 0.45:
        return builder.load(_reduce_heavy_value(rng, builder, depth - 1))
    if roll < 0.55:
        return builder.node(rng.choice(_UNARY_OPS), _reduce_heavy_value(rng, builder, depth - 1))
    return builder.node(
        rng.choice(_BINARY_OPS),
        _reduce_heavy_value(rng, builder, depth - 1),
        _reduce_heavy_value(rng, builder, depth - 1),
    )


def reduce_heavy_forests(
    seed: int, forests: int = 8, statements: int = 10, max_depth: int = 5
) -> list[Forest]:
    """Forests whose reduction/emission phase dominates the pipeline.

    Statements mix plain expressions, stores, and the multi-node
    add-to-memory shape ``STORE(addr, ADD(LOAD(addr), reg))`` with the
    address subtree *shared*, so helper-rule splicing and the reducer's
    DAG memo both fire.
    """
    rng = random.Random(seed)
    out: list[Forest] = []
    for i in range(forests):
        builder = NodeBuilder()
        forest = Forest(name=f"reduce-{i}")
        for _ in range(statements):
            roll = rng.random()
            if roll < 0.25:
                address = _reduce_heavy_value(rng, builder, 2)
                forest.add(
                    builder.store(
                        address,
                        builder.add(
                            builder.load(address),
                            _reduce_heavy_value(rng, builder, max_depth - 2),
                        ),
                    )
                )
            elif roll < 0.5:
                forest.add(
                    builder.store(
                        _reduce_heavy_value(rng, builder, 2),
                        _reduce_heavy_value(rng, builder, max_depth),
                    )
                )
            else:
                forest.add(builder.expr(_reduce_heavy_value(rng, builder, max_depth)))
        out.append(forest)
    return out


def _pool_operand(rng: random.Random, builder: NodeBuilder, pool: list[Node]) -> Node:
    """An operand drawn (usually) from the shared-subtree pool."""
    if rng.random() < 0.85:
        return rng.choice(pool)
    return _reduce_heavy_value(rng, builder, 2)


def shared_reduction_forests(
    seed: int, forests: int = 8, statements: int = 12, shared: int = 6, max_depth: int = 5
) -> list[Forest]:
    """DAG-sharing forests where memoized reduction pays off.

    Most operands come from a per-forest pool of shared subtrees, so
    the same (node, nonterminal) pairs are requested over and over;
    the reducer answers every repeat from its memo and each shared
    subtree is emitted exactly once.
    """
    rng = random.Random(seed)
    out: list[Forest] = []
    for i in range(forests):
        builder = NodeBuilder()
        pool = [
            _reduce_heavy_value(rng, builder, rng.randint(2, max_depth)) for _ in range(shared)
        ]
        forest = Forest(name=f"dag-reduce-{i}")
        for _ in range(statements):
            value = builder.node(
                rng.choice(_BINARY_OPS),
                _pool_operand(rng, builder, pool),
                _pool_operand(rng, builder, pool),
            )
            if rng.random() < 0.4:
                forest.add(builder.store(_pool_operand(rng, builder, pool), value))
            else:
                forest.add(builder.expr(value))
        out.append(forest)
    return out


# ----------------------------------------------------------------------
# Dynamic-constraint workload family

#: Constant pool mixing 4-bit immediates, powers of two, and values that
#: satisfy neither, so every constraint outcome (and so every dynamic
#: transition signature) actually occurs in the workload.
_DYN_CONSTANTS = (1, 2, 3, 4, 7, 8, 15, 16, 17, 32, 64, 100, 200, 255)


def _dyn_value(rng: random.Random, builder: NodeBuilder, depth: int) -> Node:
    """A random expression biased toward immediate-operand shapes."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return builder.cnst(rng.choice(_DYN_CONSTANTS))
        return builder.reg(rng.randrange(8))
    roll = rng.random()
    if roll < 0.3:
        return builder.add(_dyn_value(rng, builder, depth - 1), builder.cnst(rng.choice(_DYN_CONSTANTS)))
    if roll < 0.5:
        return builder.mul(_dyn_value(rng, builder, depth - 1), builder.cnst(rng.choice(_DYN_CONSTANTS)))
    if roll < 0.6:
        return builder.load(_dyn_value(rng, builder, depth - 1))
    return builder.node(
        rng.choice(_BINARY_OPS),
        _dyn_value(rng, builder, depth - 1),
        _dyn_value(rng, builder, depth - 1),
    )


def dynamic_constraint_forests(
    seed: int, forests: int = 8, statements: int = 10, max_depth: int = 5
) -> list[Forest]:
    """Forests for the dynamic (constraint) grammar family.

    Statements lean on ``ADD(x, CNST)`` / ``MUL(x, CNST)`` shapes and
    occasional constant stores so the constrained rules of
    :func:`dynamic_bench_grammar` fire in both outcomes.
    """
    rng = random.Random(seed)
    out: list[Forest] = []
    for i in range(forests):
        builder = NodeBuilder()
        forest = Forest(name=f"dyn-{i}")
        for _ in range(statements):
            value = _dyn_value(rng, builder, max_depth)
            roll = rng.random()
            if roll < 0.2:
                forest.add(builder.store(_dyn_value(rng, builder, 2), builder.cnst(rng.choice(_DYN_CONSTANTS))))
            elif roll < 0.45:
                forest.add(builder.store(_dyn_value(rng, builder, 2), value))
            else:
                forest.add(builder.expr(value))
        out.append(forest)
    return out


# ----------------------------------------------------------------------
# Grammar-size sweep


def synthetic_grammar(operators: int, nonterminals: int, seed: int = 0) -> Grammar:
    """A deterministic normal-form grammar of parameterized size.

    Builds its own operator dialect — one statement root ``TOP``, two
    payload leaves ``L0``/``L1``, and *operators* value operators split
    one-third unary (``U*``), two-thirds binary (``B*``) — plus
    *nonterminals* value nonterminals connected by a chain ladder.
    Every nonterminal is derivable at every leaf (directly or through
    the ladder), so states stay finite and eager construction reaches a
    fixed point; rule placement and costs are drawn from a seeded RNG,
    making each (operators, nonterminals) point reproducible.
    """
    rng = random.Random(seed * 7919 + operators * 31 + nonterminals)
    ops = OperatorSet(name=f"synth-{operators}x{nonterminals}")
    ops.define("TOP", 1, is_statement=True, doc="statement root")
    for i in range(2):
        ops.define(f"L{i}", 0, has_payload=True, doc="leaf")
    n_unary = max(1, operators // 3)
    unary = [ops.define(f"U{i}", 1) for i in range(n_unary)]
    binary = [ops.define(f"B{i}", 2) for i in range(operators - n_unary)]

    grammar = Grammar(f"synth-{operators}x{nonterminals}", operators=ops, start="top")
    nts = [f"n{i}" for i in range(nonterminals)]
    grammar.op_rule("top", "TOP", [nts[0]], 0)
    for i, nt in enumerate(nts):
        grammar.op_rule(nt, f"L{i % 2}", [], cost=i % 2)
    for i, op in enumerate(unary):
        grammar.op_rule(nts[i % nonterminals], op.name, [rng.choice(nts)], cost=rng.randint(0, 2))
    for op in binary:
        grammar.op_rule(
            rng.choice(nts), op.name, [rng.choice(nts), rng.choice(nts)], cost=rng.randint(1, 3)
        )
    # Acyclic chain ladder: n0 <- n1 <- ... keeps closure non-trivial.
    for i in range(nonterminals - 1):
        grammar.chain(nts[i], nts[i + 1], cost=1)
    return grammar


def synthetic_forests(
    operators: OperatorSet,
    seed: int,
    forests: int = 4,
    statements: int = 8,
    max_depth: int = 5,
) -> list[Forest]:
    """Random tree forests over a :func:`synthetic_grammar` dialect."""
    rng = random.Random(seed)
    leaves = [op.name for op in operators if op.arity == 0]
    unary = [op.name for op in operators if op.arity == 1 and not op.is_statement]
    binary = [op.name for op in operators if op.arity == 2]
    builder = NodeBuilder(operators)

    def value(depth: int) -> Node:
        if depth <= 0 or rng.random() < 0.2:
            return builder.leaf(rng.choice(leaves), value=rng.randrange(16))
        if unary and rng.random() < 0.25:
            return builder.node(rng.choice(unary), value(depth - 1))
        return builder.node(rng.choice(binary), value(depth - 1), value(depth - 1))

    out: list[Forest] = []
    for i in range(forests):
        forest = Forest(name=f"synth-{i}")
        for _ in range(statements):
            forest.add(builder.node("TOP", value(max_depth)))
        out.append(forest)
    return out
