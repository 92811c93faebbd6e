"""Shared grammars and benchmark forests for the selection tests.

The demo grammar is a small burg-style machine description exercising
chain rules, a multi-node (add-to-memory) rule, and several overlapping
``ADD`` rules; the dynamic grammar adds a constraint and an lburg-style
dynamic cost.  Forest builders return *fresh* node objects on every
call so tests can label "the same shape" repeatedly, which is exactly
the workload the on-demand automaton amortizes.
"""

from __future__ import annotations

import pytest

from repro.bench.workloads import dynamic_constraint_forests
from repro.grammar import Grammar, parse_grammar
from repro.ir import Forest, NodeBuilder

DEMO_TEXT = """
%grammar demo
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
reg:  con                                (1) "li"
reg:  NEG(reg)                           (1)
reg:  SUB(reg, reg)                      (1)
reg:  MUL(reg, reg)                      (2)
con:  CNST                               (0)
"""


def small_const(node) -> bool:
    """Constraint: the constant fits in a 4-bit immediate."""
    return node.value is not None and 0 <= node.value < 16


def mul_cost(node) -> int:
    """Dynamic cost: multiplication by a shiftable constant is cheap."""
    kid = node.kids[1]
    if kid.op.name == "CNST" and kid.value in (2, 4, 8):
        return 1
    return 3


DYNAMIC_TEXT = """
%grammar dyn
%start stmt

stmt: EXPR(reg)       (0)
reg:  REG             (0)
reg:  con             (1) "li"
reg:  CNST            (0) @constraint(small)
reg:  ADD(reg, reg)   (1)
reg:  MUL(reg, con)   (mulcost)
reg:  MUL(reg, reg)   (3)
con:  CNST            (0)
"""


@pytest.fixture
def demo_grammar() -> Grammar:
    return parse_grammar(DEMO_TEXT)


@pytest.fixture
def dynamic_grammar() -> Grammar:
    return parse_grammar(DYNAMIC_TEXT, bindings={"small": small_const, "mulcost": mul_cost})


# ----------------------------------------------------------------------
# Benchmark forest shapes (fresh nodes per call; one is a shared DAG).


def build_flat_forest() -> Forest:
    """Three independent statement trees over most demo operators."""
    b = NodeBuilder()
    forest = Forest(name="flat")
    forest.add(b.expr(b.add(b.reg(1), b.cnst(4))))
    forest.add(b.store(b.add(b.reg(2), b.cnst(8)), b.mul(b.reg(3), b.reg(4))))
    forest.add(b.expr(b.neg(b.sub(b.reg(1), b.cnst(100)))))
    return forest


def build_deep_forest() -> Forest:
    """One deep left-leaning ADD chain under a store."""
    b = NodeBuilder()
    value = b.reg(0)
    for i in range(1, 9):
        value = b.add(value, b.cnst(i))
    forest = Forest(name="deep")
    forest.add(b.store(b.add(b.reg(9), b.cnst(16)), value))
    forest.add(b.expr(b.load(b.add(b.reg(9), b.cnst(24)))))
    return forest


def build_dag_forest() -> Forest:
    """Two roots sharing one address subtree (a genuine DAG)."""
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.cnst(4))
    forest = Forest(name="dag")
    forest.add(b.expr(b.load(shared)))
    forest.add(b.store(shared, b.add(b.load(shared), b.reg(2))))
    return forest


BENCHMARK_BUILDERS = [build_flat_forest, build_deep_forest, build_dag_forest]


@pytest.fixture
def benchmark_forests() -> list[Forest]:
    return [build() for build in BENCHMARK_BUILDERS]


def build_dynamic_forest() -> Forest:
    """Shapes whose optimal rules depend on constraint/dynamic outcomes."""
    b = NodeBuilder()
    forest = Forest(name="dyn")
    forest.add(b.expr(b.add(b.cnst(3), b.cnst(200))))
    forest.add(b.expr(b.mul(b.reg(1), b.cnst(4))))
    forest.add(b.expr(b.mul(b.reg(1), b.cnst(5))))
    forest.add(b.expr(b.mul(b.add(b.reg(1), b.reg(2)), b.cnst(2))))
    return forest


def echo_batch() -> list[Forest]:
    """Dynamic-constraint forests plus a last forest re-rooting the
    first one's trees: the batch emits those trees once, so the echo's
    own walk lays out only what the first forest did not (nothing)."""
    forests = dynamic_constraint_forests(3, 4)
    echo = Forest(name="echo")
    for root in forests[0].roots:
        echo.add(root)
    return forests + [echo]
