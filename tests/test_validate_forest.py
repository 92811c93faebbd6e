"""Tests for the structured forest validator (ir/validate satellite)."""

from __future__ import annotations

import pytest

from repro.bench.workloads import bench_grammar, random_forests
from repro.ir import (
    DEFAULT_OPERATORS,
    Forest,
    ForestValidationError,
    Node,
    NodeBuilder,
    OperatorSet,
    validate_forest,
)
from repro.selection import Selector
from repro.selection.selector import SelectorConfig


def _codes(issues) -> set[str]:
    return {issue.code for issue in issues}


def test_clean_forests_validate():
    for forest in random_forests(1, forests=3):
        assert validate_forest(forest, DEFAULT_OPERATORS) == []


def test_cycle_detection():
    b = NodeBuilder()
    inner = b.add(b.reg(1), b.reg(2))
    root = b.expr(inner)
    inner.kids = (inner.kids[0], inner)  # tie the knot
    issues = validate_forest(Forest([root]), collect=True)
    assert "IR001" in _codes(issues)


def test_dangling_child_and_bad_root():
    b = NodeBuilder()
    node = b.add(b.reg(1), b.reg(2))
    node.kids = (node.kids[0], "oops")
    issues = validate_forest([b.expr(node.kids[0]), "not-a-node"], collect=True)
    # The dangling root is IR002; the string kid is unreachable from the
    # valid root, so only the root issue appears here.
    assert "IR002" in _codes(issues)
    issues = validate_forest(Forest([Node(DEFAULT_OPERATORS["EXPR"], [node])]), collect=True)
    assert "IR002" in _codes(issues)


def test_unknown_operator_and_dialect_arity_conflict():
    foreign = OperatorSet(name="foreign")
    vec = foreign.define("VECADD", 2)
    b = NodeBuilder()
    root = b.expr(Node(vec, [b.reg(1), b.reg(2)]))
    issues = validate_forest(Forest([root]), DEFAULT_OPERATORS, collect=True)
    assert "IR003" in _codes(issues)

    conflicting = DEFAULT_OPERATORS.copy(name="conflicting")
    conflicting._ops["NEG"] = foreign.define("NEG", 2)
    issues = validate_forest(
        Forest([b.expr(b.neg(b.reg(1)))]), conflicting, collect=True
    )
    assert "IR005" in _codes(issues)


def test_arity_mismatch_against_own_operator():
    b = NodeBuilder()
    node = b.add(b.reg(1), b.reg(2))
    node.kids = (node.kids[0],)  # drop a child behind the constructor's back
    issues = validate_forest(Forest([b.expr(node)]), collect=True)
    assert "IR004" in _codes(issues)


def test_payload_issues():
    b = NodeBuilder()
    missing = b.cnst()  # CNST carries a payload; none given
    extra = b.add(b.reg(1), b.reg(2))
    extra.value = 7  # ADD carries no payload
    issues = validate_forest(Forest([b.expr(missing), b.expr(extra)]), collect=True)
    assert {"IR006", "IR007"} <= _codes(issues)


def test_issue_names_the_node_by_its_provenance_tag():
    b = NodeBuilder()
    reg = b.reg(1)
    reg.value = None  # REG carries a payload; clear it behind the builder
    [issue] = validate_forest(Forest([b.expr(reg)]), DEFAULT_OPERATORS, collect=True)
    assert issue.code == "IR006"
    assert issue.node == f"REG(nid={reg.nid})"
    assert issue.format().startswith(f"IR006 [REG(nid={reg.nid})]: ")


def test_statement_as_operand_and_nonstatement_root():
    b = NodeBuilder()
    stmt = b.expr(b.reg(1))
    bad_operand = Node(DEFAULT_OPERATORS["EXPR"], [b.reg(2)])
    node = b.add(b.reg(3), b.reg(3))
    node.kids = (node.kids[0], bad_operand)
    issues = validate_forest([b.expr(node), b.reg(9)], collect=True)
    codes = _codes(issues)
    assert "IR008" in codes
    assert "IR009" in codes
    del stmt


def test_collect_false_raises_with_issue_list():
    b = NodeBuilder()
    with pytest.raises(ForestValidationError) as excinfo:
        validate_forest([b.reg(1)])
    assert _codes(excinfo.value.issues) == {"IR009"}
    assert "IR009" in str(excinfo.value)


def test_selector_validate_flag():
    grammar = bench_grammar()
    strict = Selector(grammar, config=SelectorConfig(validate=True))
    b = NodeBuilder()
    good = Forest([b.expr(b.add(b.reg(1), b.cnst(2)))])
    strict.label(good)  # clean forest labels fine

    bad = Forest([b.add(b.reg(1), b.cnst(2))])  # value root: IR009
    with pytest.raises(ForestValidationError):
        strict.label(bad)
    with pytest.raises(ForestValidationError):
        strict.label_many([good, bad])

    relaxed = Selector(grammar)
    relaxed.label(bad)  # default config does not validate
