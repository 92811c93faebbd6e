"""Completeness certification for tree-parsing automata.

A grammar is *complete* (total) when every forest built from the
operators it covers labels to states from which the start nonterminal
is derivable — i.e. instruction selection can never fail with a "no
cover" error.  On-demand automata defer table construction to runtime,
so an incomplete grammar only fails when a user's forest hits the bad
(operator, child-state) combination; this verifier finds such holes
*offline* by driving the eager fixed point
(:meth:`~repro.selection.automaton.OnDemandAutomaton.build_eager`) and
checking every reachable combination, and emits a **minimal
counterexample tree** when the grammar is incomplete.

Soundness notes:

* Dynamic-cost and constrained rules can only *add* derivations (a
  failed constraint removes one rule, but the verifier certifies the
  static core obtained via ``without_dynamic_rules()``, which has no
  such rules to lose).  Completeness of the static core therefore
  implies completeness of the full grammar; the report records how many
  dynamic rules were set aside under ``dynamic_rules_assumed``.
* After ``build_eager``, the pool holds exactly the reachable states
  (children of distinct subtrees are independent).  The verifier then
  restricts attention to **value-reachable** states — the fixed point
  of transitions over value (non-statement) operators from the leaf
  states up — because forest operands can only be value trees; states
  produced by statement operators never appear as children.
* Error states (no derivations) are kept in the value-reachable set and
  propagate upward, so a value subtree that breaks labeling is found
  through whichever statement combination it reaches.

Completeness is certified **relative to the covered operator set**: the
operators for which the grammar has at least one rule.  Forests using
other operators of the dialect fail trivially and are reported by the
``GRM009`` lint instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.grammar.costs import is_finite
from repro.grammar.grammar import Grammar
from repro.ir.node import Node
from repro.selection.automaton import OnDemandAutomaton

__all__ = ["CompletenessReport", "render_tree", "verify_completeness"]

#: Witness entry: (tree size, operator name, child state indices).
_Witness = tuple[int, str, tuple[int, ...]]


@dataclass
class CompletenessReport:
    """Outcome of :func:`verify_completeness`."""

    grammar: str
    start: str | None
    #: True when every reachable combination derives the start nonterminal.
    complete: bool = False
    #: Human-readable explanation when not complete (or not analyzable).
    reason: str = ""
    #: Reachable state count after the eager fixed point.
    states: int = 0
    #: Value-reachable states (the child universe actually checked).
    value_states: int = 0
    #: (statement operator, child combination) pairs checked.
    transitions_checked: int = 0
    #: Dynamic rules set aside (their applicability only adds derivations).
    dynamic_rules_assumed: int = 0
    #: True when the max_states cap stopped the eager build (not analyzable).
    capped: bool = False
    #: Minimal failing statement tree, or None when complete/not analyzable.
    counterexample: Node | None = None
    #: Root operator of the counterexample.
    counterexample_operator: str = ""

    @property
    def certified(self) -> bool:
        """True only for a full, uncapped proof of completeness."""
        return self.complete and not self.capped

    def describe(self) -> str:
        head = f"grammar {self.grammar!r} (start {self.start!r}): "
        if self.certified:
            return head + (
                f"COMPLETE — {self.transitions_checked} statement combination(s) over "
                f"{self.value_states} value state(s) all derive {self.start!r}"
                + (
                    f" ({self.dynamic_rules_assumed} dynamic rule(s) assumed additive)"
                    if self.dynamic_rules_assumed
                    else ""
                )
            )
        lines = [head + f"INCOMPLETE — {self.reason}"]
        if self.counterexample is not None:
            lines.append(f"counterexample: {render_tree(self.counterexample)}")
        return "\n".join(lines)


def render_tree(node: Node) -> str:
    """Compact one-line rendering of a counterexample tree."""
    if node.kids:
        inner = ", ".join(render_tree(kid) for kid in node.kids)
        return f"{node.op.name}({inner})"
    return node.op.name


def verify_completeness(grammar: Grammar, max_states: int | None = None) -> CompletenessReport:
    """Prove *grammar* complete over its covered operators, or refute it.

    Args:
        grammar: The grammar to certify (dynamic rules are set aside —
            the static core is what gets verified; see module docs).
        max_states: Safety cap forwarded to ``build_eager``; when the
            cap fires the report is inconclusive (``capped=True``,
            ``complete=False``).

    Returns:
        A :class:`CompletenessReport`; ``report.certified`` is the bit
        stamped into AOT artifacts.
    """
    report = CompletenessReport(grammar=grammar.name, start=grammar.start)
    if grammar.start is None:
        report.reason = "grammar has no start nonterminal"
        return report
    if grammar.start not in {rule.lhs for rule in grammar.rules}:
        report.reason = f"start nonterminal {grammar.start!r} is never derived"
        return report

    static = grammar
    if grammar.has_dynamic_rules:
        static = grammar.without_dynamic_rules()
        static.start = grammar.start
        report.dynamic_rules_assumed = len(grammar.rules) - len(static.rules)

    automaton = OnDemandAutomaton(static)
    stats = automaton.build_eager(max_states)
    report.states = len(automaton.pool)
    if stats["capped"]:
        report.capped = True
        report.reason = (
            f"eager construction capped at {max_states} states; completeness is undecided"
        )
        return report
    # The static core has no dynamic rules, so nothing can be skipped.
    assert not stats["skipped"], "static core unexpectedly skipped operators"

    operators = automaton.grammar.operators
    tables = automaton._tables
    value_ops = {name: t for name, t in tables.items() if not operators[name].is_statement}
    stmt_ops = {name: t for name, t in tables.items() if operators[name].is_statement}
    if not stmt_ops:
        report.reason = "no rule covers any statement operator; no forest root can be labeled"
        return report

    # -- value-reachable states and minimal witness trees ---------------
    # Bellman-Ford-style relaxation over value-operator transitions:
    # witness[dest] = minimal tree size reaching dest, with the edge
    # (operator, child states) achieving it.
    witness: dict[int, _Witness] = {}
    changed = True
    while changed:
        changed = False
        for name, table in value_ops.items():
            for arity in table.rules_by_arity:
                for kid_idxs, dest in _table_edges(table, arity):
                    if any(idx not in witness for idx in kid_idxs):
                        continue
                    size = 1 + sum(witness[idx][0] for idx in kid_idxs)
                    best = witness.get(dest)
                    if best is None or size < best[0]:
                        witness[dest] = (size, name, kid_idxs)
                        changed = True
    value_reachable = sorted(witness)
    report.value_states = len(value_reachable)

    # -- check every statement combination over value children ----------
    start = automaton.grammar.start or grammar.start
    failures: list[tuple[int, str, tuple[int, ...]]] = []
    for name, table in sorted(stmt_ops.items()):
        for arity in table.rules_by_arity:
            for kid_idxs in itertools.product(value_reachable, repeat=arity):
                dest = _lookup(table, arity, kid_idxs)
                report.transitions_checked += 1
                if dest is None or not is_finite(dest.cost_of(start)):
                    size = 1 + sum(witness[idx][0] for idx in kid_idxs)
                    failures.append((size, name, kid_idxs))

    if not failures:
        report.complete = True
        return report

    size, op_name, kid_idxs = min(failures)
    report.counterexample_operator = op_name
    report.counterexample = _build_tree(operators, op_name, kid_idxs, witness)
    kids = ", ".join(
        f"state {idx} ({render_tree(_build_tree_for_state(operators, idx, witness))})"
        for idx in kid_idxs
    )
    report.reason = (
        f"statement operator {op_name} over [{kids}] labels to a state that does not "
        f"derive start {start!r}"
        if kid_idxs
        else f"statement operator {op_name} labels to a state that does not derive "
        f"start {start!r}"
    )
    return report


def _table_edges(table, arity):
    """Yield ``(child index tuple, destination index)`` for one arity."""
    if arity == 0:
        if table.nullary is not None:
            yield (), table.nullary.index
    elif arity == 1:
        for idx, dest in table.unary.items():
            yield (idx,), dest.index
    elif arity == 2:
        for idx0, row in table.binary.items():
            for idx1, dest in row.items():
                yield (idx0, idx1), dest.index
    else:
        for key, dest in table.nary.items():
            yield key, dest.index


def _lookup(table, arity, kid_idxs):
    """Transition lookup mirroring the automaton's arity specialization."""
    if arity == 0:
        return table.nullary
    if arity == 1:
        return table.unary.get(kid_idxs[0])
    if arity == 2:
        row = table.binary.get(kid_idxs[0])
        return None if row is None else row.get(kid_idxs[1])
    return table.nary.get(kid_idxs)


def _build_tree_for_state(operators, index: int, witness: dict[int, _Witness]) -> Node:
    """Reconstruct the minimal value tree whose labeling is state *index*."""
    entry = witness.get(index)
    if entry is None:
        raise AnalysisError(f"no witness tree recorded for state {index}")
    _, op_name, kid_idxs = entry
    return _build_tree(operators, op_name, kid_idxs, witness)


def _build_tree(operators, op_name: str, kid_idxs, witness: dict[int, _Witness]) -> Node:
    """Build the tree rooted at *op_name* over the witness children."""
    op = operators[op_name]
    kids = [_build_tree_for_state(operators, idx, witness) for idx in kid_idxs]
    value = 0 if op.has_payload else None
    return Node(op, kids, value=value)
