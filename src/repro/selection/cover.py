"""Labeling results and covers.

A *labeling* is what a labeler (dynamic programming, offline automaton,
or on-demand automaton) produces for a forest: enough information to
answer, for every node and nonterminal, "which rule starts the cheapest
derivation of this subtree from this nonterminal?".  A *cover* is the
set of (node, nonterminal, rule) decisions actually used when reducing
from the start nonterminal; its total cost is the metric the optimality
tests compare across labelers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.errors import CoverError
from repro.grammar.grammar import Grammar
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node

__all__ = ["Labeling", "Cover", "CoverEntry", "extract_cover", "require_structural_match"]


def require_structural_match(pattern, node: Node) -> None:
    """Raise :class:`CoverError` unless *pattern*'s root can match *node*.

    Shared by the cover and reducer walkers to reject structurally
    impossible rules (a corrupt labeling, or operator sets disagreeing
    about a name's arity) instead of silently mis-walking the tree.
    """
    if pattern.is_operator and pattern.symbol != node.op.name:
        raise CoverError(
            f"pattern {pattern} rooted at {pattern.symbol} does not match "
            f"node {node.op.name} (nid={node.nid})"
        )
    if len(pattern.kids) != len(node.kids):
        raise CoverError(
            f"pattern {pattern} with arity {len(pattern.kids)} does not match "
            f"node {node.op.name} (nid={node.nid}) with arity {len(node.kids)}"
        )


class Labeling(ABC):
    """Abstract result of labeling a forest.

    Concrete labelings differ in what they store per node (full cost
    vectors for dynamic programming, automaton states for the automaton
    labelers) but expose the same queries to the reducer.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar

    @abstractmethod
    def rule_for(self, node: Node, nonterminal: str) -> Rule | None:
        """The rule starting the cheapest derivation of *node* from *nonterminal*."""

    @abstractmethod
    def cost_of(self, node: Node, nonterminal: str) -> int:
        """Cost of deriving *node* from *nonterminal*.

        Dynamic-programming labelings return absolute costs; automaton
        labelings return state-relative (delta) costs.  Costs are only
        comparable between nonterminals of the same node.
        """

    def require_rule(self, node: Node, nonterminal: str) -> Rule:
        """Like :meth:`rule_for` but raises :class:`CoverError` when absent."""
        rule = self.rule_for(node, nonterminal)
        if rule is None:
            raise CoverError(
                f"no derivation of node {node.op.name} (nid={node.nid}) from "
                f"nonterminal {nonterminal!r} with grammar {self.grammar.name!r}"
            )
        return rule


@dataclass(eq=False)
class CoverEntry:
    """One decision of a cover: *rule* used to derive *node* from *nonterminal*."""

    node: Node
    nonterminal: str
    rule: Rule

    @property
    def cost(self) -> int:
        return self.rule.cost_at(self.node)


@dataclass
class Cover:
    """A complete cover of a forest from the start nonterminal."""

    grammar: Grammar
    entries: list[CoverEntry] = field(default_factory=list)

    def total_cost(self) -> int:
        """Sum of the chosen rules' (node-evaluated) costs.

        Node/nonterminal combinations visited more than once through DAG
        sharing contribute once, mirroring the reducer's memoisation.
        """
        return sum(entry.cost for entry in self.entries)

    def rules_used(self) -> list[Rule]:
        return [entry.rule for entry in self.entries]

    def original_rules_used(self) -> list[Rule]:
        """The user-written rules (normalisation helpers folded away)."""
        return [entry.rule.original for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def extract_cover(labeling: Labeling, forest: Forest, start: str | None = None) -> Cover:
    """Walk *labeling* top-down from the start nonterminal and collect the cover.

    This mirrors the reducer's traversal (including DAG memoisation) but
    collects decisions instead of running emit actions, so tests can
    compare covers across labelers without involving target back ends.
    The walk is iterative, so deep trees and long chain-rule sequences
    cannot overflow the interpreter stack.
    """
    grammar = labeling.grammar
    start_nt = start or grammar.start
    if start_nt is None:
        raise CoverError("grammar has no start nonterminal")
    cover = Cover(grammar=grammar)
    entries = cover.entries
    visited: set[tuple[int, str]] = set()
    targets: list[tuple[Node, str]] = []

    for root in forest.roots:
        stack: list[tuple[Node, str]] = [(root, start_nt)]
        while stack:
            node, nonterminal = stack.pop()
            key = (id(node), nonterminal)
            if key in visited:
                continue
            visited.add(key)
            rule = labeling.require_rule(node, nonterminal)
            entries.append(CoverEntry(node=node, nonterminal=nonterminal, rule=rule))
            if rule.is_chain:
                stack.append((node, rule.pattern.symbol))
                continue
            targets.clear()
            _pattern_targets(rule.pattern, node, targets)
            stack.extend(reversed(targets))
    return cover


def _pattern_targets(pattern, node: Node, targets: list[tuple[Node, str]]) -> None:
    """Collect the (node, nonterminal) pairs below *pattern* matched at *node*.

    Recursion depth is bounded by the grammar's pattern height (small by
    construction), not by the IR tree.
    """
    require_structural_match(pattern, node)
    for kid_pattern, kid_node in zip(pattern.kids, node.kids):
        if kid_pattern.is_nonterminal:
            targets.append((kid_node, kid_pattern.symbol))
        else:
            _pattern_targets(kid_pattern, kid_node, targets)
