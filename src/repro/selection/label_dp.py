"""Baseline dynamic-programming labeler (lburg/iburg style).

Labels every node of a forest bottom-up with a full cost vector: for
each nonterminal, the minimum cost of deriving the node's subtree from
that nonterminal, and the rule achieving it.  Pattern matching handles
arbitrary (multi-node) patterns directly, so the grammar does not need
to be in normal form; chain rules are closed per node with
:func:`~repro.grammar.closure.chain_closure`.

Dynamic programming is the flexibility baseline of the paper: it
supports fully general dynamic costs and constraints, at the price of
paying the full rule-check and chain-closure work on *every* node of
*every* forest.  The on-demand automaton
(:mod:`repro.selection.automaton`) pays that work only once per distinct
transition and amortizes it across repeated forest shapes.
"""

from __future__ import annotations

import time
from typing import Iterable

from repro.grammar.closure import chain_closure
from repro.grammar.costs import INFINITE
from repro.grammar.grammar import Grammar
from repro.grammar.pattern import Pattern
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.ir.traversal import ready_postorder
from repro.metrics.counters import LabelMetrics
from repro.selection.cover import Labeling
from repro.selection.resilience import DEADLINE_CHECK_EVERY, check_deadline

__all__ = ["DPLabeling", "DPLabeler", "label_dp", "match_pattern"]

_EMPTY: dict = {}

#: Sink for counters when the caller opted out of metrics (written,
#: never read); the dynamic chain-cost closure needs *some* metrics object.
_NULL_METRICS = LabelMetrics()


def match_pattern(pattern: Pattern, node: Node) -> list[tuple[str, Node]] | None:
    """Match *pattern* structurally at *node*.

    Returns the ``(nonterminal, node)`` bindings of the pattern's
    nonterminal leaves in left-to-right order, or ``None`` when the
    pattern does not match (operator mismatch or arity mismatch — a
    non-match, not an error: other rules may still apply).
    """
    if pattern.is_nonterminal:
        return [(pattern.symbol, node)]
    if pattern.symbol != node.op.name or len(pattern.kids) != len(node.kids):
        return None
    bindings: list[tuple[str, Node]] = []
    for kid_pattern, kid_node in zip(pattern.kids, node.kids):
        kid_bindings = match_pattern(kid_pattern, kid_node)
        if kid_bindings is None:
            return None
        bindings.extend(kid_bindings)
    return bindings


class DPLabeling(Labeling):
    """Per-node cost vectors computed by dynamic programming.

    Costs returned by :meth:`cost_of` are *absolute* subtree-derivation
    costs (unlike the delta costs of automaton states).
    """

    def __init__(self, grammar: Grammar) -> None:
        super().__init__(grammar)
        self._costs: dict[Node, dict[str, int]] = {}
        self._rules: dict[Node, dict[str, Rule]] = {}

    @property
    def nodes_labeled(self) -> int:
        """Distinct nodes this labeling holds a cost vector for."""
        return len(self._costs)

    def rule_for(self, node: Node, nonterminal: str) -> Rule | None:
        return self._rules.get(node, _EMPTY).get(nonterminal)

    def cost_of(self, node: Node, nonterminal: str) -> int:
        return self._costs.get(node, _EMPTY).get(nonterminal, INFINITE)


class DPLabeler:
    """Reusable facade mirroring :class:`OnDemandAutomaton`'s ``label`` API.

    Dynamic programming keeps no state between forests, so this is a
    thin wrapper; it exists so benchmarks can iterate over labelers with
    a uniform interface — including the batched :meth:`label_many`.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar

    def label(
        self,
        forest: Forest,
        metrics: LabelMetrics | None = None,
        *,
        deadline_at_ns: int | None = None,
    ) -> DPLabeling:
        """Label one forest: a one-forest :meth:`label_many`."""
        return self.label_many([forest], metrics, deadline_at_ns=deadline_at_ns)

    def label_many(
        self,
        forests: Iterable[Forest],
        metrics: LabelMetrics | None = None,
        *,
        deadline_at_ns: int | None = None,
    ) -> DPLabeling:
        """Label a batch of forests into one shared :class:`DPLabeling`.

        Mirrors :meth:`OnDemandAutomaton.label_many`: the labeling
        object, chain-rule scan, and metrics wiring are paid once per
        batch, and the per-node cost map doubles as the walk's visited
        set — a node shared between forests is labeled exactly once.
        The returned labeling answers queries for every forest in the
        batch.
        """
        labeling = DPLabeling(self.grammar)
        roots = [root for forest in forests for root in forest.roots]
        _label_roots(self.grammar, labeling, roots, metrics, deadline_at_ns)
        return labeling


def label_dp(
    grammar: Grammar, forest: Forest, metrics: LabelMetrics | None = None
) -> DPLabeling:
    """Label *forest* bottom-up with full cost vectors.

    A one-shot :class:`DPLabeler`; prefer a reused labeler — or a
    long-lived :class:`~repro.selection.selector.Selector` — when
    labeling many forests.

    Metrics are opt-in: with ``metrics=None`` the per-node loops skip
    all counter increments (the automaton's unmetered walk increments
    none on its warm path either, so raw-speed benchmarks compare like
    with like).
    """
    return DPLabeler(grammar).label(forest, metrics)


def _label_roots(
    grammar: Grammar,
    labeling: DPLabeling,
    roots: list[Node],
    metrics: LabelMetrics | None,
    deadline_at_ns: int | None = None,
) -> None:
    """One fused, timed walk labeling every node reachable from *roots*.

    The walk is single-pass, exactly like the automaton labeler's: the
    labeling's own cost map is the visited set, so no topological order
    list is built and a node is processed the moment its last child is
    labeled.  Both labelers time the same fused traversal+labeling
    loop into the caller's *metrics*, so their ``seconds`` counters
    stay comparable.
    """
    dynamic_chains = any(rule.is_dynamic for rule in grammar.chain_rules())
    ticks = 0
    started = time.perf_counter()
    for node in ready_postorder(roots, labeling._costs):
        if deadline_at_ns is not None:
            ticks += 1
            if ticks >= DEADLINE_CHECK_EVERY:
                ticks = 0
                check_deadline(deadline_at_ns, "label")
        _label_node(grammar, labeling, node, dynamic_chains, metrics)
    if metrics is not None:
        metrics.seconds += time.perf_counter() - started


def _label_node(
    grammar: Grammar,
    labeling: DPLabeling,
    node: Node,
    dynamic_chains: bool,
    metrics: LabelMetrics | None,
) -> None:
    costs: dict[str, int] = {}
    rules: dict[str, Rule] = {}

    for rule in grammar.rules_for_op(node.op.name):
        if metrics is not None:
            metrics.rule_checks += 1
        bindings = match_pattern(rule.pattern, node)
        if bindings is None:
            continue
        total = 0
        for nonterminal, leaf in bindings:
            total += labeling.cost_of(leaf, nonterminal)
            if total >= INFINITE:
                break
        else:
            # A dynamic callable runs only once every binding is
            # derivable — the automaton's candidate rule.  On a
            # normalized grammar a finite helper binding proves the rest
            # of the original multi-node pattern matches, so the
            # callable may read any node that pattern names.
            if rule.is_dynamic:
                if metrics is not None:
                    metrics.dynamic_evals += 1
                total += rule.cost_at(node)
            else:
                total += rule.cost
        if total < costs.get(rule.lhs, INFINITE):
            costs[rule.lhs] = total
            rules[rule.lhs] = rule

    # Chain closure with node-evaluated dynamic costs, each dynamic rule
    # evaluated at most once per node.  Fully static chain rules take
    # the allocation-free default path.
    if dynamic_chains:
        dyn_cache: dict[int, int] = {}
        run = metrics if metrics is not None else _NULL_METRICS

        def chain_cost(rule: Rule) -> int:
            if not rule.is_dynamic:
                return rule.cost
            cached = dyn_cache.get(rule.number)
            if cached is None:
                run.dynamic_evals += 1
                cached = rule.cost_at(node)
                dyn_cache[rule.number] = cached
            return cached

    else:
        chain_cost = None

    checks = chain_closure(grammar, costs, rules, chain_cost)
    if metrics is not None:
        metrics.chain_checks += checks
        metrics.nodes_labeled += 1
    labeling._costs[node] = costs
    labeling._rules[node] = rules
