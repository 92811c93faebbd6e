"""Chain-rule closure shared by all labelers and the automaton generators.

Given per-nonterminal costs established by base rules, the closure
repeatedly applies chain rules ``lhs : rhs (c)`` — improving
``cost[lhs]`` to ``cost[rhs] + c`` when that is cheaper — until a fixed
point is reached.  This is exactly the "checked repeatedly until there
are no changes" loop of lburg's labeler and of burg-style state
construction.
"""

from __future__ import annotations

from typing import Callable

from repro.grammar.costs import INFINITE
from repro.grammar.grammar import Grammar
from repro.grammar.rule import Rule

__all__ = ["chain_closure", "chain_cost_matrix"]


def chain_closure(
    grammar: Grammar,
    costs: dict[str, int],
    rules: dict[str, Rule],
    rule_cost: Callable[[Rule], int] | None = None,
) -> int:
    """Apply chain rules to *costs*/*rules* until a fixed point.

    Args:
        grammar: The grammar whose chain rules are applied.
        costs: Mutable map nonterminal → best cost so far; missing
            entries count as :data:`~repro.grammar.costs.INFINITE`.
        rules: Mutable map nonterminal → rule achieving that cost.
        rule_cost: Cost of a chain rule; defaults to its static cost.
            Labelers that evaluate dynamic costs pass a node-specific
            function here.

    Returns:
        The number of chain-rule checks performed (a labeling-effort
        metric: dynamic programming pays this per node, automata pay it
        per state construction).
    """
    if rule_cost is None:
        rule_cost = Rule.static_cost
    chain_rules = grammar.chain_rules()
    checks = 0
    changed = True
    while changed:
        changed = False
        for rule in chain_rules:
            checks += 1
            source_cost = costs.get(rule.pattern.symbol, INFINITE)
            if source_cost >= INFINITE:
                continue
            cost = rule_cost(rule)
            if cost >= INFINITE:
                continue
            total = source_cost + cost
            if total < costs.get(rule.lhs, INFINITE):
                costs[rule.lhs] = total
                rules[rule.lhs] = rule
                changed = True
    return checks


def chain_cost_matrix(grammar: Grammar) -> dict[str, dict[str, int]]:
    """Minimum chain-derivation cost between every pair of nonterminals.

    ``matrix[a][b]`` is the cheapest cost of deriving ``a ⇒* b`` using
    chain rules only (0 when ``a == b``, INFINITE when unreachable).
    Used by grammar analyses and by tests that validate the closure.
    """
    nts = list(grammar.nonterminals)
    matrix: dict[str, dict[str, int]] = {
        a: {b: (0 if a == b else INFINITE) for b in nts} for a in nts
    }
    for rule in grammar.chain_rules():
        if rule.cost < matrix[rule.lhs][rule.pattern.symbol]:
            matrix[rule.lhs][rule.pattern.symbol] = rule.cost
    # Floyd-Warshall over the (small) nonterminal set.
    for mid in nts:
        for a in nts:
            through = matrix[a][mid]
            if through >= INFINITE:
                continue
            row_mid = matrix[mid]
            row_a = matrix[a]
            for b in nts:
                candidate = through + row_mid[b]
                if candidate < row_a[b]:
                    row_a[b] = candidate
    return matrix
