"""Static analyses over tree grammars.

These analyses diagnose machine descriptions before they are handed to
a labeler: productivity (can each nonterminal derive a pure operator
tree?), reachability from the start nonterminal, and operator coverage
(can every operator of the IR dialect be labeled at all?).
:func:`~repro.analysis.lint_grammar` turns their results into
diagnostics.
"""

from __future__ import annotations

from repro.grammar.grammar import Grammar

__all__ = [
    "productive_nonterminals",
    "reachable_nonterminals",
    "uncovered_operators",
]


def productive_nonterminals(grammar: Grammar) -> set[str]:
    """Nonterminals that can derive at least one finite operator tree."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            if rule.lhs in productive:
                continue
            leaves = rule.pattern.nonterminal_leaves()
            if all(leaf in productive for leaf in leaves):
                productive.add(rule.lhs)
                changed = True
    return productive


def reachable_nonterminals(grammar: Grammar) -> set[str]:
    """Nonterminals reachable from the start symbol through rule patterns."""
    if grammar.start is None:
        return set()
    reachable = {grammar.start}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            if rule.lhs not in reachable:
                continue
            for leaf in rule.pattern.nonterminal_leaves():
                if leaf not in reachable:
                    reachable.add(leaf)
                    changed = True
    return reachable


def uncovered_operators(grammar: Grammar) -> list[str]:
    """IR operators for which the grammar has no rule at all.

    A grammar need not cover every operator of its dialect (front ends
    may never produce some of them), but the list is valuable when
    debugging "no cover" errors.
    """
    used = set(grammar.operators_used())
    return [op.name for op in grammar.operators if op.name not in used]
