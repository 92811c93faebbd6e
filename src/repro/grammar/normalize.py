"""Conversion of tree grammars to normal form.

A grammar is in normal form when every rule is either a chain rule
``nt : other_nt`` or a base rule ``nt : Op(nt, ..., nt)``.  Rules whose
patterns span several operator nodes are split by introducing helper
nonterminals, exactly as described in the tree-parsing literature: the
helper rules get cost 0 and no emit action, and the rule's cost, action
and dynamic cost / constraint stay on the *top* rule (the one matching
the pattern root), where the information they need is available.
Normal-form rules and top rules are copied with
:meth:`~repro.grammar.grammar.Grammar.add_copy`, so they keep every
field of the user's rule (``is_helper`` included: normalizing an
already-normalized grammar keeps its helpers splicing); helper rules are
new rules and are added with ``add_rule``.

Normalisation preserves minimum cover costs: any derivation using the
original multi-node rule corresponds one-to-one to a derivation using
the top rule plus its helpers (same total cost), and helper
nonterminals cannot be derived in any other way.
"""

from __future__ import annotations

from repro.grammar.grammar import Grammar
from repro.grammar.pattern import Pattern, nt_pattern, op_pattern

__all__ = ["normalize"]


def normalize(grammar: Grammar, name: str | None = None) -> Grammar:
    """Return a normal-form version of *grammar*.

    Rules already in normal form are copied as-is (keeping their
    relative order); multi-node rules are split.  The result's rules
    reference the original rules through :attr:`Rule.source`, so
    reducers and reports can always recover the user-written rule.
    """
    normalized = Grammar(
        name or f"{grammar.name}-nf",
        operators=grammar.operators,
        start=grammar.start,
    )
    # Keep the original nonterminal ordering stable (helps debugging and
    # keeps state dumps comparable between the original and the
    # normalized grammar).
    for nt in grammar.nonterminals:
        normalized.declare_nonterminal(nt)

    helper_counter = 0

    for rule in grammar.rules:
        if rule.is_normal_form:
            normalized.add_copy(rule)
            continue

        # Multi-node rule: flatten nested operator subtrees bottom-up.
        def flatten(pattern: Pattern) -> Pattern:
            """Replace *pattern* (an operator subtree) by a helper nonterminal."""
            nonlocal helper_counter
            helper_counter += 1
            helper_nt = f"__h{helper_counter}.{rule.number}"
            flattened_kids = tuple(
                kid if kid.is_nonterminal else flatten(kid) for kid in pattern.kids
            )
            helper_pattern = op_pattern(pattern.symbol, *flattened_kids)
            normalized.add_rule(
                helper_nt,
                helper_pattern,
                0,
                name=f"{rule.name or rule.lhs}.helper",
                is_helper=True,
                source=rule,
                line=rule.line,
                column=rule.column,
            )
            return nt_pattern(helper_nt)

        top_kids = tuple(
            kid if kid.is_nonterminal else flatten(kid) for kid in rule.pattern.kids
        )
        normalized.add_copy(rule, pattern=Pattern("op", rule.pattern.symbol, top_kids))

    return normalized
