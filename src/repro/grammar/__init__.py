"""Tree grammars: rules, patterns, costs, normalization, analyses, parsing."""

from repro.grammar.analysis import (
    productive_nonterminals,
    reachable_nonterminals,
    uncovered_operators,
)
from repro.grammar.closure import chain_closure, chain_cost_matrix
from repro.grammar.costs import INFINITE, is_finite, normalize_costs
from repro.grammar.grammar import Grammar
from repro.grammar.normalize import normalize
from repro.grammar.parser import parse_grammar
from repro.grammar.pattern import Pattern, nt_pattern, op_pattern
from repro.grammar.rule import Rule

__all__ = [
    "Grammar",
    "INFINITE",
    "Pattern",
    "Rule",
    "chain_closure",
    "chain_cost_matrix",
    "is_finite",
    "normalize",
    "normalize_costs",
    "nt_pattern",
    "op_pattern",
    "parse_grammar",
    "productive_nonterminals",
    "reachable_nonterminals",
    "uncovered_operators",
]
