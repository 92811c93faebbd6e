"""Tree patterns: the right-hand sides of tree-grammar rules.

A pattern is a tree whose internal nodes name IR operators and whose
leaves are either leaf operators or nonterminals.  A pattern consisting
of a single nonterminal makes its rule a *chain rule*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import GrammarError

__all__ = ["Pattern", "op_pattern", "nt_pattern"]


@dataclass(frozen=True)
class Pattern:
    """One pattern node.

    Attributes:
        kind: ``"op"`` for an operator node, ``"nt"`` for a nonterminal leaf.
        symbol: Operator name or nonterminal name.
        kids: Child patterns (empty for nonterminal leaves and leaf operators).
    """

    kind: str
    symbol: str
    kids: tuple["Pattern", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("op", "nt"):
            raise GrammarError(f"invalid pattern kind {self.kind!r}")
        if self.kind == "nt" and self.kids:
            raise GrammarError(f"nonterminal pattern {self.symbol!r} cannot have children")

    @property
    def is_nonterminal(self) -> bool:
        return self.kind == "nt"

    @property
    def is_operator(self) -> bool:
        return self.kind == "op"

    def nonterminal_leaves(self) -> list[str]:
        """Nonterminal names in left-to-right order (with repetition).

        These are the operands the reducer recurses into; their order
        defines the order of operand values passed to emit actions.
        """
        if self.is_nonterminal:
            return [self.symbol]
        leaves: list[str] = []
        for kid in self.kids:
            leaves.extend(kid.nonterminal_leaves())
        return leaves

    def operators(self) -> list[str]:
        """Operator names used anywhere in the pattern."""
        if self.is_nonterminal:
            return []
        ops = [self.symbol]
        for kid in self.kids:
            ops.extend(kid.operators())
        return ops

    def walk(self) -> Iterator["Pattern"]:
        """Preorder traversal of all pattern nodes."""
        yield self
        for kid in self.kids:
            yield from kid.walk()

    def __str__(self) -> str:
        if self.is_nonterminal:
            return self.symbol
        if not self.kids:
            return self.symbol
        inner = ",".join(str(kid) for kid in self.kids)
        return f"{self.symbol}({inner})"


def op_pattern(op_name: str, *kids: Pattern) -> Pattern:
    """Build an operator pattern node."""
    return Pattern("op", op_name, tuple(kids))


def nt_pattern(nt_name: str) -> Pattern:
    """Build a nonterminal pattern leaf."""
    return Pattern("nt", nt_name)
