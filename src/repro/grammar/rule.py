"""Tree-grammar rules.

A rule derives its left-hand-side nonterminal to a tree pattern, at a
cost.  Costs are fixed integers, optionally refined at instruction-
selection time by a *dynamic cost* function (lburg-style: the function
replaces the cost entirely) or a *constraint* (a predicate: the rule
keeps its fixed cost when the predicate holds and becomes inapplicable
otherwise).  Constraints are the restricted form of dynamic costs that
the on-demand automaton can exploit without falling back to dynamic
programming; fully general dynamic costs are also supported through the
per-node check path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import GrammarError
from repro.grammar.costs import INFINITE, DynamicCost
from repro.grammar.pattern import Pattern
from repro.ir.node import Node

__all__ = ["Rule", "EmitAction"]

#: An emit action receives ``(context, node, operands)`` where *context*
#: is the emission engine's emit context (a
#: :class:`repro.bench.workloads.EmitContext` for the bundled
#: workloads), *node* is the IR node matched by the rule's
#: pattern root, and *operands* are the semantic values produced by
#: reducing the pattern's nonterminal leaves, left to right.  The action
#: returns the semantic value of this (node, nonterminal) reduction.
EmitAction = Callable[[Any, Node, list[Any]], Any]


@dataclass(eq=False)
class Rule:
    """One tree-grammar rule ``lhs : pattern = number (cost)``.

    Rules compare and hash by identity: two textually identical rules in
    different grammars are distinct objects, and labelers freely use
    rules as dictionary keys.
    """

    lhs: str
    pattern: Pattern
    cost: int = 0
    number: int = -1
    name: str = ""
    template: str | None = None
    action: EmitAction | None = None
    dynamic_cost: DynamicCost | None = None
    constraint: Callable[[Node], bool] | None = None
    constraint_name: str = ""
    #: True for cost-0 helper rules introduced by normalisation; their
    #: semantic values are spliced into the parent rule's operand list so
    #: user actions see the same flat operands as on the original grammar.
    is_helper: bool = False
    source: "Rule | None" = field(default=None, repr=False)
    #: 1-based source position of the rule in its grammar text (0 when
    #: the rule was built programmatically).  Provenance only: diagnostics
    #: point at grammar source through these, and derived rules
    #: (normalisation, pruning) inherit their source rule's position.
    line: int = 0
    column: int = 0

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise GrammarError(f"rule {self.lhs}: {self.pattern} has negative cost {self.cost}")
        if self.dynamic_cost is not None and self.constraint is not None:
            raise GrammarError(
                f"rule {self.lhs}: {self.pattern} has both a dynamic cost and a constraint"
            )

    # ------------------------------------------------------------------
    # Shape predicates

    @property
    def is_chain(self) -> bool:
        """True for chain rules ``nt : other_nt``."""
        return self.pattern.is_nonterminal

    @property
    def is_base(self) -> bool:
        """True for normal-form base rules ``nt : Op(nt, ..., nt)``."""
        return self.pattern.is_operator and all(kid.is_nonterminal for kid in self.pattern.kids)

    @property
    def is_normal_form(self) -> bool:
        """True if this rule is already in normal form."""
        return self.is_chain or self.is_base

    @property
    def is_dynamic(self) -> bool:
        """True if the rule's applicability depends on the IR node."""
        return self.dynamic_cost is not None or self.constraint is not None

    @property
    def original(self) -> "Rule":
        """The user-written rule this rule was derived from (or itself)."""
        rule: Rule = self
        while rule.source is not None:
            rule = rule.source
        return rule

    @property
    def location(self) -> str:
        """``"line:column"`` in the grammar text, or ``""`` when unknown."""
        return f"{self.line}:{self.column}" if self.line > 0 else ""

    # ------------------------------------------------------------------
    # Costs

    def static_cost(self) -> int:
        """The cost used when no IR node is available (automaton construction)."""
        return self.cost

    def cost_at(self, node: Node) -> int:
        """The rule's cost when matched at *node*.

        Dynamic-cost rules delegate to the dynamic cost function;
        constrained rules return their fixed cost when the constraint
        holds and :data:`~repro.grammar.costs.INFINITE` otherwise.
        """
        if self.dynamic_cost is not None:
            return self.dynamic_cost(node)
        if self.constraint is not None:
            return self.cost if self.constraint(node) else INFINITE
        return self.cost

    def describe(self) -> str:
        """Human-readable one-line rendering, burg style."""
        suffix = ""
        if self.dynamic_cost is not None:
            suffix = f" @dynamic({getattr(self.dynamic_cost, '__name__', 'fn')})"
        elif self.constraint is not None:
            suffix = f" @constraint({self.constraint_name or getattr(self.constraint, '__name__', 'fn')})"
        return f"{self.lhs}: {self.pattern} = {self.number} ({self.cost}){suffix}"

    def __str__(self) -> str:
        return self.describe()
