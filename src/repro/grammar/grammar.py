"""The tree grammar: a machine description for instruction selection.

A :class:`Grammar` is built rule by rule with :meth:`Grammar.add_rule`.
Grammars derived from another one — the normal form
(:func:`~repro.grammar.normalize.normalize`), the static core that
completeness certifies and the pruned grammar
(:meth:`Grammar.subset`) — copy their rules through one path,
:meth:`Grammar.add_copy`, which carries every :class:`Rule` field and
links the copy to its original through ``source``.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Iterable, Iterator

from repro.errors import GrammarError
from repro.grammar.costs import DynamicCost
from repro.grammar.pattern import Pattern, nt_pattern, op_pattern
from repro.grammar.rule import EmitAction, Rule
from repro.ir.ops import DEFAULT_OPERATORS, OperatorSet

__all__ = ["Grammar"]

#: The :class:`Rule` fields :meth:`Grammar.add_copy` carries: all but
#: ``number``, which the grammar assigns.
_COPIED_FIELDS = tuple(f.name for f in fields(Rule) if f.name != "number")


class Grammar:
    """A tree grammar: nonterminals, rules, a start nonterminal.

    Rules are added through :meth:`add_rule` (or the :meth:`chain` /
    :meth:`op_rule` conveniences, or copied by :meth:`add_copy`) and
    numbered consecutively in the order of addition, which mirrors
    burg's rule numbers.  Index structures used by the labelers (rules
    grouped by root operator, chain rules grouped by right-hand-side
    nonterminal) are maintained incrementally so a grammar can also be
    extended while a JIT is running — one of the flexibility arguments
    of the on-demand approach.
    """

    def __init__(
        self,
        name: str = "grammar",
        operators: OperatorSet | None = None,
        start: str | None = None,
    ) -> None:
        self.name = name
        self.operators = operators if operators is not None else DEFAULT_OPERATORS
        self.start = start
        self.rules: list[Rule] = []
        self.nonterminals: list[str] = []
        self._nt_index: dict[str, int] = {}
        self._rules_by_op: dict[str, list[Rule]] = {}
        self._chain_rules: list[Rule] = []
        self._chain_rules_cache: tuple[Rule, ...] | None = None
        self._chain_rules_by_rhs: dict[str, list[Rule]] = {}
        self.version = 0

    # ------------------------------------------------------------------
    # Construction

    def declare_nonterminal(self, name: str) -> str:
        """Register a nonterminal name (idempotent) and return it."""
        if name not in self._nt_index:
            self._nt_index[name] = len(self.nonterminals)
            self.nonterminals.append(name)
        return name

    def operator_ids(self) -> dict[str, int]:
        """Dense ids for the operators rooting any non-chain rule.

        Ids follow first-use order, so they are stable under grammar
        extension (new operators get new ids).  Used by the automaton to
        intern per-operator transition tables at sync time.
        """
        return {name: i for i, name in enumerate(self._rules_by_op)}

    def add_rule(
        self,
        lhs: str,
        pattern: Pattern,
        cost: int = 0,
        *,
        name: str = "",
        template: str | None = None,
        action: EmitAction | None = None,
        dynamic_cost: DynamicCost | None = None,
        constraint: Callable[[Any], bool] | None = None,
        constraint_name: str = "",
        is_helper: bool = False,
        source: Rule | None = None,
        line: int = 0,
        column: int = 0,
    ) -> Rule:
        """Add a rule and return it (rule number assigned automatically)."""
        self._check_pattern(pattern)
        if self.start is None:
            self.start = lhs
        self.declare_nonterminal(lhs)
        for leaf in pattern.nonterminal_leaves():
            self.declare_nonterminal(leaf)

        rule = Rule(
            lhs=lhs,
            pattern=pattern,
            cost=cost,
            number=len(self.rules) + 1,
            name=name,
            template=template,
            action=action,
            dynamic_cost=dynamic_cost,
            constraint=constraint,
            constraint_name=constraint_name,
            is_helper=is_helper,
            source=source,
            line=line,
            column=column,
        )
        self.rules.append(rule)
        if rule.is_chain:
            self._chain_rules.append(rule)
            self._chain_rules_cache = None
            self._chain_rules_by_rhs.setdefault(rule.pattern.symbol, []).append(rule)
        else:
            self._rules_by_op.setdefault(rule.pattern.symbol, []).append(rule)
        self.version += 1
        return rule

    def add_copy(self, rule: Rule, **changes: Any) -> Rule:
        """Add a copy of *rule* (from any grammar) and return it.

        The copy carries every field of *rule* but its number, links
        back through ``source=rule``, and then takes *changes*
        (``field=value``).  Every derived grammar copies its rules
        through here, so a field added to :class:`Rule` is carried
        without touching a caller.
        """
        values = {name: getattr(rule, name) for name in _COPIED_FIELDS}
        values["source"] = rule
        values.update(changes)
        return self.add_rule(**values)

    def chain(self, lhs: str, rhs: str, cost: int = 0, **kwargs: Any) -> Rule:
        """Add a chain rule ``lhs : rhs``."""
        return self.add_rule(lhs, nt_pattern(rhs), cost, **kwargs)

    def op_rule(self, lhs: str, op_name: str, kids: Iterable[str], cost: int = 0, **kwargs: Any) -> Rule:
        """Add a normal-form base rule ``lhs : Op(kid_nts...)``."""
        pattern = op_pattern(op_name, *[nt_pattern(kid) for kid in kids])
        return self.add_rule(lhs, pattern, cost, **kwargs)

    def _check_pattern(self, pattern: Pattern) -> None:
        for part in pattern.walk():
            if part.is_operator:
                if part.symbol not in self.operators:
                    raise GrammarError(
                        f"grammar {self.name!r}: pattern uses unknown operator {part.symbol!r}"
                    )
                expected = self.operators[part.symbol].arity
                if len(part.kids) != expected:
                    raise GrammarError(
                        f"grammar {self.name!r}: operator {part.symbol} used with "
                        f"{len(part.kids)} children, expects {expected}"
                    )

    # ------------------------------------------------------------------
    # Queries used by the labelers

    def rules_for_op(self, op_name: str) -> list[Rule]:
        """Non-chain rules whose pattern is rooted at *op_name*."""
        return self._rules_by_op.get(op_name, [])

    def chain_rules(self) -> tuple[Rule, ...]:
        """All chain rules, in rule order.

        Labelers call this once per node / state construction, so the
        result is a cached tuple returned without copying (invalidated
        when a chain rule is added).
        """
        if self._chain_rules_cache is None:
            self._chain_rules_cache = tuple(self._chain_rules)
        return self._chain_rules_cache

    def chain_rules_from(self, rhs_nt: str) -> list[Rule]:
        """Chain rules whose right-hand side is *rhs_nt*."""
        return self._chain_rules_by_rhs.get(rhs_nt, [])

    def operators_used(self) -> list[str]:
        """Operator names appearing in any rule pattern."""
        seen: list[str] = []
        for rule in self.rules:
            for op_name in rule.pattern.operators():
                if op_name not in seen:
                    seen.append(op_name)
        return seen

    @property
    def is_normal_form(self) -> bool:
        """True if every rule is a chain rule or a base rule."""
        return all(rule.is_normal_form for rule in self.rules)

    @property
    def has_dynamic_rules(self) -> bool:
        return any(rule.is_dynamic for rule in self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    # ------------------------------------------------------------------
    # Derived grammars

    def subset(self, keep: Callable[[Rule], bool], name: str) -> "Grammar":
        """A grammar of the rules *keep* accepts, each copied by :meth:`add_copy`.

        The result has this grammar's operators, start and nonterminal
        order, so rules and states stay comparable with this grammar's.
        """
        derived = Grammar(name, self.operators, self.start)
        for nt in self.nonterminals:
            derived.declare_nonterminal(nt)
        for rule in self.rules:
            if keep(rule):
                derived.add_copy(rule)
        return derived

    # ------------------------------------------------------------------
    # Validation

    def validate(self) -> None:
        """Raise :class:`~repro.errors.GrammarError` on structural problems."""
        if self.start is None:
            raise GrammarError(f"grammar {self.name!r} has no start nonterminal")
        if self.start not in self._nt_index:
            raise GrammarError(f"start nonterminal {self.start!r} never defined")
        defined = {rule.lhs for rule in self.rules}
        for rule in self.rules:
            for leaf in rule.pattern.nonterminal_leaves():
                if leaf not in defined:
                    raise GrammarError(
                        f"rule {rule.describe()} uses nonterminal {leaf!r} "
                        f"that no rule derives"
                    )
        for rule in self.rules:
            if rule.is_chain and rule.pattern.symbol == rule.lhs:
                raise GrammarError(f"self-referential chain rule {rule.describe()}")

    def __repr__(self) -> str:
        return f"Grammar({self.name!r}, rules={len(self.rules)}, nonterminals={len(self.nonterminals)})"
