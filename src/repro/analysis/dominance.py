"""Dominated-rule analysis and semantics-preserving grammar pruning.

A rule is **dominated** when no state of the fully-built (eager)
automaton ever selects it for any nonterminal: every tree the rule
could match is covered at least as cheaply by other rules, so the rule
can never appear in any optimal cover.  Removing dominated rules
preserves semantics — they are never a winner, and the first-wins
tie-break among the remaining rules is unchanged — while shrinking the
eager tables and the AOT artifacts that store them.

Soundness rests on the eager fixed point reaching *exactly* the
reachable state set (children of distinct subtrees are independent),
so the analysis refuses grammars whose build was capped or skipped
operators (dynamic-cost rules, dynamic chain rules): for those, a
rule's win set cannot be fully enumerated.  Constraint rules *are*
analyzable — the eager build enumerates their signature outcomes.

:func:`differential_check` labels the same forests under the original
and the pruned grammar and asserts identical total costs and identical
per-node rule choices (modulo helper renumbering), which the test
suite runs across the bench workload families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import AnalysisError
from repro.grammar.grammar import Grammar
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.selection.automaton import OnDemandAutomaton
from repro.selection.cover import extract_cover

__all__ = ["DominanceReport", "PruneResult", "analyze_dominance", "differential_check", "prune"]


@dataclass
class DominanceReport:
    """Outcome of :func:`analyze_dominance`."""

    grammar: str
    #: False when the state space could not be fully enumerated.
    analyzable: bool = False
    reason: str = ""
    #: Reachable states enumerated.
    states: int = 0
    rules_total: int = 0
    #: Source-grammar rules selected by at least one reachable state.
    used: list[Rule] = field(default_factory=list)
    #: Source-grammar rules no reachable state ever selects.
    dominated: list[Rule] = field(default_factory=list)

    def describe(self) -> str:
        if not self.analyzable:
            return f"grammar {self.grammar!r}: dominance not analyzable — {self.reason}"
        if not self.dominated:
            return (
                f"grammar {self.grammar!r}: no dominated rules "
                f"({self.rules_total} rules all win in some reachable state)"
            )
        lines = [
            f"grammar {self.grammar!r}: {len(self.dominated)} of {self.rules_total} "
            f"rule(s) dominated (never selected in any optimal cover):"
        ]
        for rule in self.dominated:
            where = f" at {rule.location}" if rule.location else ""
            lines.append(f"  rule {rule.number}{where}: {rule.describe()}")
        return "\n".join(lines)


@dataclass
class PruneResult:
    """Outcome of :func:`prune`."""

    grammar: Grammar
    removed: list[Rule]
    report: DominanceReport


def analyze_dominance(grammar: Grammar, max_states: int | None = None) -> DominanceReport:
    """Find the rules of *grammar* no optimal cover can ever use.

    Builds the eager automaton and collects, over every reachable
    state, the set of winning rules (mapped back through normalization
    to the user-written rules).  Rules outside that set are dominated.
    """
    report = DominanceReport(grammar=grammar.name, rules_total=len(grammar.rules))
    automaton = OnDemandAutomaton(grammar)
    stats = automaton.build_eager(max_states)
    report.states = len(automaton.pool)
    if stats["capped"]:
        report.reason = f"eager construction capped at {max_states} states"
        return report
    if stats["skipped"]:
        report.reason = (
            "operators left on demand (dynamic-cost or dynamic chain rules): "
            + ", ".join(stats["skipped"])
        )
        return report

    # Winning rules live in the (possibly normalized) working grammar;
    # map each back to the user-written rule.  ``source`` is a single
    # hop here: normalization links every derived rule directly to its
    # original.
    normalized = automaton.grammar is not grammar
    used_ids: set[int] = set()
    used_rules: dict[int, Rule] = {}
    for state in automaton.pool.states:
        for rule in state.rule_vec:
            if rule is None:
                continue
            original = rule.source if (normalized and rule.source is not None) else rule
            if id(original) not in used_ids:
                used_ids.add(id(original))
                used_rules[id(original)] = original

    report.analyzable = True
    report.used = [rule for rule in grammar.rules if id(rule) in used_ids]
    report.dominated = [rule for rule in grammar.rules if id(rule) not in used_ids]
    return report


def prune(
    grammar: Grammar,
    max_states: int | None = None,
    *,
    report: DominanceReport | None = None,
    name: str | None = None,
) -> PruneResult:
    """Return a reduced grammar without *grammar*'s dominated rules.

    The pruned grammar is :meth:`Grammar.subset` of the surviving
    rules: each copy keeps every attribute of its rule (costs,
    templates, actions, constraints, source position) and links to it
    through ``source``, so emit traces remain comparable.  Every
    nonterminal a kept rule references is still derived — its cheapest
    derivation used a kept (winning) rule — so the result always passes
    ``validate()``.

    Args:
        grammar: The grammar to prune.
        max_states: Cap forwarded to the dominance build.
        report: A precomputed :func:`analyze_dominance` report for this
            grammar (avoids a second eager build).
        name: Name for the pruned grammar (default ``<name>-pruned``).

    Raises:
        AnalysisError: When the grammar's dominance is not analyzable.
    """
    if report is None:
        report = analyze_dominance(grammar, max_states)
    if not report.analyzable:
        raise AnalysisError(
            f"cannot prune grammar {grammar.name!r}: {report.reason or 'not analyzable'}"
        )
    dominated_ids = {id(rule) for rule in report.dominated}
    pruned = grammar.subset(
        lambda rule: id(rule) not in dominated_ids, name or f"{grammar.name}-pruned"
    )
    pruned.validate()
    return PruneResult(grammar=pruned, removed=list(report.dominated), report=report)


def differential_check(
    original: Grammar,
    pruned: Grammar,
    forests: Sequence[Forest] | Iterable[Forest],
    start: str | None = None,
) -> dict[str, int]:
    """Assert *pruned* selects identically to *original* on *forests*.

    Labels every forest under both grammars and compares total cover
    costs and the per-entry ``(node, nonterminal, original rule)``
    sequences.  Helper nonterminals introduced by normalization are
    masked (their generated names and numbers differ between the two
    grammars); rules are compared through ``Rule.original``.

    Returns:
        ``{"forests": n, "entries": m}`` counters on success.

    Raises:
        AnalysisError: On the first cover/cost mismatch.
    """
    auto_original = OnDemandAutomaton(original)
    auto_pruned = OnDemandAutomaton(pruned)
    checked_forests = 0
    checked_entries = 0
    for forest in forests:
        label_a = auto_original.label(forest)
        label_b = auto_pruned.label(forest)
        cover_a = extract_cover(label_a, forest, start)
        cover_b = extract_cover(label_b, forest, start)
        if cover_a.total_cost() != cover_b.total_cost():
            raise AnalysisError(
                f"differential check failed on forest {forest.name!r}: total cost "
                f"{cover_a.total_cost()} (original) != {cover_b.total_cost()} (pruned)"
            )
        trace_a = [_entry_key(entry) for entry in cover_a.entries]
        trace_b = [_entry_key(entry) for entry in cover_b.entries]
        if trace_a != trace_b:
            raise AnalysisError(
                f"differential check failed on forest {forest.name!r}: covers differ "
                f"({len(trace_a)} vs {len(trace_b)} entries)"
            )
        checked_forests += 1
        checked_entries += len(trace_a)
    return {"forests": checked_forests, "entries": checked_entries}


def _entry_key(entry) -> tuple[Node, str, int]:
    """Comparison key for one cover entry, stable across normalizations."""
    nonterminal = "__helper" if entry.nonterminal.startswith("__h") else entry.nonterminal
    return (entry.node, nonterminal, entry.rule.original.number)
