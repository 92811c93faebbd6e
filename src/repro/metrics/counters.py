"""Deterministic work counters for labeling and automaton construction.

The paper reports hardware instruction and cycle counts of the
instruction-selector labelers.  This reproduction runs on a Python
substrate, so absolute hardware counts are meaningless; instead every
labeler counts the algorithmic work it performs (rule applicability
checks, chain-rule checks, transition-table lookups, state
constructions, dynamic-cost evaluations).  The *ratios* of these counts
between labelers play the role of the paper's instruction-count ratios,
and wall-clock time plays the role of cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LabelMetrics"]


@dataclass
class LabelMetrics:
    """Work performed by one labeling run (or one state construction).

    For the DP labeler ``rule_checks`` and ``chain_checks`` are per-node
    work.  For the automaton they are construction work, charged only
    when a lookup adds to the tables: a new entry (a projected key, or
    one outcome tuple of a dynamic row), or a new row's candidate rules
    (see :mod:`repro.selection.automaton`).  ``table_misses`` counts the
    entries, one per transition filed.
    """

    #: Nodes processed by the labeler.
    nodes_labeled: int = 0
    #: Base-rule pattern/applicability checks (dynamic programming work;
    #: for the automaton, per construction of a new table entry).
    rule_checks: int = 0
    #: Chain-rule checks (the repeated closure loop; for the automaton,
    #: per construction of a new table entry).
    chain_checks: int = 0
    #: Transition-table lookups performed by automaton labelers.
    table_lookups: int = 0
    #: Transition-table misses: lookups that filed a new entry (a
    #: projected key, or an outcome tuple of a dynamic row), each by one
    #: state construction.
    table_misses: int = 0
    #: Automaton states constructed (offline or on demand).
    states_created: int = 0
    #: Dynamic-cost / constraint evaluations at instruction-selection time.
    dynamic_evals: int = 0
    #: Wall-clock seconds spent labeling (excludes reduction/emission).
    seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of transition-table lookups answered by an entry the
        tables already held (0.0 when no lookups were performed)."""
        if self.table_lookups <= 0:
            return 0.0
        return (self.table_lookups - self.table_misses) / self.table_lookups

    def operations(self) -> int:
        """Total unit-work items: the reproduction's "executed instructions" proxy."""
        return (
            self.nodes_labeled
            + self.rule_checks
            + self.chain_checks
            + self.table_lookups
            + self.dynamic_evals
        )

    def construction_operations(self) -> int:
        """Work attributable to building automaton states."""
        return self.rule_checks + self.chain_checks

    def merge(self, other: "LabelMetrics") -> "LabelMetrics":
        """Accumulate *other* into this metrics object (returns self)."""
        self.nodes_labeled += other.nodes_labeled
        self.rule_checks += other.rule_checks
        self.chain_checks += other.chain_checks
        self.table_lookups += other.table_lookups
        self.table_misses += other.table_misses
        self.states_created += other.states_created
        self.dynamic_evals += other.dynamic_evals
        self.seconds += other.seconds
        return self

    def copy(self) -> "LabelMetrics":
        return LabelMetrics(
            nodes_labeled=self.nodes_labeled,
            rule_checks=self.rule_checks,
            chain_checks=self.chain_checks,
            table_lookups=self.table_lookups,
            table_misses=self.table_misses,
            states_created=self.states_created,
            dynamic_evals=self.dynamic_evals,
            seconds=self.seconds,
        )

    def as_row(self) -> dict[str, object]:
        """Flat dict for table formatting."""
        return {
            "nodes": self.nodes_labeled,
            "operations": self.operations(),
            "rule checks": self.rule_checks,
            "chain checks": self.chain_checks,
            "lookups": self.table_lookups,
            "misses": self.table_misses,
            "states": self.states_created,
            "dynamic evals": self.dynamic_evals,
            "hit rate": round(self.hit_rate, 4),
            "time [ms]": round(self.seconds * 1000.0, 3),
        }
