"""Hash-consed tree-parsing automaton states, integer-indexed.

A *state* summarises everything the automaton needs to know about a
subtree: for each nonterminal, the **delta cost** of deriving the
subtree from that nonterminal (relative to the cheapest nonterminal,
per :func:`~repro.grammar.costs.normalize_costs`) and the rule that
starts the cheapest such derivation.  Normalisation is what keeps the
state set finite: two cost vectors differing by a constant select the
same rules everywhere above them, so they are interned as one state.

The warm path never touches strings: the owning :class:`StatePool`
interns nonterminals to dense ids, and each state stores its costs and
rules as flat lists indexed by nonterminal id (:attr:`State.cost_vec`,
:attr:`State.rule_vec`); :meth:`State.cost_of` / :meth:`State.rule_for`
look a nonterminal name up in the pool's interning first.

States are hash-consed through a :class:`StatePool`: the signature is
the sorted tuple of ``(nonterminal, delta cost, rule number)`` triples,
so structurally identical labeling results share one state object and
one transition-table entry.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.grammar.costs import INFINITE, is_finite, normalize_costs
from repro.grammar.rule import Rule

__all__ = ["State", "StatePool", "state_signature"]

#: The hash-consing key of a state: sorted (nonterminal, delta, rule#) triples.
Signature = tuple[tuple[str, int, int], ...]


def state_signature(costs: dict[str, int], rules: dict[str, Rule]) -> Signature:
    """The hash-consing signature of a normalized (costs, rules) pair."""
    return tuple(
        sorted((nt, cost, rules[nt].number) for nt, cost in costs.items() if is_finite(cost))
    )


class State:
    """One interned automaton state.

    Attributes:
        index: Dense id within the owning pool (used as transition key).
        cost_vec: Flat list of normalized delta costs indexed by the
            pool's nonterminal ids (:data:`~repro.grammar.costs.INFINITE`
            where the nonterminal is not derivable).
        rule_vec: Flat list, indexed like :attr:`cost_vec`, of the rules
            starting the cheapest derivations (``None`` where none).
        signature: The hash-consing key this state was interned under.
    """

    __slots__ = ("index", "cost_vec", "rule_vec", "signature", "_nt_ids")

    def __init__(
        self,
        index: int,
        cost_vec: list[int],
        rule_vec: list["Rule | None"],
        signature: Signature,
        nt_ids: dict[str, int],
    ) -> None:
        self.index = index
        self.cost_vec = cost_vec
        self.rule_vec = rule_vec
        self.signature = signature
        self._nt_ids = nt_ids

    # ------------------------------------------------------------------
    # Accessors (the integer-indexed pair is the warm path)

    def cost_at(self, nt_id: int) -> int:
        """Delta cost of deriving this state from nonterminal id *nt_id*."""
        vec = self.cost_vec
        return vec[nt_id] if nt_id < len(vec) else INFINITE

    def rule_at(self, nt_id: int) -> Rule | None:
        """Rule starting the cheapest derivation from nonterminal id *nt_id*."""
        vec = self.rule_vec
        return vec[nt_id] if nt_id < len(vec) else None

    def cost_of(self, nonterminal: str) -> int:
        """Delta cost of deriving this state from *nonterminal*."""
        nt_id = self._nt_ids.get(nonterminal)
        return INFINITE if nt_id is None else self.cost_at(nt_id)

    def rule_for(self, nonterminal: str) -> Rule | None:
        """Rule starting the cheapest derivation from *nonterminal*."""
        nt_id = self._nt_ids.get(nonterminal)
        return None if nt_id is None else self.rule_at(nt_id)

    def __repr__(self) -> str:
        return f"State(#{self.index}, nts={len(self.signature)})"


class StatePool:
    """Hash-consing intern table for :class:`State` objects.

    The pool owns the nonterminal interning shared by all its states:
    :attr:`nt_ids` maps nonterminal names to the dense ids that index
    every state's vectors.  Construct the pool with the grammar's
    nonterminals so ids are assigned once, at automaton-sync time;
    unknown nonterminals reaching :meth:`intern` are interned on the
    fly (later states simply get longer vectors — :meth:`State.cost_at`
    treats out-of-range ids as not derivable).
    """

    def __init__(self, nonterminals: Iterable[str] = ()) -> None:
        self.nt_ids: dict[str, int] = {}
        self.nt_names: list[str] = []
        for nonterminal in nonterminals:
            self.declare(nonterminal)
        self._by_signature: dict[Signature, State] = {}
        self.states: list[State] = []

    def declare(self, nonterminal: str) -> int:
        """Intern *nonterminal* (idempotent) and return its dense id."""
        nt_id = self.nt_ids.get(nonterminal)
        if nt_id is None:
            nt_id = len(self.nt_names)
            self.nt_ids[nonterminal] = nt_id
            self.nt_names.append(nonterminal)
        return nt_id

    def intern(self, costs: dict[str, int], rules: dict[str, Rule]) -> tuple[State, bool]:
        """Intern a raw (costs, rules) labeling result.

        Costs are normalized to delta costs and infinite entries dropped
        before the signature lookup.  Returns ``(state, created)`` where
        *created* is True when a new state had to be allocated.
        """
        normalized = normalize_costs(costs)
        finite_costs = {nt: cost for nt, cost in normalized.items() if is_finite(cost)}
        signature = state_signature(finite_costs, rules)
        state = self._by_signature.get(signature)
        if state is not None:
            return state, False
        for nonterminal in finite_costs:
            self.declare(nonterminal)
        cost_vec = [INFINITE] * len(self.nt_names)
        rule_vec: list[Rule | None] = [None] * len(self.nt_names)
        for nonterminal, cost in finite_costs.items():
            nt_id = self.nt_ids[nonterminal]
            cost_vec[nt_id] = cost
            rule_vec[nt_id] = rules[nonterminal]
        state = State(len(self.states), cost_vec, rule_vec, signature, self.nt_ids)
        self.states.append(state)
        self._by_signature[signature] = state
        return state, True

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)
