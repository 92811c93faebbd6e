"""The frame-stack reducer: the plain reference emission engine.

The reducer walks any labeling top-down and runs emit actions.  It is
the emission engine of the DP labeler (whose labeling has no automaton
states to compile a tape from) and of ``emitter="reducer"``, and the
differential oracle the tape engine (:mod:`repro.selection.tape`) is
tested against.  Starting from the start nonterminal at each forest
root, it asks the labeling for the rule of the current (node,
nonterminal) pair, reduces the rule's targets
(:func:`~repro.selection.cover.rule_targets`, the target rule of the
cover module's reference walk), and then runs the
rule's emit action bottom-up.  For DAG inputs each (node, nonterminal)
pair is reduced once and its semantic value reused — the standard
extension of tree parsing to DAGs.

The two engines share a contract, not a class: the same
``reduce_forest``/``resolve_start``/``memo_size``/``rollback_to``
surface and counters, and the helpers defined here —
:func:`entry_cost`, :func:`pass_through` and the
``_SplicedOperands`` marker.  The reducer keeps everything else to
itself: its memo keyed by ``(node, nonterminal name)``, its action
dispatch, its cycle guard, its deadline strides and its fault rollback.
It resolves each rule and its targets per node, with no plan cache or
id space of its own, so it stays independent of the automaton's
state-indexed fragments.

Node identity is the object, as in the IR and every labeling: two
structurally equal nodes are two nodes unless they are one object, so a
forest and its unpickled or cloned copy reduce twice.  A node's ``nid``
is provenance only (error text).

The engine is *iterative*: reduction runs on an explicit frame stack,
so arbitrarily deep trees and arbitrarily long chain-rule sequences
cannot overflow the interpreter stack.

Semantic values
---------------
Every reduction of a (node, nonterminal) pair produces a *semantic
value* that the parent rule's action receives as an operand:

* a rule with an ``action`` returns whatever the action returns;
* a rule with a ``template`` (the bundled targets) is handled by the
  emit context's ``emit_template`` method;
* a rule with neither passes its operands through: the single operand
  for chain rules, otherwise the flattened operand list.  Helper rules
  introduced by normalisation therefore transparently forward the
  operands of multi-node patterns to the user-written rule's action.

Metrics
-------
The reducer keeps two well-defined counters:

* :attr:`Reducer.reductions` — the number of distinct (node,
  nonterminal) pairs reduced, i.e. rule applications (each pair applies
  exactly one rule and stores exactly one memo entry);
* :attr:`Reducer.memo_hits` — the number of reduction requests answered
  from the memo without applying a rule (DAG sharing, repeated chain
  targets, and repeated ``reduce``/``reduce_forest`` calls).

Cover cost
----------
The walk that emits a forest also costs it: every reduction adds
:func:`entry_cost` of its rule, the one cost rule both emission engines
apply, and :attr:`Reducer.last_cover_cost` reports the sum.  A memo hit
adds nothing, so over a batch each distinct (node, nonterminal) entry
is costed once, when it is emitted — the cost of the batch's cover.
"""

from __future__ import annotations

from itertools import islice
from typing import Any

from repro.errors import CoverError
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.selection.cover import Labeling, rule_targets
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)

__all__ = ["Reducer", "entry_cost", "pass_through"]


def entry_cost(rule: Rule, node: Node) -> int:
    """The cost one cover entry adds: *rule* applied at *node*.

    A ``dynamic_cost`` rule is evaluated here, once per entry; a raising
    cost gets *node* attached as fault provenance.  Every other rule
    adds its fixed :attr:`~repro.grammar.rule.Rule.cost` — including a
    constraint rule, which the labeling only chose where its constraint
    held, so no constraint callable runs again.  Summed over a cover's
    entries this equals the cover's ``total_cost()``.
    """
    dynamic_cost = rule.dynamic_cost
    if dynamic_cost is None:
        return rule.cost
    try:
        return dynamic_cost(node)
    except Exception as exc:
        attach_node_provenance(exc, node)
        raise


#: The memo's missing-key marker (a memoised value may be ``None``).
_MISSING = object()

#: Frame slots of the explicit reduction stack.
_F_KEY, _F_NODE, _F_RULE, _F_OPERANDS, _F_TARGETS, _F_INDEX = range(6)


class _SplicedOperands(list):
    """Semantic value of a normalisation helper rule.

    Helper rules forward the operands of a multi-node pattern's inner
    nodes; wrapping them in this marker lets the parent's operand
    collection splice them flat, so the user-written rule's action sees
    the same operand list whether the reducer runs over the original or
    the normalized grammar.
    """


def pass_through(context: Any, node: Node, operands: list[Any]) -> Any:
    """Pass-through value for rules without actions, as an action.

    A single operand passes through unchanged; several operands are
    flattened into one new list so nested helper rules do not nest
    lists.  The one definition of the value: the tape's thunk for such
    a rule is this function, the frame engine calls it, and the tape's
    sweep runs the 0-, 1- and 2-operand cases inline to the same result.
    """
    if len(operands) == 1:
        operand = operands[0]
        if not isinstance(operand, list):
            return operand
    flat: list[Any] = []
    for operand in operands:
        if isinstance(operand, list):
            flat.extend(operand)
        else:
            flat.append(operand)
    if len(flat) == 1:
        return flat[0]
    return flat


class Reducer:
    """Reduces a labeled forest, executing emit actions.

    Args:
        labeling: The labeling produced by one of the labelers.
        context: The emit context handed to rule actions (for the
            bundled workloads this is a
            :class:`repro.bench.workloads.EmitContext`).

    Attributes:
        reductions: Distinct (node, nonterminal) pairs reduced — one
            rule application and one memo store each.
        memo_hits: Reduction requests answered from the memo without
            applying a rule.

    The memo keys the node object, as the labeling does (``Node``
    hashes and compares by identity), so it holds every node it reduced
    for as long as the reducer lives.
    """

    def __init__(
        self,
        labeling: Labeling,
        context: Any = None,
        *,
        deadline_at_ns: int | None = None,
    ) -> None:
        self.labeling = labeling
        self.context = context
        #: Absolute monotonic deadline for cooperative cancellation
        #: (checked every DEADLINE_CHECK_EVERY frame steps); None
        #: disables the checks.
        self.deadline_at_ns = deadline_at_ns
        #: ``(node, nonterminal) -> value``; values may be ``None``,
        #: so lookups use the :data:`_MISSING` sentinel.
        self._memo: dict[tuple[Node, str], Any] = {}
        self.reductions = 0
        self.memo_hits = 0
        #: Roots fully reduced by the most recent *faulted*
        #: :meth:`reduce_forest` call (fault-isolation provenance).
        self.last_roots_completed = 0
        #: Summed :func:`entry_cost` of the reductions the most recent
        #: successful :meth:`reduce_forest` applied (memo hits add 0).
        self.last_cover_cost = 0

    # ------------------------------------------------------------------
    # Poisoned-entry safety: the memo only ever *adds* entries (a pair is
    # reduced once, its entry never overwritten), and CPython dicts
    # preserve insertion order — so "the memo as of size k" is exactly
    # its first k items.  A fault-isolating caller snapshots
    # ``memo_size()`` before a forest and ``rollback_to()`` it after a
    # failure, discarding every entry the doomed reduction stored; the
    # happy path pays nothing.

    def memo_size(self) -> int:
        """Current memo entry count — a rollback point for
        :meth:`rollback_to`."""
        return len(self._memo)

    def rollback_to(self, size: int) -> int:
        """Discard memo entries added after :meth:`memo_size` returned
        *size*.

        Removes the most recently inserted entries until *size* remain,
        and subtracts them from :attr:`reductions` (they never happened,
        as far as later forests are concerned).  Returns the number
        discarded.
        """
        memo = self._memo
        excess = len(memo) - size
        if excess <= 0:
            return 0
        for key in list(islice(reversed(memo), excess)):
            del memo[key]
        self.reductions -= excess
        return excess

    # ------------------------------------------------------------------

    def resolve_start(self, start: str | None = None) -> str:
        """The effective start nonterminal for a reduction.

        Returns *start* when given, else the grammar's start
        nonterminal; raises :class:`CoverError` when neither exists.
        Public so the ``select_many`` pipeline can resolve it once per
        engine, outside its per-forest fault handling.
        """
        start_nt = start if start is not None else self.labeling.grammar.start
        if start_nt is None:
            raise CoverError("grammar has no start nonterminal")
        return start_nt

    def reduce_forest(self, forest: Forest, start: str | None = None) -> list[Any]:
        """Reduce every root of *forest* from the start nonterminal.

        Also sets :attr:`last_cover_cost` to the summed cost of the
        reductions this call applied.
        """
        start_nt = self.resolve_start(start)
        values: list[Any] = []
        cost = 0
        try:
            for root in forest.roots:
                value, root_cost = self._walk(root, start_nt)
                values.append(value)
                cost += root_cost
        except Exception:
            # Fault provenance for isolating callers; free on the happy
            # path (zero-cost try on CPython 3.11+).
            self.last_roots_completed = len(values)
            raise
        self.last_cover_cost = cost
        return values

    def reduce(self, node: Node, nonterminal: str) -> Any:
        """Reduce *node* from *nonterminal* and return its semantic value.

        Iterative: reductions of any depth (deep trees, long chain-rule
        sequences) run on an explicit frame stack.
        """
        return self._walk(node, nonterminal)[0]

    def _walk(self, node: Node, nonterminal: str) -> tuple[Any, int]:
        """Reduce *node* from *nonterminal*: ``(value, cost)``, *cost*
        summing :func:`entry_cost` over the reductions this walk applied.
        """
        memo = self._memo
        key = (node, nonterminal)
        value = memo.get(key, _MISSING)
        if value is not _MISSING:
            self.memo_hits += 1
            return value, 0

        require_rule = self.labeling.require_rule
        run_action = self._run_action
        rule = require_rule(node, nonterminal)
        cost = 0
        # Frame layout: [key, node, rule, operands, targets, index].
        # The on-stack key set bounds corrupt labelings: a (node, nt)
        # pair whose reduction depends on itself (e.g. a chain-rule
        # cycle answered by a broken Labeling) is an error, not an
        # unbounded frame loop.
        on_stack: set[tuple[Node, str]] = {key}
        frames: list[list] = [[key, node, rule, [], rule_targets(rule, node), 0]]
        deadline = self.deadline_at_ns
        ticks = 0
        while True:
            if deadline is not None:
                ticks += 1
                if ticks >= DEADLINE_CHECK_EVERY:
                    ticks = 0
                    check_deadline(deadline, "reduce")
            frame = frames[-1]
            targets = frame[_F_TARGETS]
            operands = frame[_F_OPERANDS]
            index = frame[_F_INDEX]
            descended = False
            while index < len(targets):
                t_key = targets[index]
                value = memo.get(t_key, _MISSING)
                if value is _MISSING:
                    t_node, t_nt = t_key
                    if t_key in on_stack:
                        raise CoverError(
                            f"cyclic derivation: reducing node "
                            f"{t_node.op.name} (nid={t_node.nid}) from "
                            f"nonterminal {t_nt!r} depends on itself"
                        )
                    frame[_F_INDEX] = index
                    t_rule = require_rule(t_node, t_nt)
                    on_stack.add(t_key)
                    frames.append([t_key, t_node, t_rule, [], rule_targets(t_rule, t_node), 0])
                    descended = True
                    break
                self.memo_hits += 1
                if isinstance(value, _SplicedOperands):
                    operands.extend(value)
                else:
                    operands.append(value)
                index += 1
            if descended:
                continue
            # All targets reduced: cost the entry, apply the rule, and
            # deliver the value.
            e_rule = frame[_F_RULE]
            e_node = frame[_F_NODE]
            cost += entry_cost(e_rule, e_node)
            value = run_action(e_rule, e_node, operands)
            key = frame[_F_KEY]
            memo[key] = value
            on_stack.discard(key)
            self.reductions += 1
            frames.pop()
            if not frames:
                return value, cost
            parent = frames[-1]
            if isinstance(value, _SplicedOperands):
                parent[_F_OPERANDS].extend(value)
            else:
                parent[_F_OPERANDS].append(value)
            parent[_F_INDEX] += 1

    # ------------------------------------------------------------------

    def _run_action(self, rule: Rule, node: Node, operands: list[Any]) -> Any:
        # The try/except is zero-cost on the happy path (CPython 3.11+);
        # a raising user action gets the faulting IR node attached for
        # SelectionFailure provenance before propagating.
        try:
            if rule.action is not None:
                return rule.action(self.context, node, operands)
            if rule.template is not None and self.context is not None:
                emit_template = getattr(self.context, "emit_template", None)
                if emit_template is not None:
                    return emit_template(rule, node, operands)
        except Exception as exc:
            attach_node_provenance(exc, node)
            raise
        if rule.is_helper:
            return _SplicedOperands(operands)
        return pass_through(self.context, node, operands)
