"""The frame-stack reducer: walks a labeling top-down and runs emit actions.

The reducer works over any labeling.  It is the emission engine of the
DP labeler (whose labeling has no automaton states to compile a tape
from) and of ``emitter="reducer"``, and the differential oracle the
tape engine (:mod:`repro.selection.tape`) is tested against.  Starting
from the start nonterminal at each forest root, it looks up the optimal
rule for the current (node, nonterminal) combination, reduces the rule
pattern's nonterminal leaves, and then runs the rule's emit action
bottom-up.
For DAG inputs each (node, nonterminal) combination is reduced once and
its semantic value reused — the standard extension of tree parsing to
DAGs.

The engine is *iterative*: reduction runs on an explicit frame stack,
so arbitrarily deep trees and arbitrarily long chain-rule sequences
cannot overflow the interpreter stack (mirroring the labelers' fused
stack walks).  The warm path matches the labeling core's
integer-indexed style: the memo is keyed by ``(node-key,
nonterminal-id)`` — the node key is the builder-assigned ``node.nid``
(process-unique, never recycled; see :func:`node_memo_key`), falling
back to address identity for hand-built ``nid=-1`` nodes —
with nonterminals interned to dense ids on first use,
and operand collection is *plan-compiled* per rule — normal-form base
rules resolve their pattern's nonterminal leaves to child positions
once and then collect operands with arity-specialized code, paying the
generic pattern walk only for multi-node rules.

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
The walk that emits a forest also costs its cover: every reduction adds
:func:`entry_cost` of its rule, the one cost rule both emission engines
apply.  :attr:`Reducer.last_cover_cost` reports the sum whenever the
forest's reductions are its whole cover, so callers need no second
:func:`~repro.selection.cover.extract_cover` walk.
"""

from __future__ import annotations

from itertools import islice
from typing import Any

from repro.errors import CoverError
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.selection.cover import Labeling, require_structural_match
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)

__all__ = ["Reducer", "action_thunk", "entry_cost", "flatten_operands", "node_memo_key"]

#: Memo-miss sentinel (``None`` is a legitimate semantic value).
_MISSING = object()


def node_memo_key(node: Node) -> int:
    """The identity key reduction memos use for *node*.

    Builder-assigned nids are process-unique and never recycled, so they
    are the safe key: ``id()`` values can be re-used after a forest is
    garbage-collected mid-batch, silently aliasing a stale memo entry
    onto a fresh node at the same address.  Hand-built nodes
    (``nid == -1``) fall back to ``~id(node)`` — the complement keeps
    the fallback range (negative) disjoint from real nids (>= 0), with
    the documented caveat that address identity is only sound while the
    caller keeps the forest alive.
    """
    nid = node.nid
    return nid if nid >= 0 else ~id(node)


def entry_cost(rule: Rule, node: Node) -> int:
    """The cost one cover entry adds: *rule* applied at *node*.

    A ``dynamic_cost`` rule is evaluated here, once per entry; a raising
    cost gets *node* attached as fault provenance.  Every other rule
    adds its fixed :attr:`~repro.grammar.rule.Rule.cost` — including a
    constraint rule, which the labeling only chose where its constraint
    held, so no constraint callable runs again.  Summed over a forest's
    entries this equals ``extract_cover(...).total_cost()``.
    """
    dynamic_cost = rule.dynamic_cost
    if dynamic_cost is None:
        return rule.cost
    try:
        return dynamic_cost(node)
    except Exception as exc:
        attach_node_provenance(exc, node)
        raise


#: Plan kinds (see :meth:`Reducer._plan_for`).
_CHAIN, _BASE, _PATTERN = 0, 1, 2

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


def flatten_operands(operands: list[Any]) -> Any:
    """Pass-through value for rules without actions.

    A single operand passes through unchanged; several operands are
    flattened into one list so nested helper rules do not nest lists.
    """
    flat: list[Any] = []
    for operand in operands:
        if isinstance(operand, list):
            flat.extend(operand)
        else:
            flat.append(operand)
    if len(flat) == 1:
        return flat[0]
    return flat


def action_thunk(rule: Rule, templated: bool) -> tuple[Any, bool]:
    """``(thunk, spliced)``: *rule*'s semantic action as one callable.

    The thunk ``(context, node, operands) -> value`` mirrors
    :meth:`Reducer._run_action` branch order: action, then template
    (only for a *templated* context kind, one with ``emit_template``),
    then helper splice, then operand pass-through.  *spliced* is static
    — only helper rules produce splice-flat values — so a tape sweep
    needs no per-operand ``isinstance`` probe.  The thunk binds the
    rule, not the context, so it serves every context of its kind.
    """
    action = rule.action
    if action is not None:
        return action, False
    if rule.template is not None and templated:

        def template_thunk(ctx: Any, node: Node, operands: list, _rule=rule):
            return ctx.emit_template(_rule, node, operands)

        return template_thunk, False
    if rule.is_helper:

        def helper_thunk(ctx: Any, node: Node, operands: list) -> Any:
            return _SplicedOperands(operands)

        return helper_thunk, True

    def passthrough_thunk(ctx: Any, node: Node, operands: list) -> Any:
        return flatten_operands(operands)

    return passthrough_thunk, False


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
        self._memo: dict[tuple[int, int], Any] = {}
        #: Nonterminal name -> dense id, seeded in grammar-declaration
        #: order, the order the automaton's state pool declares them in,
        #: so the goal ids in its derivation fragments key a tape
        #: emitter's slot table like its own lookups.  Names outside
        #: the grammar are still interned on first use.
        self._nt_ids: dict[str, int] = {
            name: index
            for index, name in enumerate(labeling.grammar.nonterminals)
        }
        #: id(rule) -> compiled operand-collection plan.
        self._plans: dict[int, tuple] = {}
        #: The grammar's start nonterminal, resolved once (not per
        #: ``reduce_forest`` call).
        self._start_nt: str | None = labeling.grammar.start
        self.reductions = 0
        self.memo_hits = 0
        #: Roots fully reduced by the most recent *faulted*
        #: :meth:`reduce_forest` call (fault-isolation provenance).
        self.last_roots_completed = 0
        #: Cover cost of the forest the most recent :meth:`reduce_forest`
        #: emitted, summed by the emitting walk (:func:`entry_cost` per
        #: reduction).  ``None`` when a memo hit reached an entry an
        #: earlier forest made: the forest's reductions are then only
        #: part of its cover, and callers fall back to
        #: :func:`~repro.selection.cover.extract_cover`.
        self.last_cover_cost: int | None = None
        #: Keys of the memo's first ``len(_earlier)`` entries, brought up
        #: to date by :meth:`_earlier_keys` as each forest starts (the
        #: cross-forest hit test).
        self._earlier: set[tuple[int, int]] = set()

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
        if len(self._earlier) > size:
            self._earlier.clear()
        for key in list(islice(reversed(memo), excess)):
            del memo[key]
        self.reductions -= excess
        return excess

    # ------------------------------------------------------------------

    def _nt_id(self, nonterminal: str) -> int:
        """Dense id of *nonterminal*, interned on first use."""
        nt_ids = self._nt_ids
        nt_id = nt_ids.get(nonterminal)
        if nt_id is None:
            nt_id = nt_ids[nonterminal] = len(nt_ids)
        return nt_id

    def _plan_for(self, rule: Rule) -> tuple:
        """The rule's compiled operand-collection plan (cached by rule
        identity).

        * ``(_CHAIN, source_nt, source_nt_id)`` for chain rules;
        * ``(_BASE, op_name, arity, ((nt, nt_id), ...))`` for
          normal-form base rules — the arity-specialized fast path
          zips the precomputed pairs straight onto ``node.kids``;
        * ``(_PATTERN, pattern)`` for multi-node rules, which still
          need the (pattern-height-bounded) structural walk per node.
        """
        plan = self._plans.get(id(rule))
        if plan is None:
            pattern = rule.pattern
            if rule.is_chain:
                symbol = pattern.symbol
                plan = (_CHAIN, symbol, self._nt_id(symbol))
            elif rule.is_base:
                leaves = tuple((kid.symbol, self._nt_id(kid.symbol)) for kid in pattern.kids)
                plan = (_BASE, pattern.symbol, len(leaves), leaves)
            else:
                plan = (_PATTERN, pattern)
            self._plans[id(rule)] = plan
        return plan

    def _targets_for(self, rule: Rule, node: Node) -> list[tuple[Node, str, int]]:
        """The (node, nonterminal, nonterminal-id) reduction targets of
        applying *rule* at *node*, in left-to-right operand order."""
        plan = self._plan_for(rule)
        kind = plan[0]
        if kind == _BASE:
            _, op_name, arity, leaves = plan
            kids = node.kids
            if node.op.name != op_name or len(kids) != arity:
                require_structural_match(rule.pattern, node)
            if arity == 1:
                (nt0, id0), = leaves
                return [(kids[0], nt0, id0)]
            if arity == 2:
                (nt0, id0), (nt1, id1) = leaves
                return [(kids[0], nt0, id0), (kids[1], nt1, id1)]
            return [(kid, nt, nt_id) for kid, (nt, nt_id) in zip(kids, leaves)]
        if kind == _CHAIN:
            return [(node, plan[1], plan[2])]
        targets: list[tuple[Node, str, int]] = []
        self._pattern_targets(plan[1], node, targets)
        return targets

    def _pattern_targets(
        self, pattern, node: Node, targets: list[tuple[Node, str, int]]
    ) -> None:
        """Collect targets below a multi-node *pattern* matched at *node*.

        Recursion depth is bounded by the grammar's pattern height
        (small by construction), not by the IR tree.
        """
        require_structural_match(pattern, node)
        for kid_pattern, kid_node in zip(pattern.kids, node.kids):
            if kid_pattern.is_nonterminal:
                symbol = kid_pattern.symbol
                targets.append((kid_node, symbol, self._nt_id(symbol)))
            else:
                self._pattern_targets(kid_pattern, kid_node, targets)

    # ------------------------------------------------------------------

    def resolve_start(self, start: str | None = None) -> str:
        """The effective start nonterminal for a reduction.

        Returns *start* when given, else the grammar's start
        nonterminal; raises :class:`CoverError` when neither exists.
        Public so the ``select_many`` pipeline can resolve it once per
        engine, outside its per-forest fault handling.
        """
        start_nt = start if start is not None else self._start_nt
        if start_nt is None:
            raise CoverError("grammar has no start nonterminal")
        return start_nt

    def _earlier_keys(self, mark: int) -> set[tuple[int, int]]:
        """The keys of the memo's first *mark* entries — those made
        before the current forest — synced from the memo's tail."""
        earlier = self._earlier
        missing = mark - len(earlier)
        if missing > 0:
            memo = self._memo
            skip = len(memo) - mark
            earlier.update(islice(reversed(memo), skip, skip + missing))
        return earlier

    def reduce_forest(self, forest: Forest, start: str | None = None) -> list[Any]:
        """Reduce every root of *forest* from the start nonterminal.

        Also sets :attr:`last_cover_cost` to the forest's cover cost, or
        to ``None`` when the forest memo-hit an earlier forest's entry.
        """
        start_nt = self.resolve_start(start)
        mark = len(self._memo)
        earlier = self._earlier_keys(mark) if mark else None
        walk = self._walk
        values: list[Any] = []
        cost = 0
        contained = True
        self.last_cover_cost = None
        try:
            for root in forest.roots:
                value, root_cost, root_contained = walk(root, start_nt, earlier)
                values.append(value)
                cost += root_cost
                contained &= root_contained
        except Exception:
            # Fault provenance for isolating callers; free on the happy
            # path (zero-cost try on CPython 3.11+).
            self.last_roots_completed = len(values)
            raise
        self.last_cover_cost = cost if contained else None
        return values

    def reduce(self, node: Node, nonterminal: str) -> Any:
        """Reduce *node* from *nonterminal* and return its semantic value.

        Iterative: reductions of any depth (deep trees, long chain-rule
        sequences) run on an explicit frame stack.
        """
        return self._walk(node, nonterminal, None)[0]

    def _walk(
        self, node: Node, nonterminal: str, earlier: set[tuple[int, int]] | None
    ) -> tuple[Any, int, bool]:
        """Reduce *node* from *nonterminal*: ``(value, cost, contained)``.

        *cost* sums :func:`entry_cost` over the reductions this walk
        applied; *contained* is False when a memo hit reached a key in
        *earlier* (an entry made before the current forest).
        """
        memo = self._memo
        nid = node.nid
        key = (nid if nid >= 0 else ~id(node), self._nt_id(nonterminal))
        value = memo.get(key, _MISSING)
        if value is not _MISSING:
            self.memo_hits += 1
            return value, 0, earlier is None or key not in earlier

        require_rule = self.labeling.require_rule
        targets_for = self._targets_for
        run_action = self._run_action
        rule = require_rule(node, nonterminal)
        cost = 0
        contained = True
        # Frame layout: [key, node, rule, operands, targets, index].
        # The on-stack key set bounds corrupt labelings: a (node, nt)
        # pair whose reduction depends on itself (e.g. a chain-rule
        # cycle answered by a broken Labeling) is an error, not an
        # unbounded frame loop — the recursive engine failed fast with
        # RecursionError, the iterative one must fail fast too.
        on_stack: set[tuple[int, int]] = {key}
        frames: list[list] = [[key, node, rule, [], targets_for(rule, node), 0]]
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
                t_node, t_nt, t_nt_id = targets[index]
                t_nid = t_node.nid
                t_key = (t_nid if t_nid >= 0 else ~id(t_node), t_nt_id)
                value = memo.get(t_key, _MISSING)
                if value is _MISSING:
                    if t_key in on_stack:
                        raise CoverError(
                            f"cyclic derivation: reducing node "
                            f"{t_node.op.name} (nid={t_node.nid}) from "
                            f"nonterminal {t_nt!r} depends on itself"
                        )
                    frame[_F_INDEX] = index
                    t_rule = require_rule(t_node, t_nt)
                    on_stack.add(t_key)
                    frames.append(
                        [t_key, t_node, t_rule, [], targets_for(t_rule, t_node), 0]
                    )
                    descended = True
                    break
                self.memo_hits += 1
                if earlier is not None and t_key in earlier:
                    contained = False
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
                return value, cost, contained
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
        return flatten_operands(operands)
