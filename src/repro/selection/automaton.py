"""The on-demand tree-parsing automaton labeler (the paper's core).

Instead of recomputing a full cost vector on every node the way dynamic
programming does, the automaton labels each node with an interned
:class:`~repro.selection.states.State` found through a transition
table keyed by ``(operator, child states)``.  Tables are built *lazily*:
the first time an ``(operator, child-state-tuple)`` key is seen, the
state is constructed with exactly the dynamic-programming computation
(base-rule checks plus chain closure over **delta** costs) and memoized;
every later hit is a couple of dictionary lookups.  Repeated labeling
of recurring forest shapes therefore amortizes the construction work —
:class:`~repro.metrics.counters.LabelMetrics` separates the two kinds
of work (``rule_checks``/``chain_checks`` versus ``table_lookups``) so
the amortization claim is directly measurable.

The warm path is integer-indexed and **single-pass**.  At sync time the
automaton interns nonterminals to dense ids (shared with the state
pool) and operators to per-operator :class:`_OpTable` objects holding
arity-pre-filtered rule lists with pre-resolved child nonterminal ids.
Transitions live in per-operator tables with arity-specialized fast
paths — nullary operators cache a single state, unary and binary
operators are keyed by child-state ids with no tuple allocation, and
only arity ≥ 3 pays for a key tuple.  Labeling is one fused stack walk
per batch: children are discovered and the node transitioned the moment
its last child is labeled, with the per-node state map doubling as the
traversal's visited set — no separate topological pre-pass, no
intermediate order list.  That one walk serves every call.  Its warm
path touches no counter: each node costs exactly one table lookup, so
``nodes_labeled`` and ``table_lookups`` are read off the state map's
growth afterwards, and only the cold branches charge misses and
construction work (to the caller's metrics, or to a write-only sink).
A deadline costs one strided check per step.

Batches are first-class: :meth:`OnDemandAutomaton.label_many` labels a
sequence of forests with one sync check, one labeling object, and one
shared node-state map, so forests sharing nodes (a JIT's per-block
DAGs over common subexpressions) label each shared node exactly once
and small forests stop paying per-call setup.

The automaton requires a normal-form grammar: every base rule rooted at
an operator consumes each child exactly once, so the per-child
normalisation deltas shift all candidate costs by the same constant and
the locally-cheapest rule choice stays globally optimal.  Grammars with
multi-node patterns are normalized transparently on construction.

Dynamic costs and constraints are handled through a per-node *dynamic
signature*: the node-evaluated costs of the dynamic rules relevant to
its operator become part of the transition key, so constrained rules
split an operator's transitions into the few variants the constraint
outcomes induce (the paper's restricted-dynamic-cost argument) while
fully general dynamic costs degrade gracefully to per-outcome entries.
Operators with *no* dynamic rules take the integer-keyed tables even
in a dynamic grammar, and only nodes of operators with dynamic rules
leave the walk's fast branches for the signature path — unless the
grammar has a dynamic chain rule, which makes every node's transition
node-dependent and sends every operator there.  Dynamic callables
only run where the DP labeler would run them: rules from multi-node
patterns require a structural match of the original pattern, and
dynamic chain rules require their source nonterminal to be derivable
at the node (a memoized derivability set keeps this off the warm
path).

The grammar may be extended while the automaton is live (the JIT
flexibility argument): a grammar version bump invalidates the state
pool and transition tables, which are then rebuilt on demand — or
re-precomputed with :meth:`OnDemandAutomaton.build_eager`, the offline
mode that drives state construction over every reachable ``(operator,
child states)`` combination to a fixed point at build time, trading
table size for zero cold cost at labeling time.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterable

from repro.grammar.closure import chain_closure
from repro.grammar.costs import INFINITE, add_costs, is_finite
from repro.grammar.grammar import Grammar
from repro.grammar.normalize import normalize
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.metrics.counters import LabelMetrics
from repro.obs.trace import Timer
from repro.selection.cover import Labeling
from repro.selection.label_dp import dynamic_cost_at
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)
from repro.selection.states import State, StatePool

__all__ = ["AutomatonLabeling", "OnDemandAutomaton"]

#: Dynamic-signature slot for a chain rule whose source nonterminal was not
#: derivable at the node, so its cost callable was (correctly) never run.
#: ``None`` cannot collide with any integer a cost callable may return.
UNEVALUATED = None

#: Sink for the walk's cold-path counters when the caller passes no
#: metrics: written, never read.  One shared instance means an
#: unmetered call allocates nothing for it.
_NULL_METRICS = LabelMetrics()

#: One rule entry of an :class:`_OpTable`: the rule, its left-hand side,
#: its static cost, and the dense nonterminal ids of its pattern's kids.
_RuleEntry = tuple[Rule, str, int, tuple[int, ...]]


class _OpTable:
    """All per-operator structures, interned once per grammar sync.

    Transitions are arity-specialized: ``nullary`` caches the single
    leaf state, ``unary``/``binary`` are nested dicts keyed by child
    state ids (no key tuples on the warm path), ``nary`` covers arity
    ≥ 3, and ``dyn`` holds the ``(child ids, dynamic signature)``
    entries used by operators that do have dynamic rules (or by every
    operator when the grammar has dynamic chain rules).
    """

    __slots__ = (
        "op_id",
        "rules_by_arity",
        "dyn_rules",
        "nullary",
        "unary",
        "binary",
        "nary",
        "dyn",
        "derivable",
    )

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.rules_by_arity: dict[int, tuple[_RuleEntry, ...]] = {}
        self.dyn_rules: tuple[Rule, ...] = ()
        self.nullary: State | None = None
        self.unary: dict[int, State] = {}
        self.binary: dict[int, dict[int, State]] = {}
        self.nary: dict[tuple[int, ...], State] = {}
        self.dyn: dict[tuple[tuple[int, ...], tuple["int | None", ...]], State] = {}
        self.derivable: dict[
            tuple[tuple[int, ...], tuple[int, ...]],
            tuple[frozenset[str], dict[str, int], dict[str, Rule]],
        ] = {}

    def transition_count(self) -> int:
        """Number of memoized transitions in this operator's tables."""
        total = len(self.unary) + len(self.nary) + len(self.dyn)
        total += sum(len(row) for row in self.binary.values())
        if self.nullary is not None:
            total += 1
        return total


class AutomatonLabeling(Labeling):
    """A forest labeling that stores one interned state per node.

    Costs returned by :meth:`cost_of` are state-relative *delta* costs;
    rule choices are nevertheless globally optimal (see module docs).
    One labeling may span several forests (see
    :meth:`OnDemandAutomaton.label_many`): it answers queries for every
    node of every forest labeled into it.
    """

    def __init__(self, automaton: "OnDemandAutomaton") -> None:
        super().__init__(automaton.grammar)
        self.automaton = automaton
        self._states: dict[int, State] = {}

    @property
    def nodes_labeled(self) -> int:
        """Distinct nodes this labeling holds a state for."""
        return len(self._states)

    def state_of(self, node: Node) -> State | None:
        """The interned state labeling *node* (None when unlabeled)."""
        return self._states.get(id(node))

    def rule_for(self, node: Node, nonterminal: str) -> Rule | None:
        state = self._states.get(id(node))
        return None if state is None else state.rule_for(nonterminal)

    def cost_of(self, node: Node, nonterminal: str) -> int:
        state = self._states.get(id(node))
        return INFINITE if state is None else state.cost_of(nonterminal)


class OnDemandAutomaton:
    """A tree-parsing automaton whose tables grow on demand.

    The automaton is meant to be long-lived: construct it once per
    grammar and call :meth:`label` (or :meth:`label_many` for batches)
    for every forest.  State pool and transition tables persist across
    calls, so recurring forest shapes are labeled by table lookups
    alone.  :meth:`build_eager` switches to the offline mode of the
    trade-off: all reachable transitions are precomputed at build time
    and labeling never constructs a state again.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.source_grammar = grammar
        self._source_version: int | None = None
        self.grammar: Grammar = grammar
        self.pool = StatePool()
        self._op_ids: dict[str, int] = {}
        self._tables: dict[str, _OpTable] = {}
        #: The tables of operators without dynamic rules — the walk's
        #: lookup dict: a dynamic operator misses it and takes the
        #: signature path (see :meth:`_walk`).
        self._static_tables: dict[str, _OpTable] = {}
        self._dyn_chain: list[Rule] = []
        self._empty_chain_signature: tuple[None, ...] = ()
        self._static_reach_cache: dict[str, frozenset[str]] = {}
        self._eager: dict[str, object] | None = None
        self._sync()

    # ------------------------------------------------------------------
    # Grammar synchronisation

    def _sync(self) -> None:
        """(Re)build derived structures when the source grammar changed."""
        if self._source_version == self.source_grammar.version:
            return
        source = self.source_grammar
        self.grammar = source if source.is_normal_form else normalize(source).grammar
        self._source_version = source.version
        self.pool = StatePool(self.grammar.nonterminals)
        self._op_ids = self.grammar.operator_ids()
        self._tables = {name: self._build_table(name, op_id) for name, op_id in self._op_ids.items()}
        self._dyn_chain = [rule for rule in self.grammar.chain_rules() if rule.is_dynamic]
        # A dynamic chain rule makes every transition node-dependent.
        self._static_tables = (
            {}
            if self._dyn_chain
            else {name: table for name, table in self._tables.items() if not table.dyn_rules}
        )
        self._empty_chain_signature = (UNEVALUATED,) * len(self._dyn_chain)
        self._static_reach_cache = {}
        self._eager = None  # precomputed tables died with the old pool

    def _build_table(self, op_name: str, op_id: int) -> _OpTable:
        """Intern one operator: pre-filter its rules by arity, resolve
        its patterns' child nonterminals to dense ids."""
        table = _OpTable(op_id)
        by_arity: dict[int, list[_RuleEntry]] = {}
        for rule in self.grammar.rules_for_op(op_name):
            kid_ids = tuple(self.pool.declare(kid.symbol) for kid in rule.pattern.kids)
            by_arity.setdefault(len(kid_ids), []).append((rule, rule.lhs, rule.cost, kid_ids))
        table.rules_by_arity = {arity: tuple(entries) for arity, entries in by_arity.items()}
        table.dyn_rules = tuple(
            rule for rule in self.grammar.rules_for_op(op_name) if rule.is_dynamic
        )
        return table

    def _table_for(self, op_name: str) -> _OpTable:
        """The operator's table; foreign-dialect operators the grammar
        never mentions get an empty table (error states) on demand."""
        table = self._tables.get(op_name)
        if table is None:
            op_id = self._op_ids.setdefault(op_name, len(self._op_ids))
            table = self._build_table(op_name, op_id)
            self._tables[op_name] = table
            # No rules, so no dynamic rules: static unless the grammar
            # has dynamic chain rules.
            if not self._dyn_chain:
                self._static_tables[op_name] = table
        return table

    def _static_chain_reach(self, nonterminal: str) -> frozenset[str]:
        """Nonterminals derivable from *nonterminal* via static chain rules."""
        reach = self._static_reach_cache.get(nonterminal)
        if reach is None:
            seen = {nonterminal}
            stack = [nonterminal]
            while stack:
                for rule in self.grammar.chain_rules_from(stack.pop()):
                    if not rule.is_dynamic and rule.lhs not in seen:
                        seen.add(rule.lhs)
                        stack.append(rule.lhs)
            reach = frozenset(seen)
            self._static_reach_cache[nonterminal] = reach
        return reach

    # ------------------------------------------------------------------
    # Labeling

    def label(
        self,
        forest: Forest,
        metrics: LabelMetrics | None = None,
        *,
        deadline_at_ns: int | None = None,
    ) -> AutomatonLabeling:
        """Label *forest* bottom-up by transition-table lookups.

        A one-forest :meth:`label_many`.  Metrics are opt-in: with
        ``metrics=None`` the walk is not timed and its few cold-path
        counters go to a write-only sink.  *deadline_at_ns* arms
        cooperative cancellation: the walk checks the absolute monotonic
        deadline every
        :data:`~repro.selection.resilience.DEADLINE_CHECK_EVERY` steps
        and raises :class:`~repro.errors.DeadlineExceededError`.
        """
        return self.label_many([forest], metrics, deadline_at_ns=deadline_at_ns)

    def label_many(
        self,
        forests: Iterable[Forest],
        metrics: LabelMetrics | None = None,
        *,
        deadline_at_ns: int | None = None,
    ) -> AutomatonLabeling:
        """Label a batch of forests in one fused pass.

        The sync check, labeling-object allocation, and metrics wiring
        are paid once for the whole batch, and all forests share one
        node-state map: a node appearing in several forests (DAGs over
        common subexpressions) is labeled exactly once.  Returns a
        single :class:`AutomatonLabeling` valid for every forest in the
        batch — hand it to ``extract_cover(labeling, forest)`` per
        forest.  A grammar extension is picked up at the *next*
        ``label``/``label_many`` call, exactly as for single forests.

        Every node costs one table lookup, so with *metrics* given the
        walk is timed and ``nodes_labeled`` and ``table_lookups`` both
        grow by the number of nodes it labeled — a walk that faults
        still counts the nodes it labeled before the fault.
        """
        self._sync()
        labeling = AutomatonLabeling(self)
        roots = [root for forest in forests for root in forest.roots]
        node_states = labeling._states
        if metrics is None:
            self._walk(roots, node_states, _NULL_METRICS, deadline_at_ns)
            return labeling
        started = time.perf_counter()
        try:
            self._walk(roots, node_states, metrics, deadline_at_ns)
        finally:
            metrics.seconds += time.perf_counter() - started
            metrics.nodes_labeled += len(node_states)
            metrics.table_lookups += len(node_states)
        return labeling

    def _walk(
        self,
        roots: list[Node],
        node_states: dict[int, State],
        metrics: LabelMetrics,
        deadline_at_ns: int | None,
    ) -> None:
        """The labeling walk: one fused stack walk, one operator-table
        lookup plus one int-keyed get per child.  The state map is the
        visited set: a node is expanded at most once and transitioned
        the moment its last child has a state.

        Lookups go through the tables of operators without dynamic
        rules (all of them, on a static grammar; none, when the grammar
        has dynamic chain rules), so a node whose operator misses them
        takes :meth:`_dynamic_state`.  Only the cold branches touch
        *metrics* (misses and construction work); the deadline is one
        strided check per popped node.
        """
        tables = self._static_tables
        stack = list(roots)
        pop = stack.pop
        push = stack.append
        get_state = node_states.get
        ticks = 0
        while stack:
            if deadline_at_ns is not None:
                ticks += 1
                if ticks >= DEADLINE_CHECK_EVERY:
                    ticks = 0
                    check_deadline(deadline_at_ns, "label")
            node = pop()
            nid = id(node)
            if nid in node_states:
                continue
            kids = node.kids
            arity = len(kids)
            if arity == 2:
                k0, k1 = kids
                s0 = get_state(id(k0))
                s1 = get_state(id(k1))
                if s0 is None or s1 is None:
                    push(node)
                    if s1 is None:
                        push(k1)
                    if s0 is None:
                        push(k0)
                    continue
                op_name = node.op.name
                table = tables.get(op_name)
                if table is None:
                    table = self._table_for(op_name)
                    if op_name not in tables:
                        node_states[nid] = self._dynamic_state(table, node, node_states, metrics)
                        continue
                row = table.binary.get(s0.index)
                if row is None:
                    row = table.binary[s0.index] = {}
                state = row.get(s1.index)
                if state is None:
                    metrics.table_misses += 1
                    state = self._construct_state(table, 2, (s0, s1), None, metrics)
                    row[s1.index] = state
            elif arity == 0:
                op_name = node.op.name
                table = tables.get(op_name)
                if table is None:
                    table = self._table_for(op_name)
                    if op_name not in tables:
                        node_states[nid] = self._dynamic_state(table, node, node_states, metrics)
                        continue
                state = table.nullary
                if state is None:
                    metrics.table_misses += 1
                    state = self._construct_state(table, 0, (), None, metrics)
                    table.nullary = state
            elif arity == 1:
                k0 = kids[0]
                s0 = get_state(id(k0))
                if s0 is None:
                    push(node)
                    push(k0)
                    continue
                op_name = node.op.name
                table = tables.get(op_name)
                if table is None:
                    table = self._table_for(op_name)
                    if op_name not in tables:
                        node_states[nid] = self._dynamic_state(table, node, node_states, metrics)
                        continue
                state = table.unary.get(s0.index)
                if state is None:
                    metrics.table_misses += 1
                    state = self._construct_state(table, 1, (s0,), None, metrics)
                    table.unary[s0.index] = state
            else:
                deferred = False
                for kid in kids:
                    if id(kid) not in node_states:
                        if not deferred:
                            push(node)
                            deferred = True
                        push(kid)
                if deferred:
                    continue
                op_name = node.op.name
                table = tables.get(op_name)
                if table is None:
                    table = self._table_for(op_name)
                    if op_name not in tables:
                        node_states[nid] = self._dynamic_state(table, node, node_states, metrics)
                        continue
                kid_states = tuple(node_states[id(kid)] for kid in kids)
                key = tuple(state.index for state in kid_states)
                state = table.nary.get(key)
                if state is None:
                    metrics.table_misses += 1
                    state = self._construct_state(table, arity, kid_states, None, metrics)
                    table.nary[key] = state
            node_states[nid] = state

    # ------------------------------------------------------------------
    # Dynamic-signature path

    def _dynamic_state(
        self,
        table: _OpTable,
        node: Node,
        node_states: dict[int, State],
        metrics: LabelMetrics,
    ) -> State:
        """*node*'s state through the dynamic-signature path."""
        kid_states = tuple(node_states[id(kid)] for kid in node.kids)
        # Zero-cost on the happy path (3.11+): a raising dynamic
        # cost/constraint callable gets the faulting IR node attached
        # for SelectionFailure provenance.
        try:
            return self._transition(table, node, kid_states, metrics)
        except Exception as exc:
            attach_node_provenance(exc, node)
            raise

    def _transition(
        self, table: _OpTable, node: Node, kid_states: tuple[State, ...], metrics: LabelMetrics
    ) -> State:
        dyn_base = table.dyn_rules
        if dyn_base:
            dyn_costs: dict[int, int] | None = {}
            for rule in dyn_base:
                dyn_costs[rule.number] = dynamic_cost_at(rule, node, metrics)
            dyn_signature = tuple(dyn_costs[rule.number] for rule in dyn_base)
        else:
            dyn_costs = None
            dyn_signature = ()
        kid_ids = tuple(state.index for state in kid_states)
        base_pair = None
        if self._dyn_chain:
            derivable, base_costs, base_rules = self._initial_derivable(
                table, kid_ids, kid_states, dyn_costs, dyn_signature, metrics
            )
            dyn_costs, chain_signature = self._evaluate_dynamic_chains(
                node, derivable, dyn_costs, metrics
            )
            dyn_signature = dyn_signature + chain_signature
            base_pair = (base_costs, base_rules)
        key = (kid_ids, dyn_signature)
        state = table.dyn.get(key)
        if state is None:
            metrics.table_misses += 1
            state = self._construct_state(
                table, len(kid_states), kid_states, dyn_costs, metrics, base_pair
            )
            table.dyn[key] = state
        return state

    def _evaluate_dynamic_chains(
        self,
        node: Node,
        initial_derivable: frozenset[str],
        dyn_costs: dict[int, int] | None,
        metrics: LabelMetrics,
    ) -> tuple[dict[int, int] | None, tuple["int | None", ...]]:
        """Evaluate dynamic chain-rule costs, only where they can apply.

        A dynamic chain rule's callable runs only when its source
        nonterminal is derivable at the node — the same guard the DP
        labeler gets from ``chain_closure``'s finite-source check — and
        the outcome joins the transition key.  Unreached rules get the
        :data:`UNEVALUATED` sentinel; derivability grows to a fixed
        point as finite outcomes unlock further chain rules.
        """
        derivable = set(initial_derivable)
        evaluated: dict[int, int] = {}
        progress = True
        while progress:
            progress = False
            for rule in self._dyn_chain:
                if rule.number in evaluated or rule.pattern.symbol not in derivable:
                    continue
                metrics.dynamic_evals += 1
                cost = rule.cost_at(node)
                evaluated[rule.number] = cost
                if is_finite(cost):
                    derivable |= self._static_chain_reach(rule.lhs)
                    progress = True
        if not evaluated:
            # Nothing ran: keep the caller's dict (warm path, no copy).
            return dyn_costs, self._empty_chain_signature
        merged = dict(dyn_costs) if dyn_costs else {}
        merged.update(evaluated)
        signature = tuple(evaluated.get(rule.number, UNEVALUATED) for rule in self._dyn_chain)
        return merged, signature

    def _initial_derivable(
        self,
        table: _OpTable,
        kid_ids: tuple[int, ...],
        kid_states: tuple[State, ...],
        dyn_costs: dict[int, int] | None,
        base_signature: tuple[int, ...],
        metrics: LabelMetrics,
    ) -> tuple[frozenset[str], dict[str, int], dict[str, Rule]]:
        """Nonterminals derivable at a node before dynamic chain rules.

        Depends only on the transition key's static part, so the result
        — including the base (costs, rules) pair, which a subsequent
        state construction reuses instead of recomputing — is memoized
        alongside the transition tables.  The cached dicts must not be
        mutated by callers.
        """
        key = (kid_ids, base_signature)
        entry = table.derivable.get(key)
        if entry is None:
            costs, rules = self._base_costs(table, len(kid_states), kid_states, dyn_costs, metrics)
            closed: set[str] = set()
            for nonterminal in costs:
                closed |= self._static_chain_reach(nonterminal)
            entry = (frozenset(closed), costs, rules)
            table.derivable[key] = entry
        return entry

    # ------------------------------------------------------------------
    # State construction (the cold path)

    def _base_costs(
        self,
        table: _OpTable,
        arity: int,
        kid_states: tuple[State, ...],
        dyn_costs: dict[int, int] | None,
        metrics: LabelMetrics | None = None,
    ) -> tuple[dict[str, int], dict[str, Rule]]:
        """Best base-rule costs/rules at a transition, before chain closure.

        Walks the operator's arity-pre-filtered rule entries, summing
        child costs through the pre-resolved nonterminal ids.  Shared by
        state construction and the derivability guard so the two can
        never disagree about which base rules apply.
        """
        costs: dict[str, int] = {}
        rules: dict[str, Rule] = {}
        entries = table.rules_by_arity.get(arity, ())
        if metrics is not None:
            metrics.rule_checks += len(entries)
        for rule, lhs, static_cost, kid_ids in entries:
            if dyn_costs is None:
                total = static_cost
            else:
                total = dyn_costs.get(rule.number, static_cost)
            for nt_id, kid_state in zip(kid_ids, kid_states):
                total = add_costs(total, kid_state.cost_at(nt_id))
                if total >= INFINITE:
                    break
            if total < costs.get(lhs, INFINITE):
                costs[lhs] = total
                rules[lhs] = rule
        return costs, rules

    def _construct_state(
        self,
        table: _OpTable,
        arity: int,
        kid_states: tuple[State, ...],
        dyn_costs: dict[int, int] | None,
        metrics: LabelMetrics,
        base_pair: tuple[dict[str, int], dict[str, Rule]] | None = None,
    ) -> State:
        """The dynamic-programming step, run once per novel transition key."""
        if base_pair is None:
            costs, rules = self._base_costs(table, arity, kid_states, dyn_costs, metrics)
        else:
            # The derivability guard already computed (and counted) the
            # base pair for this key; copy before chain closure mutates.
            costs, rules = dict(base_pair[0]), dict(base_pair[1])

        if dyn_costs is None:
            chain_cost = None
        else:
            captured = dyn_costs

            def chain_cost(rule: Rule) -> int:
                return captured.get(rule.number, rule.cost)

        metrics.chain_checks += chain_closure(self.grammar, costs, rules, chain_cost)
        state, created = self.pool.intern(costs, rules)
        if created:
            metrics.states_created += 1
        return state

    # ------------------------------------------------------------------
    # Offline (eager) construction

    def build_eager(
        self, max_states: int | None = None, deadline_ns: int | None = None
    ) -> dict[str, object]:
        """Precompute every reachable transition at build time.

        This is the offline end of the paper's trade-off: state
        construction is driven over all ``(operator, child-state)``
        combinations of the interned state set, repeatedly, until a
        fixed point — afterwards labeling any forest over the grammar's
        operators performs pure table lookups (zero ``table_misses``),
        at the price of tables covering combinations a given workload
        may never present.  Since the children of distinct subtrees are
        independent, every combination of reachable states is reachable,
        so the fixed point is exactly the reachable table.

        Dynamic rules restrict what can be enumerated:

        * constraint rules have two possible signature outcomes (the
          static cost, or :data:`~repro.grammar.costs.INFINITE`), so
          their operators are enumerated over all outcome combinations
          — the restricted-dynamic-cost argument;
        * operators with fully general dynamic-cost rules, and grammars
          with dynamic *chain* rules (which make every transition
          node-dependent), cannot be precomputed and are left on demand
          — they are reported in the returned stats under ``skipped``.

        *max_states* caps the state pool as a runaway guard: when
        construction interns more states, the build stops and reports
        ``capped: True`` (the tables stay valid, just incomplete).
        *deadline_ns* is the wall-clock analogue: a build still running
        that many nanoseconds after it started stops between operator
        tables and reports ``deadline_exceeded: True``.  Both limits
        leave the partial tables warm and usable on demand — a budgeted
        :meth:`Selector.compile` turns either flag into a demotion to
        on-demand mode.  Returns the build stats dict, also available
        afterwards under ``stats()["eager"]``.
        """
        self._sync()
        states_before = len(self.pool)
        transitions_before = self.transition_count()
        metrics = LabelMetrics()
        skipped: list[str] = []
        if self._dyn_chain:
            # Every transition key embeds node-evaluated chain outcomes.
            skipped = sorted(self._tables)
        else:
            for name, table in self._tables.items():
                if any(rule.constraint is None for rule in table.dyn_rules):
                    skipped.append(name)
            skipped.sort()
        capped = False
        deadline_exceeded = False
        rounds = 0
        start_ns = time.monotonic_ns()
        # The deadline is enforced *inside* _eager_fill's construction
        # loops, not only at per-operator boundaries — one operator's
        # closure can be arbitrarily large, so a boundary-only check
        # would overshoot the budget by an entire operator table.
        deadline_at = None if deadline_ns is None else start_ns + deadline_ns
        with Timer() as timer:
            if not self._dyn_chain:
                while True:
                    rounds += 1
                    snapshot = list(self.pool.states)
                    grew = self.transition_count()
                    for name, table in list(self._tables.items()):
                        if name in skipped:
                            continue
                        for arity in table.rules_by_arity:
                            if self._eager_fill(table, arity, snapshot, metrics, deadline_at):
                                deadline_exceeded = True
                                break
                        if max_states is not None and len(self.pool) > max_states:
                            capped = True
                            break
                        if deadline_exceeded or (
                            deadline_at is not None and time.monotonic_ns() > deadline_at
                        ):
                            deadline_exceeded = True
                            break
                    if capped or deadline_exceeded:
                        break
                    if len(self.pool) == len(snapshot) and self.transition_count() == grew:
                        break
        self._eager = {
            "rounds": rounds,
            "states_before": states_before,
            "states": len(self.pool),
            "transitions_before": transitions_before,
            "transitions": self.transition_count(),
            "states_created": metrics.states_created,
            "rule_checks": metrics.rule_checks,
            "chain_checks": metrics.chain_checks,
            "build_seconds": timer.elapsed,
            "skipped": skipped,
            "capped": capped,
            "deadline_exceeded": deadline_exceeded,
        }
        return self._eager

    def _eager_fill(
        self,
        table: _OpTable,
        arity: int,
        states: list[State],
        metrics: LabelMetrics,
        deadline_at: int | None = None,
    ) -> bool:
        """Construct every missing transition of one (operator, arity)
        slot over the given state snapshot.

        *deadline_at* (absolute monotonic ns) is checked before each
        state construction — the expensive step — so the build stops
        within one construction of the deadline even when a single
        operator's closure dominates the whole fixed point.  Returns
        ``True`` when the deadline fired mid-fill (the tables keep
        whatever was constructed; they stay valid, just incomplete).
        """
        over = (
            (lambda: False)
            if deadline_at is None
            else (lambda: time.monotonic_ns() > deadline_at)
        )
        if table.dyn_rules:
            # Constraint-only operator: enumerate the finite signature
            # space alongside the child-state combinations, mirroring
            # the keys _transition builds from node-evaluated outcomes.
            dyn_rules = table.dyn_rules
            outcome_space = [(rule.cost, INFINITE) for rule in dyn_rules]
            dyn = table.dyn
            for kid_states in itertools.product(states, repeat=arity):
                kid_ids = tuple(state.index for state in kid_states)
                for signature in itertools.product(*outcome_space):
                    key = (kid_ids, signature)
                    if key in dyn:
                        continue
                    if over():
                        return True
                    dyn_costs = {
                        rule.number: cost for rule, cost in zip(dyn_rules, signature)
                    }
                    dyn[key] = self._construct_state(
                        table, arity, kid_states, dyn_costs, metrics
                    )
            return False
        if arity == 0:
            if table.nullary is None:
                table.nullary = self._construct_state(table, 0, (), None, metrics)
        elif arity == 1:
            unary = table.unary
            for s0 in states:
                if s0.index not in unary:
                    if over():
                        return True
                    unary[s0.index] = self._construct_state(table, 1, (s0,), None, metrics)
        elif arity == 2:
            binary = table.binary
            for s0 in states:
                row = binary.get(s0.index)
                if row is None:
                    row = binary[s0.index] = {}
                for s1 in states:
                    if s1.index not in row:
                        if over():
                            return True
                        row[s1.index] = self._construct_state(table, 2, (s0, s1), None, metrics)
        else:
            nary = table.nary
            for kid_states in itertools.product(states, repeat=arity):
                key = tuple(state.index for state in kid_states)
                if key not in nary:
                    if over():
                        return True
                    nary[key] = self._construct_state(table, arity, kid_states, None, metrics)
        return False

    # ------------------------------------------------------------------
    # Introspection

    @property
    def states(self) -> list[State]:
        return self.pool.states

    def transition_count(self) -> int:
        """Total memoized transitions across all per-operator tables."""
        return sum(table.transition_count() for table in self._tables.values())

    def stats(self) -> dict[str, object]:
        """Automaton size row (states interned, transitions memoized).

        After :meth:`build_eager`, an ``eager`` entry reports the
        offline build: table growth (states/transitions before and
        after), construction work, build seconds, skipped operators,
        and whether the *max_states* cap fired.
        """
        row: dict[str, object] = {
            "grammar": self.grammar.name,
            "states": len(self.pool),
            "transitions": self.transition_count(),
        }
        if self._eager is not None:
            row["eager"] = dict(self._eager)
        return row

    def __repr__(self) -> str:
        return (
            f"OnDemandAutomaton({self.grammar.name!r}, states={len(self.pool)}, "
            f"transitions={self.transition_count()})"
        )

