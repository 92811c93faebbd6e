"""The on-demand tree-parsing automaton labeler (the paper's core).

Instead of recomputing a full cost vector on every node the way dynamic
programming does, the automaton labels each node with an interned
:class:`~repro.selection.states.State` found through a transition
table keyed by the operator and its child states.  Tables are built
*lazily*: the first time a key is seen, the state is constructed and
filed; every later hit is a few list and dictionary reads.  The key is
*projected* (the index maps of Chase, "An improvement to bottom-up tree
pattern matching", POPL 1987, and Proebsting, "BURS automata
generation", TOPLAS 1995): a constructed state reads each child state
only at the nonterminals the operator's rules use at that operand
position, so each child is projected onto those costs, renormalized,
and interned to a small id per position (:class:`_Projection`).  The
tuple of projected ids is the only transition key: many child-state
tuples share one entry, and a state is constructed, with exactly the
dynamic-programming computation (base-rule checks plus chain closure
over **delta** costs), once per new projected key.  Repeated labeling
of recurring forest shapes therefore amortizes the construction work —
:class:`~repro.metrics.counters.LabelMetrics` separates the two kinds
of work (``rule_checks``/``chain_checks`` versus ``table_lookups``) so
the amortization claim is directly measurable.

The warm path is integer-indexed and **single-pass**.  At sync time the
automaton interns nonterminals to dense ids (shared with the state
pool) and operators to per-operator :class:`_OpTable` objects holding
arity-pre-filtered rule lists with pre-resolved child nonterminal ids.
A static leaf's state is one attribute read, and a unary or binary
node reads one index map per child and the slot's table with no key
tuple.  Labeling is one fused stack walk per batch: children are
discovered and the node transitioned the moment its last child is
labeled, with the per-node state map doubling as the traversal's
visited set.  That one walk serves every call.  Its warm path touches
no counter: each node costs exactly one table lookup, so
``nodes_labeled`` and ``table_lookups`` are read off the state map's
growth afterwards, and only the cold path charges misses (one per
entry filed) and construction work (to the caller's metrics, or to a
write-only sink).  A deadline costs one strided check per visit.  A
warm leaf is not visited: the first visit to its parent labels it in
place.

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

Dynamic costs and constraints make each outcome one more component of
the transition key (the paper's restricted dynamic costs).  The table
of an operator with dynamic rules holds a row (:class:`_DynRow`) per
projected key instead of a state: the *candidates*, the dynamic rules
whose normalized pattern the child states can still derive (every
operand nonterminal has a finite cost at its child), and the states
keyed by the candidates' outcomes.  Per node the walk evaluates the
candidates' callables and does one more get.  Constraint rules split
an operator's transitions into the few variants their outcomes induce,
fully general dynamic costs degrade gracefully to per-outcome entries,
and a key that leaves no candidate has exactly one state.  Operators
with *no* dynamic rules hold states even in a dynamic grammar — unless
the grammar has a dynamic chain rule, which makes every node's
transition node-dependent and gives every operator rows: the
candidates' outcomes are then the key's base half, and the chain half
holds the outcomes of the dynamic chain rules whose source nonterminal
is derivable at the node (memoized per base half).  Dynamic callables
run exactly where the DP labeler runs them: a rule's once every operand
of its pattern is derivable — for a multi-node pattern a finite helper
nonterminal proves the rest of the original pattern matches, so no
pattern is re-matched — and a chain rule's once its source is.

The emission side of a state is built on demand too.  A state fixes the
rule deriving each of its nonterminals, so an automaton cover is a pure
function of the per-node states: :meth:`OnDemandAutomaton.fragment`
builds, once per ``(state, goal nonterminal)`` pair and context kind,
the *derivation fragment* the tape compiler lays out per entry — the
rule, its action thunk and operand count, its fixed cost, and the chain
source or base-rule child goals (see :mod:`repro.selection.tape`).
The table stays small: the bench pools derive 35–39 distinct pairs.

The grammar may be extended while the automaton is live (the JIT
flexibility argument): a grammar version bump invalidates the state
pool, transition tables and fragments, which are then rebuilt on demand
— or re-precomputed with :meth:`OnDemandAutomaton.build_eager`, the
offline mode that files every reachable projected key to a fixed point
at build time, trading table size for zero cold cost at labeling time.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Iterable

from repro.errors import CoverError
from repro.grammar.closure import chain_closure
from repro.grammar.costs import INFINITE, is_finite
from repro.grammar.grammar import Grammar
from repro.grammar.normalize import normalize
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.metrics.counters import LabelMetrics
from repro.selection.cover import Labeling
from repro.selection.reducer import _SplicedOperands, pass_through
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)
from repro.selection.states import State, StatePool

__all__ = ["AutomatonLabeling", "OnDemandAutomaton"]

#: Chain-half outcome of a dynamic chain rule whose source nonterminal was
#: not derivable at the node, so its cost callable was (correctly) never
#: run.  ``None`` cannot collide with any integer a cost callable may return.
UNEVALUATED = None

#: Sink for the walk's cold-path counters when the caller passes no
#: metrics: written, never read.  One shared instance means an
#: unmetered call allocates nothing for it.
_NULL_METRICS = LabelMetrics()

#: One rule entry of an :class:`_OpTable`: the rule, its left-hand side,
#: its static cost, and the dense nonterminal ids of its pattern's kids.
_RuleEntry = tuple[Rule, str, int, tuple[int, ...]]


class _DynRow(dict):
    """One entry of a dynamic table: the candidate rules its child
    states leave open; the row itself maps their outcomes to the state.

    ``candidates`` are the operator's dynamic rules the child states can
    still derive, and ``evals`` their bound ``cost_at`` methods, which
    the walk calls per node.  A key is the tuple of their outcomes
    (followed, under dynamic chain rules, by the chain outcomes); no
    candidates means the one key ``()``.  ``kids`` are the projected
    child cost lists a construction at the row reads.  Under dynamic
    chain rules ``derivable`` memoizes, per candidate outcome tuple, the
    nonterminals derivable before the chain rules and the base (costs,
    rules) pair — the cached dicts must not be mutated.
    """

    __slots__ = ("candidates", "evals", "kids", "derivable")

    def __init__(
        self,
        candidates: tuple[Rule, ...],
        evals: tuple[Callable[[Node], int], ...],
        kids: tuple[list[int], ...],
    ) -> None:
        super().__init__()
        self.candidates = candidates
        self.evals = evals
        self.kids = kids
        self.derivable: dict[tuple, tuple[frozenset[str], dict[str, int], dict[str, Rule]]] = {}


class _Projection:
    """The transition table of one (operator, arity) slot, keyed by
    projected child states (the index maps of Chase, POPL 1987, and
    Proebsting, TOPLAS 1995).

    ``used[position]`` holds the sorted nonterminal ids the slot's rules
    (dynamic ones included) use at that operand position.  A state
    constructed at the slot reads a child state only there, and every
    rule consumes each child exactly once, so a constant added to a
    child's costs there leaves the constructed state unchanged: the
    slot's transitions are a function of the child's costs at ``used``,
    renormalized to a finite minimum of 0, interned to a projected id.

    Costs add exactly, so the shift lowers every rule total and closure
    cost of a construction alike: the projected key builds the state
    the full key builds.

    ``ids[position]`` is the index map from state index to projected id
    (``None`` until first projected), and ``vectors[position][projected
    id]`` the cost list construction reads.  ``table`` holds the
    transitions — a static operator's states, a dynamic operator's
    :class:`_DynRow` rows — keyed by the projected ids one dict level
    per position (so the walk builds no key tuple), or by ``()`` at
    arity 0.
    """

    __slots__ = ("used", "ids", "interned", "vectors", "table")

    def __init__(self, used: tuple[tuple[int, ...], ...]) -> None:
        self.used = used
        self.ids: tuple[list[int | None], ...] = tuple([] for _ in used)
        self.interned: list[dict[tuple[int, ...], int]] = [{} for _ in used]
        self.vectors: list[list[list[int]]] = [[] for _ in used]
        self.table: dict = {}

    def pid(self, state: State, position: int) -> int:
        """*state*'s projected id at *position*, projected and filed in
        the index map on first use."""
        ids = self.ids[position]
        index = state.index
        if index < len(ids):
            found = ids[index]
            if found is not None:
                return found
        else:
            ids.extend([None] * (index + 1 - len(ids)))
        used = self.used[position]
        costs = [state.cost_at(nt_id) for nt_id in used]
        low = min([cost for cost in costs if cost < INFINITE], default=0)
        shifted = tuple(cost - low if cost < INFINITE else INFINITE for cost in costs)
        interned = self.interned[position]
        pid = interned.get(shifted)
        if pid is None:
            vectors = self.vectors[position]
            pid = interned[shifted] = len(vectors)
            vector = [INFINITE] * (used[-1] + 1 if used else 0)
            for nt_id, cost in zip(used, shifted):
                vector[nt_id] = cost
            vectors.append(vector)
        ids[index] = pid
        return pid

    def project(self, key: tuple[int, ...], states: list[State]) -> tuple[int, ...]:
        """The projected key of child-state ids *key*."""
        return tuple([self.pid(states[index], position) for position, index in enumerate(key)])

    def groups(self, states: Iterable[State]) -> list[dict[int, list[int]]]:
        """Per position, the indices of *states* grouped by projected id
        there, in the order *states* gives them."""
        groups: list[dict[int, list[int]]] = [{} for _ in self.used]
        for state in states:
            for position, by_pid in enumerate(groups):
                by_pid.setdefault(self.pid(state, position), []).append(state.index)
        return groups

    def get(self, pkey: tuple[int, ...]) -> Any:
        found = self.table
        for pid in pkey or ((),):
            found = found.get(pid)
            if found is None:
                return None
        return found

    def put(self, pkey: tuple[int, ...], entry: Any) -> None:
        *path, last = pkey or ((),)
        row = self.table
        for pid in path:
            row = row.setdefault(pid, {})
        row[last] = entry

    def entries(self) -> list[tuple[tuple[int, ...], Any]]:
        """Every ``(projected key, entry)`` pair, in filing order."""
        level = [((), self.table)]
        for _ in self.used:
            level = [(pkey + (pid,), row) for pkey, table in level for pid, row in table.items()]
        return level if self.used else list(self.table.items())

    def kids(self, pkey: tuple[int, ...]) -> tuple[list[int], ...]:
        """The projected child cost lists of *pkey*, for construction."""
        return tuple(self.vectors[position][pid] for position, pid in enumerate(pkey))


class _OpTable:
    """All per-operator structures, interned once per grammar sync.

    ``slots[arity]`` is the operator's transition table at that arity, a
    :class:`_Projection` made on first use.  Its entries are states for
    a static operator and :class:`_DynRow` rows for a dynamic one: an
    operator with dynamic rules, or every operator when the grammar has
    dynamic chain rules (``dynamic`` says which).  ``nullary`` mirrors a
    static operator's arity-0 state, so the walk labels a static leaf
    with one attribute read; a dynamic operator leaves it ``None``.
    ``dyn_by_arity`` holds the dynamic rules with their kid nonterminal
    ids and bound ``cost_at``.
    """

    __slots__ = ("op_id", "dynamic", "rules_by_arity", "dyn_by_arity", "nullary", "slots")

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.dynamic = False
        self.rules_by_arity: dict[int, tuple[_RuleEntry, ...]] = {}
        self.dyn_by_arity: dict[
            int, tuple[tuple[Rule, tuple[int, ...], Callable[[Node], int]], ...]
        ] = {}
        self.nullary: State | None = None
        self.slots: list[_Projection] = []

    def transition_count(self) -> int:
        """Number of transitions filed in this operator's tables: one per
        projected key of a static slot, one per outcome tuple of a row."""
        total = 0
        for slot in self.slots:
            for _, entry in slot.entries():
                total += len(entry) if self.dynamic else 1
        return total


#: What the walk's table lookup returns for an operator that has no
#: table yet: it has no slots, so the lookup fails and the miss path
#: builds the operator's table.
_NO_TABLE = _OpTable(-1)


def _helper_thunk(ctx: Any, node: Node, operands: list) -> Any:
    return _SplicedOperands(operands)


def action_thunk(rule: Rule, templated: bool) -> Any:
    """*rule*'s semantic action as one callable ``(context, node,
    operands) -> value``.

    It follows the frame :class:`~repro.selection.reducer.Reducer`'s
    dispatch order: action, then template (only for a *templated*
    context kind, one with ``emit_template``), then helper splice, then
    operand pass-through.  The thunk binds the rule, not the context, so
    it serves every context of its kind.
    """
    action = rule.action
    if action is not None:
        return action
    if rule.template is not None and templated:

        def template_thunk(ctx: Any, node: Node, operands: list, _rule=rule):
            return ctx.emit_template(_rule, node, operands)

        return template_thunk
    if rule.is_helper:
        return _helper_thunk
    return pass_through


class AutomatonLabeling(Labeling):
    """A forest labeling that stores one interned state per node.

    Costs returned by :meth:`cost_of` are state-relative *delta* costs;
    rule choices are nevertheless globally optimal (see module docs).
    One labeling may span several forests (see
    :meth:`OnDemandAutomaton.label_many`): it answers queries for every
    node of every forest labeled into it.  Its map keys the node object
    (``Node`` hashes and compares by identity), so a labeling keeps its
    batch's nodes alive while it lives.
    """

    def __init__(self, automaton: "OnDemandAutomaton") -> None:
        super().__init__(automaton.grammar)
        self.automaton = automaton
        #: ``node -> State`` for every labeled node, keyed by the node
        #: object (the tape compiler reads it directly, one get per entry).
        self.node_states: dict[Node, State] = {}
        #: True when every labeled node has exactly one referrer — one
        #: root occurrence or one parent edge across the whole batch —
        #: so no ``(node, goal)`` entry can recur in one emission of
        #: each forest (set by :meth:`OnDemandAutomaton.label_many`).
        #: A DAG-shared node, a repeated forest and a root shared
        #: between forests all make it False.
        self.tree = False

    @property
    def nodes_labeled(self) -> int:
        """Distinct nodes this labeling holds a state for."""
        return len(self.node_states)

    def state_of(self, node: Node) -> State | None:
        """The interned state labeling *node* (None when unlabeled)."""
        return self.node_states.get(node)

    def rule_for(self, node: Node, nonterminal: str) -> Rule | None:
        state = self.node_states.get(node)
        return None if state is None else state.rule_for(nonterminal)

    def cost_of(self, node: Node, nonterminal: str) -> int:
        state = self.node_states.get(node)
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
        #: Nonterminals a normalisation helper rule derives: an operand
        #: of one of them may be a splice-flat value.
        self._helper_nts: frozenset[str] = frozenset()
        self._dyn_chain: list[Rule] = []
        self._unreached_chain_half: tuple[None, ...] = ()
        self._static_reach_cache: dict[str, frozenset[str]] = {}
        self._eager: dict[str, object] | None = None
        #: Derivation fragments, one table per context kind (index 1:
        #: contexts with ``emit_template``): ``State -> [fragment or
        #: None per goal nonterminal id]``, filled by :meth:`fragment`.
        self.fragments: tuple[dict[State, list], dict[State, list]] = ({}, {})
        self._sync()

    # ------------------------------------------------------------------
    # Grammar synchronisation

    def _sync(self) -> None:
        """(Re)build derived structures when the source grammar changed."""
        if self._source_version == self.source_grammar.version:
            return
        source = self.source_grammar
        self.grammar = source if source.is_normal_form else normalize(source)
        self._source_version = source.version
        self.pool = StatePool(self.grammar.nonterminals)
        self._op_ids = self.grammar.operator_ids()
        self._tables = {name: self._build_table(name, op_id) for name, op_id in self._op_ids.items()}
        self._dyn_chain = [rule for rule in self.grammar.chain_rules() if rule.is_dynamic]
        # A dynamic chain rule makes every transition node-dependent.
        for table in self._tables.values():
            table.dynamic = bool(self._dyn_chain or table.dyn_by_arity)
        self._helper_nts = frozenset(rule.lhs for rule in self.grammar.rules if rule.is_helper)
        self._unreached_chain_half = (UNEVALUATED,) * len(self._dyn_chain)
        self._static_reach_cache = {}
        self._eager = None  # precomputed tables died with the old pool
        self.fragments = ({}, {})  # and so did the fragments of its states

    def _build_table(self, op_name: str, op_id: int) -> _OpTable:
        """Intern one operator: pre-filter its rules by arity, resolve
        its patterns' child nonterminals to dense ids."""
        table = _OpTable(op_id)
        by_arity: dict[int, list[_RuleEntry]] = {}
        for rule in self.grammar.rules_for_op(op_name):
            kid_ids = tuple(self.pool.declare(kid.symbol) for kid in rule.pattern.kids)
            by_arity.setdefault(len(kid_ids), []).append((rule, rule.lhs, rule.cost, kid_ids))
        table.rules_by_arity = {arity: tuple(entries) for arity, entries in by_arity.items()}
        for arity, entries in table.rules_by_arity.items():
            dynamic = tuple(
                (rule, kid_ids, rule.cost_at) for rule, _, _, kid_ids in entries if rule.is_dynamic
            )
            if dynamic:
                table.dyn_by_arity[arity] = dynamic
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
            table.dynamic = bool(self._dyn_chain)
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
    # Derivation fragments (the emission side of a state)

    def fragment(self, state: State | None, goal: int, templated: int) -> tuple | None:
        """The derivation fragment of goal nonterminal id *goal* at *state*.

        A state fixes the rule that derives each of its nonterminals, so
        everything a tape compile needs to lay out one ``(node, goal)``
        entry is a function of ``(state, goal)``.  The fragment is the
        tuple ``(code, cost, rule, chain_goal, op_name, kid_goals)``:

        * ``code`` is ``(thunk, count)``, the tape entry: the rule's
          action thunk (see :func:`action_thunk`, bound for the context
          kind *templated*) and its operand count — 1 for a chain rule,
          the pattern's arity for a base rule — negated when an operand
          nonterminal is one a helper rule derives, so that only such
          entries probe their operands for splice-flat values;
        * ``cost`` is the rule's fixed cost, or ``None`` for a
          ``dynamic_cost`` rule, which is evaluated per entry;
        * a chain rule has ``chain_goal``, the source nonterminal's id,
          and ``kid_goals`` ``None``;
        * a base rule has ``chain_goal`` -1, the operator name its
          pattern is rooted at, and the goal ids of its children.

        Built on first use and kept in :attr:`fragments` until the next
        grammar sync drops them with the pool.  Returns ``None`` when
        *state* is ``None`` (an unlabeled node) or derives no *goal*.
        A chain-rule cycle in the state's rule vector — possible only in
        a corrupt state — raises :class:`~repro.errors.CoverError` here,
        so the compile walk needs no cycle guard of its own.
        """
        if state is None:
            return None
        rule = state.rule_at(goal)
        if rule is None:
            return None
        declare = self.pool.declare
        if rule.is_chain:
            chain_goal = declare(rule.pattern.symbol)
            op_name = kid_goals = None
            operands = (rule.pattern,)
            self._reject_chain_cycle(state, goal)
        elif rule.is_base:
            chain_goal = -1
            op_name = rule.pattern.symbol
            operands = rule.pattern.kids
            kid_goals = tuple(declare(kid.symbol) for kid in operands)
        else:
            raise CoverError(
                f"state #{state.index} derives nonterminal "
                f"{self.pool.nt_names[goal]!r} by rule {rule.number}, "
                f"which is not in normal form"
            )
        count = len(operands)
        if any(operand.symbol in self._helper_nts for operand in operands):
            count = -count
        cost = None if rule.dynamic_cost is not None else rule.cost
        code = (action_thunk(rule, bool(templated)), count)
        built = (code, cost, rule, chain_goal, op_name, kid_goals)
        rows = self.fragments[templated]
        row = rows.get(state)
        if row is None:
            row = rows[state] = [None] * len(state.rule_vec)
        row[goal] = built
        return built

    def _reject_chain_cycle(self, state: State, goal: int) -> None:
        """Raise :class:`CoverError` when the chain rules *state* picks
        from *goal* lead back to a nonterminal already on the run."""
        declare = self.pool.declare
        on_run = {goal}
        rule = state.rule_at(goal)
        while rule is not None and rule.is_chain:
            source = declare(rule.pattern.symbol)
            if source in on_run:
                raise CoverError(
                    f"cyclic derivation: state #{state.index} derives "
                    f"nonterminal {self.pool.nt_names[goal]!r} from itself "
                    f"through chain rules"
                )
            on_run.add(source)
            rule = state.rule_at(source)

    def fragment_count(self) -> int:
        """Fragments built since the last grammar sync, both context kinds."""
        return sum(
            len(row) - row.count(None) for rows in self.fragments for row in rows.values()
        )

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
        :data:`~repro.selection.resilience.DEADLINE_CHECK_EVERY` visits
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
        common subexpressions) is labeled exactly once.  The walk counts
        parent edges, so the labeling knows whether the batch is a tree
        (:attr:`AutomatonLabeling.tree`).  Returns a
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
        node_states = labeling.node_states
        if metrics is None:
            edges = self._walk(roots, node_states, _NULL_METRICS, deadline_at_ns)
        else:
            started = time.perf_counter()
            try:
                edges = self._walk(roots, node_states, metrics, deadline_at_ns)
            finally:
                metrics.seconds += time.perf_counter() - started
                metrics.nodes_labeled += len(node_states)
                metrics.table_lookups += len(node_states)
        # Every node has at least one referrer (a root occurrence or a
        # parent edge), so the counts are equal exactly when each has one.
        labeling.tree = len(node_states) == len(roots) + edges
        return labeling

    def _walk(
        self,
        roots: list[Node],
        node_states: dict[Node, State],
        metrics: LabelMetrics,
        deadline_at_ns: int | None,
    ) -> int:
        """The labeling walk: one fused stack walk, one operator-table
        lookup plus one node-keyed get per child.  The state map is the
        visited set: a node is expanded at most once and transitioned
        the moment its last child has a state.  Returns the number of
        parent edges, the arities of the nodes it labeled summed.

        A node's arity branch makes its one operator-table lookup: the
        slot for its arity, one index-map read per child, the slot's
        table.  A static table (every table, on a static grammar; none,
        when the grammar has dynamic chain rules) holds the state.  A
        dynamic table holds the candidate row, and the node takes the
        dynamic tail: the row's callables, one get of the state keyed
        by their outcomes.  A failed read (no table yet, a child not yet
        projected, a key not yet filed) goes to :meth:`_entry`.  Only
        the cold path touches *metrics*; the callables run are counted
        in a local and charged once at the end.  The deadline is one
        strided check per popped node.

        The first visit to a unary or binary node labels each leaf kid
        whose static table has its ``nullary`` state built in place; any
        other leaf (cold, foreign-dialect, dynamic) takes its own visit,
        so states are built and callables run in the same order.
        """
        tables = self._tables
        no_table = _NO_TABLE
        dyn_chain = self._dyn_chain
        stack = list(roots)
        pop = stack.pop
        push = stack.append
        get_state = node_states.get
        ticks = 0
        evals_run = 0
        edges = 0
        try:
            while stack:
                if deadline_at_ns is not None:
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline_at_ns, "label")
                node = pop()
                if node in node_states:
                    continue
                kids = node.kids
                arity = len(kids)
                if arity == 2:
                    k0, k1 = kids
                    s0 = get_state(k0)
                    s1 = get_state(k1)
                    if s0 is None or s1 is None:
                        # First visit: a leaf kid whose static table has
                        # its state built takes that state in place.
                        if s0 is None and not k0.kids:
                            s0 = tables.get(k0.op.name, no_table).nullary
                            if s0 is not None:
                                node_states[k0] = s0
                        if s1 is None and not k1.kids:
                            s1 = tables.get(k1.op.name, no_table).nullary
                            if s1 is not None:
                                node_states[k1] = s1
                        if s0 is None or s1 is None:
                            push(node)
                            if s1 is None:
                                push(k1)
                            if s0 is None:
                                push(k0)
                            continue
                    table = tables.get(node.op.name, no_table)
                    try:
                        slot = table.slots[2]
                        ids0, ids1 = slot.ids
                        entry = slot.table[ids0[s0.index]][ids1[s1.index]]
                    except LookupError:
                        table = self._table_for(node.op.name)
                        entry = self._entry(table, (s0.index, s1.index), metrics)
                    if not table.dynamic:
                        node_states[node] = entry
                        edges += 2
                        continue
                elif arity == 0:
                    table = tables.get(node.op.name, no_table)
                    entry = table.nullary
                    if entry is None:
                        try:
                            entry = table.slots[0].table[()]
                        except LookupError:
                            table = self._table_for(node.op.name)
                            entry = self._entry(table, (), metrics)
                    if not table.dynamic:
                        node_states[node] = entry
                        continue
                elif arity == 1:
                    k0 = kids[0]
                    s0 = get_state(k0)
                    if s0 is None:
                        if not k0.kids:
                            s0 = tables.get(k0.op.name, no_table).nullary
                            if s0 is not None:
                                node_states[k0] = s0
                        if s0 is None:
                            push(node)
                            push(k0)
                            continue
                    table = tables.get(node.op.name, no_table)
                    try:
                        slot = table.slots[1]
                        entry = slot.table[slot.ids[0][s0.index]]
                    except LookupError:
                        table = self._table_for(node.op.name)
                        entry = self._entry(table, (s0.index,), metrics)
                    if not table.dynamic:
                        node_states[node] = entry
                        edges += 1
                        continue
                else:
                    deferred = False
                    for kid in kids:
                        if kid not in node_states:
                            if not deferred:
                                push(node)
                                deferred = True
                            push(kid)
                    if deferred:
                        continue
                    table = tables.get(node.op.name, no_table)
                    try:
                        slot = table.slots[arity]
                        entry = slot.table
                        for ids, kid in zip(slot.ids, kids):
                            entry = entry[ids[node_states[kid].index]]
                    except LookupError:
                        table = self._table_for(node.op.name)
                        key = tuple([node_states[kid].index for kid in kids])
                        entry = self._entry(table, key, metrics)
                    if not table.dynamic:
                        node_states[node] = entry
                        edges += arity
                        continue
                # The dynamic tail: an operator with dynamic rules (every
                # operator, under dynamic chain rules); *entry* is its row.
                evals = entry.evals
                try:
                    if not evals:
                        outcomes = ()
                    elif len(evals) == 1:
                        evals_run += 1
                        outcomes = (evals[0](node),)
                    else:
                        evals_run += len(evals)
                        outcomes = tuple([evaluate(node) for evaluate in evals])
                    if dyn_chain:
                        state = self._chain_state(table, entry, outcomes, node, metrics)
                    else:
                        state = entry.get(outcomes)
                        if state is None:
                            state = self._dyn_state(table, entry, outcomes, metrics)
                except Exception as exc:
                    # Zero-cost on the happy path (3.11+): a raising
                    # callable gets the faulting IR node attached for
                    # SelectionFailure provenance.
                    attach_node_provenance(exc, node)
                    raise
                node_states[node] = state
                edges += arity
        finally:
            metrics.dynamic_evals += evals_run
        return edges

    # ------------------------------------------------------------------
    # The cold path: table entries, dynamic rows and state construction

    def _projection(self, table: _OpTable, arity: int) -> _Projection:
        """*table*'s slot for *arity* (and every lower one), made on first
        use."""
        slots = table.slots
        while len(slots) <= arity:
            entries = table.rules_by_arity.get(len(slots), ())
            used = tuple(
                tuple(sorted({kid_ids[position] for _, _, _, kid_ids in entries}))
                for position in range(len(slots))
            )
            slots.append(_Projection(used))
        return slots[arity]

    def _entry(
        self, table: _OpTable, key: tuple[int, ...], metrics: LabelMetrics = _NULL_METRICS
    ) -> Any:
        """*table*'s entry at child-state ids *key* — a static operator's
        state, a dynamic operator's :class:`_DynRow` — read at the
        projected key.  What is missing is built: a static state from the
        projected child costs (one table miss), a row's candidates once
        per key."""
        slot = self._projection(table, len(key))
        pkey = slot.project(key, self.pool.states)
        entry = slot.get(pkey)
        if entry is None:
            kids = slot.kids(pkey)
            if table.dynamic:
                entry = self._new_row(table, kids, metrics)
            else:
                metrics.table_misses += 1
                entry = self._construct_state(table, kids, None, metrics)
                if not key:
                    table.nullary = entry
            slot.put(pkey, entry)
        return entry

    def _new_row(
        self, table: _OpTable, kids: tuple[list[int], ...], metrics: LabelMetrics
    ) -> _DynRow:
        """A row over child cost lists *kids*: its candidates are the
        operator's dynamic rules whose every operand nonterminal has a
        finite cost at its child.  A projection keeps which costs are
        finite, so a projected row decides this for every full key it
        stands for — and a finite helper nonterminal proves that the
        child matches the rest of a multi-node pattern, so the
        candidates' callables may dereference any node their original
        pattern names."""
        entries = table.dyn_by_arity.get(len(kids), ())
        metrics.rule_checks += len(entries)
        open_entries = [
            (rule, evaluate)
            for rule, kid_ids, evaluate in entries
            if all(kid[nt_id] < INFINITE for nt_id, kid in zip(kid_ids, kids))
        ]
        return _DynRow(
            tuple(rule for rule, _ in open_entries),
            tuple(evaluate for _, evaluate in open_entries),
            kids,
        )

    def restore(
        self, table: _OpTable, key: tuple[int, ...], outcomes: tuple, state: State
    ) -> None:
        """File *state* at child-state ids *key* (and, in a dynamic table,
        *outcomes*) where the walk will read it, constructing nothing:
        how a loaded artifact's entries are rehydrated."""
        if table.dynamic:
            self._entry(table, key)[outcomes] = state
            return
        slot = self._projection(table, len(key))
        slot.put(slot.project(key, self.pool.states), state)
        if not key:
            table.nullary = state

    @staticmethod
    def _dyn_costs(row: _DynRow, outcomes: tuple) -> dict[int, int]:
        """Rule number → cost of *row*'s candidates at their *outcomes*.
        A dynamic rule that is no candidate needs no entry: one of its
        operands is underivable, so it cannot apply whatever its cost."""
        return {rule.number: cost for rule, cost in zip(row.candidates, outcomes)}

    def _dyn_state(
        self,
        table: _OpTable,
        row: _DynRow,
        outcomes: tuple,
        metrics: LabelMetrics,
        chain_costs: dict[int, int] | None = None,
        base_pair: tuple[dict[str, int], dict[str, Rule]] | None = None,
    ) -> State:
        """A row's miss: construct the state at *outcomes* (the
        candidates' costs, then any dynamic chain outcomes) from the
        row's kids and file it (one table miss).  A *base_pair* (from
        :meth:`_chain_state`) saves the base-rule pass."""
        metrics.table_misses += 1
        dyn_costs = self._dyn_costs(row, outcomes)
        if chain_costs:
            dyn_costs.update(chain_costs)
        state = self._construct_state(table, row.kids, dyn_costs, metrics, base_pair)
        row[outcomes] = state
        return state

    def _chain_state(
        self,
        table: _OpTable,
        row: _DynRow,
        outcomes: tuple,
        node: Node,
        metrics: LabelMetrics,
    ) -> State:
        """A row's state under dynamic chain rules: the candidates'
        outcomes fix the base half of the key and, memoized in the row,
        the nonterminals derivable before chain rules; the chain half
        comes from :meth:`_evaluate_dynamic_chains` at *node*."""
        base = row.derivable.get(outcomes)
        if base is None:
            dyn_costs = self._dyn_costs(row, outcomes)
            costs, rules = self._base_costs(table, row.kids, dyn_costs, metrics)
            closed: set[str] = set()
            for nonterminal in costs:
                closed |= self._static_chain_reach(nonterminal)
            base = row.derivable[outcomes] = (frozenset(closed), costs, rules)
        chain_costs, chain_half = self._evaluate_dynamic_chains(node, base[0], metrics)
        full = outcomes + chain_half
        state = row.get(full)
        if state is None:
            state = self._dyn_state(table, row, full, metrics, chain_costs, base[1:])
        return state

    def _evaluate_dynamic_chains(
        self, node: Node, initial_derivable: frozenset[str], metrics: LabelMetrics
    ) -> tuple[dict[int, int], tuple["int | None", ...]]:
        """Evaluate dynamic chain-rule costs, only where they can apply.

        A dynamic chain rule's callable runs only when its source
        nonterminal is derivable at the node — the same guard the DP
        labeler gets from ``chain_closure``'s finite-source check — and
        the outcome joins the transition key.  Unreached rules get the
        :data:`UNEVALUATED` sentinel; derivability grows to a fixed
        point as finite outcomes unlock further chain rules.  Returns
        the outcomes by rule number and the key's chain half.
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
            return evaluated, self._unreached_chain_half
        chain_half = tuple(evaluated.get(rule.number, UNEVALUATED) for rule in self._dyn_chain)
        return evaluated, chain_half

    def _base_costs(
        self,
        table: _OpTable,
        kids: tuple[list[int], ...],
        dyn_costs: dict[int, int] | None,
        metrics: LabelMetrics,
    ) -> tuple[dict[str, int], dict[str, Rule]]:
        """Best base-rule costs/rules at a transition, before chain closure.

        Walks the operator's arity-pre-filtered rule entries, summing
        the *kids*' costs (one cost list per child, indexed by
        nonterminal id: a state's ``cost_vec`` or a projected list)
        through the pre-resolved nonterminal ids.  Shared by state
        construction and the derivability guard so the two can never
        disagree about which base rules apply.
        """
        costs: dict[str, int] = {}
        rules: dict[str, Rule] = {}
        entries = table.rules_by_arity.get(len(kids), ())
        metrics.rule_checks += len(entries)
        for rule, lhs, static_cost, kid_ids in entries:
            if dyn_costs is None:
                total = static_cost
            else:
                total = dyn_costs.get(rule.number, static_cost)
            for nt_id, kid in zip(kid_ids, kids):
                total += kid[nt_id]
                if total >= INFINITE:
                    break
            if total < costs.get(lhs, INFINITE):
                costs[lhs] = total
                rules[lhs] = rule
        return costs, rules

    def _construct_state(
        self,
        table: _OpTable,
        kids: tuple[list[int], ...],
        dyn_costs: dict[int, int] | None,
        metrics: LabelMetrics,
        base_pair: tuple[dict[str, int], dict[str, Rule]] | None = None,
    ) -> State:
        """The dynamic-programming step, run once per novel table entry
        over the *kids*' projected cost lists."""
        if base_pair is None:
            costs, rules = self._base_costs(table, kids, dyn_costs, metrics)
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

    def build_eager(self, max_states: int | None = None) -> dict[str, object]:
        """Precompute every reachable transition at build time.

        This is the offline end of the paper's trade-off: state
        construction is driven over all ``(operator, projected
        child-state)`` combinations of the interned state set,
        repeatedly, until a fixed point (see :meth:`_eager_fill`) —
        afterwards labeling any forest over the grammar's
        operators performs pure table lookups (zero ``table_misses``),
        at the price of tables covering combinations a given workload
        may never present.  Since the children of distinct subtrees are
        independent, every combination of reachable states is reachable,
        so the fixed point is exactly the reachable table.

        Dynamic rules restrict what can be enumerated:

        * constraint rules have two possible outcomes (the static
          cost, or :data:`~repro.grammar.costs.INFINITE`), so their
          operators' rows are enumerated per projected key over every
          outcome combination of the rules that key leaves open — the
          restricted-dynamic-cost argument;
        * operators with fully general dynamic-cost rules, and grammars
          with dynamic *chain* rules (which make every transition
          node-dependent), cannot be precomputed and are left on demand
          — they are reported in the returned stats under ``skipped``.

        *max_states* caps the state pool as a runaway guard: when
        construction interns more states, the build stops and reports
        ``capped: True``; the partial tables stay valid and warm, and
        labeling builds whatever is missing on demand.  Returns the
        build stats dict, also available afterwards under
        ``stats()["eager"]``.
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
                if any(
                    rule.constraint is None
                    for entries in table.dyn_by_arity.values()
                    for rule, _, _ in entries
                ):
                    skipped.append(name)
            skipped.sort()
        capped = False
        rounds = 0
        started = time.perf_counter()
        if not self._dyn_chain:
            while True:
                rounds += 1
                snapshot = list(self.pool.states)
                for name, table in list(self._tables.items()):
                    if name in skipped:
                        continue
                    for arity in table.rules_by_arity:
                        self._eager_fill(table, arity, snapshot, metrics)
                    if max_states is not None and len(self.pool) > max_states:
                        capped = True
                        break
                if capped:
                    break
                if len(self.pool) == len(snapshot):
                    break  # this round filed every entry over the final states
        self._eager = {
            "rounds": rounds,
            "states_before": states_before,
            "states": len(self.pool),
            "transitions_before": transitions_before,
            "transitions": self.transition_count(),
            "states_created": metrics.states_created,
            "rule_checks": metrics.rule_checks,
            "chain_checks": metrics.chain_checks,
            "build_seconds": time.perf_counter() - started,
            "skipped": skipped,
            "capped": capped,
        }
        return self._eager

    def _eager_fill(
        self,
        table: _OpTable,
        arity: int,
        states: list[State],
        metrics: LabelMetrics,
    ) -> None:
        """File every missing entry of one (operator, arity) slot over the
        given state snapshot.

        The states are grouped by projected id per position (see
        :meth:`_Projection.groups`), and one full key per product of
        groups stands for them all.  A constraint-only operator's row
        is filled for both outcomes (the static cost or INFINITE) of
        each rule it leaves open — exactly the keys the walk builds.
        """
        groups = self._projection(table, arity).groups(states)
        for members in itertools.product(*[list(by_pid.values()) for by_pid in groups]):
            entry = self._entry(table, tuple(member[0] for member in members), metrics)
            if not table.dynamic:
                continue
            space = [(rule.cost, INFINITE) for rule in entry.candidates]
            for outcomes in itertools.product(*space):
                if outcomes not in entry:
                    self._dyn_state(table, entry, outcomes, metrics)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def states(self) -> list[State]:
        return self.pool.states

    def transition_count(self) -> int:
        """Total transitions filed across all per-operator tables: one per
        projected key (per outcome tuple, for a dynamic operator)."""
        return sum(table.transition_count() for table in self._tables.values())

    def stats(self) -> dict[str, object]:
        """Automaton size row (states interned, transitions filed).

        After :meth:`build_eager`, an ``eager`` entry reports the
        offline build: table growth (states/transitions before and
        after), construction work, build seconds, skipped operators,
        and whether the *max_states* cap fired.  The row describes the
        tables the next call uses: a grammar that moved since the last
        call is synced first, which drops the old tables and the build.
        """
        self._sync()
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

