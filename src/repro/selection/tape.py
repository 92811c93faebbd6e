"""Cover compilation: lower covers to flat instruction tapes.

The frame-stack :class:`~repro.selection.reducer.Reducer`, the reference
engine, re-walks the cover on every emission, resolving each ``(node,
nonterminal)`` pair's rule and operand targets as it goes.  An automaton
labeling has already fixed all of that: a node's state determines, for
every goal nonterminal, the rule, its thunk, its cost and its targets.
This module splits emission into an explicit two-phase pipeline, the
same lowering shape ERTL/RTL-style backends use to turn selected covers
into flat instruction sequences:

1. **Compile** — one walk over the cover lowers each forest to a
   :class:`CompiledTape`: postorder *stack code*, one entry per rule
   application.  Per entry the walk reads the node's state off the
   labeling and appends the automaton's *derivation fragment* for
   ``(state, goal)``
   (:meth:`~repro.selection.automaton.OnDemandAutomaton.fragment`): the
   rule, its thunk and operand count, its fixed cost, and either the
   chain rule's source goal or the base rule's operator and child goals.
   Fragments are built once per pair on first use, next to the
   transition tables, the same on-demand discipline the paper applies
   to transitions; goals are the state pool's nonterminal ids, the id
   space the fragments are keyed by.  An entry names no operand: in
   postorder its operands are the values its operand count says are on
   top of the value stack, the way a stack machine such as Gforth
   finds them.
2. **Sweep** — one linear pass over the tape runs it as stack code: each
   entry pops its *k* operands, runs its thunk and pushes the result;
   what is left on the stack is one value per root.  No frames, no
   memo probes, no operand refs.  An entry whose count is negated (an
   operand nonterminal is one a normalisation helper rule derives)
   splices each ``_SplicedOperands`` operand flat, the frame engine's
   own test; every other entry takes its operands as they are.  A
   pass-through entry (thunk :func:`~repro.selection.reducer.pass_through`,
   a rule with no action, template or helper role) of count 0, 1 or 2
   runs inline, with no call and no operand list: count 0 pushes a new
   ``[]``, count 1 leaves a non-list operand where it is, and count 2
   flattens as ``pass_through`` does; other counts call it.

The compile walk replicates the frame engine's exact left-to-right
postorder — including where memo hits happen — so both engines run the
same actions in the same order with the same operands, which is what the
differential tests assert byte-for-byte.  The engines share that
contract and the reducer module's value helpers, not a class: the tape
has its own slot table, counters and fault handling.  The tape compiles
automaton labelings only (:class:`TapeEmitter` raises
:class:`TypeError` on any other); a DP labeling has no states, and the
frame engine emits it.

Two compile walks
-----------------
The **slot walk** (:meth:`TapeEmitter._compile_roots`) keys every
``(node, goal)`` entry it lays out in a slot table that spans the
emitter's lifetime, so an entry reached twice — a DAG-shared node, a
forest emitted again — resolves to its first slot (a memo hit).  Its
sweep also appends every value it computes to the emitter's value
buffer, at the entry's slot, and a memo hit is a *load* entry that
pushes ``buf[slot]``.

The **tree walk** (:meth:`TapeEmitter._compile_tree`) has no slot table,
no loads and no value buffer.  It runs when the labeling is a tree
(:attr:`~repro.selection.automaton.AutomatonLabeling.tree`: every
labeled node has exactly one referrer, which the labeling walk's edge
count decides) *and* the emitter was built with ``once=True``, the
caller's promise to emit each forest of the labeled batch once — as
:meth:`~repro.selection.selector.Selector.select_many` does.  Then no
entry can recur, so there is nothing to key or probe.  Its visits are
``(node, goal)`` pairs: it lays out entries parent-first and right to
left, then reverses them into the slot walk's exact postorder.  It
evaluates dynamic costs after the layout, in postorder, and raises a
root's missing derivation only once the roots before it are costed, so
its first fault is the slot walk's.  DAG batches and any emitter built
without ``once`` keep the slot walk and its memo hits.

Both walks carry the visit they would pop next in locals rather than
pushing it — the tree walk its last kid's, the slot walk its first
kid's — so no visit down a unary chain is pushed.  The deadline ticks
once per visit (and, in the slot walk, once per pending entry).

Cover cost
----------
The compile walk also costs the entries it lays out: each adds its
fragment's fixed cost, or :func:`~repro.selection.reducer.entry_cost`
for a ``dynamic_cost`` rule, evaluated once per entry — the one cost
rule the frame engine's walk applies too.  A slot-table hit lays out
nothing and adds nothing, so over a batch each distinct (node, goal)
entry is costed once, by the tape that emits it: the summed
:attr:`CompiledTape.cost` is the cost of the batch's cover.

No shape cache
--------------
Every forest compiles from fragments; nothing is cached by forest
shape.  With fragments warm, compile+sweep costs about what replaying
a shape-cached tape did: 5.3–5.6k against 5.0–5.2k ns/node over 32
``jit_stream`` batches with real actions (medians of 15 passes,
CPython 3.11 on a 2-vCPU Xeon), where every forest repeats a shape.
Keying such a cache took a second full walk of every forest, and on
fresh code it never hit (768 of 768 ``fresh_blocks`` forest keys were
distinct).  The state-indexed fragments are the cache.

Fault isolation
---------------
Rollback is a *truncation*: a fault-isolating caller snapshots
``memo_size()`` (the reductions count, which on the slot walk is also
the value buffer's length) before a forest and ``rollback_to()`` it
after a fault — the count reset, plus ``del values[mark:]`` and popping
the slot table's tail on the slot walk — instead of the frame engine's
reverse-ordered memo surgery.  A mid-sweep fault is placed by the
entry it stopped at: the action entries before it completed, and so
did every root whose last entry precedes it.  Because compilation
precedes emission, a forest whose cover is broken (``CoverError``)
faults *before any action runs*: the frame engine may emit a partial
prefix into the context before discovering the hole, the tape engine
never does.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, NoReturn

from repro.errors import CoverError, DeadlineExceededError
from repro.ir.node import Forest, Node
from repro.selection.automaton import AutomatonLabeling
from repro.selection.cover import Labeling, require_structural_match
from repro.selection.reducer import _SplicedOperands, entry_cost, pass_through
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)

__all__ = ["CompiledTape", "TapeCache", "TapeEmitter"]

#: The code of a load entry, whose node slot holds the value-buffer
#: slot it pushes.
_LOAD = (None, 0)


class CompiledTape:
    """One forest's cover, lowered to postorder stack code.

    ``codes`` and ``nodes`` are parallel, one item per tape entry.  A
    tape lives only from its compile walk to the end of its sweep.

    Attributes:
        entries: Number of action entries (= rule applications = values
            one sweep computes); loads are not counted.
        cost: Summed cost of the tape's entries, accumulated by the
            compile walk — a fragment's fixed cost, or
            :func:`~repro.selection.reducer.entry_cost` for a dynamic
            cost, evaluated there once per entry, so a raising one
            faults before any action runs.  Entries reached through the
            slot table (loads) add nothing.
        codes: Per-entry ``(thunk, count)``.  An action entry pops
            ``abs(count)`` operands, splicing ``_SplicedOperands`` flat
            when *count* is negative, and pushes ``thunk(context, node,
            operands)``; the thunks come from the fragments (bound per
            context kind, so a tape serves any context of its
            compiler's kind).  A load entry (slot walk only) is
            ``(None, 0)`` and pushes ``buf[slot]``.
        nodes: Per-entry IR nodes, the thunks' ``node`` argument; a load
            entry's value-buffer slot.
        ends: Per root, in root order, the index one past its last
            entry: the sweep has that root's value once it passes it.
    """

    __slots__ = ("entries", "cost", "codes", "nodes", "ends")

    def __init__(self, *, entries: int, cost: int, codes: list, nodes: list, ends: list) -> None:
        self.entries = entries
        self.cost = cost
        self.codes = codes
        self.nodes = nodes
        self.ends = ends

    def __repr__(self) -> str:
        return (
            f"CompiledTape(entries={self.entries}, roots={len(self.ends)}, "
            f"cost={self.cost})"
        )


class TapeCache:
    """Placeholder for the removed forest-shape tape cache.

    Tapes are no longer cached (see the module docstring); this empty
    class remains only so code written against the old API, which
    builds a ``TapeCache`` and passes it as ``TapeEmitter(...,
    cache=...)``, keeps working.  :class:`TapeEmitter` ignores it.
    """


class TapeEmitter:
    """The tape-based emission engine: compile covers, sweep tapes.

    It emits automaton labelings through tapes compiled from the
    automaton's derivation fragments; any other labeling raises
    :class:`TypeError`.  It honours the frame-stack
    :class:`~repro.selection.reducer.Reducer`'s contract without sharing
    its class — the constructor arguments, the ``reduce_forest``/
    ``resolve_start`` surface, the ``reductions``/``memo_hits`` counter
    semantics and the ``memo_size``/``rollback_to`` fault-isolation
    contract — so the reducer can check it as an independent oracle.
    Cross-forest memoisation is preserved: the slot table (keyed by
    the node object and the state pool's goal id) spans the emitter's
    lifetime, so a node shared between batch forests emits once and
    later forests reference its slot.  Node identity is the object, as
    in the labeling, whose map also keys the node: a forest's unpickled
    copy is a second forest, and the slot table holds the nodes it
    keys while the emitter lives.

    *once* is the caller's promise that it emits each forest of the
    labeled batch exactly once, and no other forest.  With it, a tree
    labeling compiles through the tree walk, which keeps no slot table
    (see the module docs); without it, or on a DAG labeling, every
    forest compiles through the slot walk.

    Every ``reduce_forest`` compiles one tape and sweeps it;
    :attr:`tapes_compiled` counts the non-empty ones.  *cache* is
    accepted for compatibility and ignored (see :class:`TapeCache`).

    Cover cost comes for free: the compile walk sums the costs of the
    entries it lays out into :attr:`CompiledTape.cost` — the frame
    engine's cost rule — and each ``reduce_forest`` leaves it in
    :attr:`last_cover_cost`.
    """

    def __init__(
        self,
        labeling: Labeling,
        context: Any = None,
        *,
        deadline_at_ns: int | None = None,
        cache: TapeCache | None = None,
        tracer: Any = None,
        once: bool = False,
    ) -> None:
        if not isinstance(labeling, AutomatonLabeling):
            raise TypeError(
                f"TapeEmitter compiles automaton labelings only, got "
                f"{type(labeling).__name__}; emit it with the frame Reducer"
            )
        self.labeling = labeling
        self.context = context
        #: Compile with the tree walk: the labeling is a tree and the
        #: caller emits each of its forests once (*once*).
        self._tree = once and labeling.tree
        #: Absolute monotonic deadline for cooperative cancellation
        #: (checked every DEADLINE_CHECK_EVERY compile and sweep steps);
        #: None disables the checks.
        self.deadline_at_ns = deadline_at_ns
        #: The state pool's nonterminal ids and names: the goal ids the
        #: automaton's fragments are keyed by.
        pool = labeling.automaton.pool
        self._nt_ids = pool.nt_ids
        self._nt_names = pool.nt_names
        #: Optional span tracer (``None``: none); with one, each
        #: cover-to-tape compilation records a ``pipeline.tape_compile`` span.
        self._tracer = tracer
        #: The slot walk's value buffer: every value its sweeps compute,
        #: at the entry's slot (the tree walk keeps it empty).
        self._values: list[Any] = []
        #: ``(node, nt id) -> slot`` — insertion ordered and
        #: slot-monotone, so rollback is a tail truncation.
        self._slots: dict[tuple[Node, int], int] = {}
        #: The context kind fragment thunks are bound for (1: the
        #: context has ``emit_template``) and its fragment table.
        self._templated = int(getattr(context, "emit_template", None) is not None)
        self._rows = labeling.automaton.fragments[self._templated]
        self.tapes_compiled = 0
        #: Tape entries swept (= rule applications) and entry requests
        #: answered from the slot table, counted like the frame
        #: engine's ``reductions``/``memo_hits``.
        self.reductions = 0
        self.memo_hits = 0
        #: Roots fully emitted by the most recent *faulted*
        #: :meth:`reduce_forest` call (fault-isolation provenance).
        self.last_roots_completed = 0
        #: Cost of the tape the most recent successful
        #: :meth:`reduce_forest` laid out (slot-table hits add 0).
        self.last_cover_cost = 0

    # ------------------------------------------------------------------
    # Fault isolation: value-buffer truncation instead of memo surgery.

    def memo_size(self) -> int:
        """Current reductions count — a rollback point for
        :meth:`rollback_to` (on the slot walk, also the value buffer's
        length)."""
        return self.reductions

    def rollback_to(self, size: int) -> int:
        """Discard the reductions past *size*: reset the count and
        truncate the value buffer and the slot table's tail back to
        *size*; returns the number discarded.

        Also clears slot-table entries registered by a compile that
        faulted before its sweep appended anything (the slot table may
        briefly run ahead of the buffer inside :meth:`_compile`).
        """
        excess = self.reductions - size
        if excess > 0:
            self.reductions = size
            del self._values[size:]
        self._truncate_slots(size)
        return max(excess, 0)

    def _truncate_slots(self, size: int) -> None:
        """Pop slot-table entries until *size* remain (insertion order =
        slot order, so the tail is exactly the entries past *size*)."""
        slots = self._slots
        for _ in range(len(slots) - size):
            slots.popitem()

    # ------------------------------------------------------------------
    # Compile

    def _compile_tree(self, forest: Forest, start: str) -> CompiledTape:
        """Lower *forest*'s roots from *start* to one tape, without the
        slot table (the tree walk; see the module docs).

        A visit ``(node, goal)`` lays out the chain ladder from *goal*
        down, then the base entry, then pushes one visit per kid but the
        last, whose visit it carries on to in locals (the last kid goes
        first); the roots go last to first, so the layout is the slot
        walk's postorder backwards.  A :class:`CoverError` at a root
        drops the layout of the roots after it, which the slot walk
        never reaches.
        """
        node_states = self.labeling.node_states
        rows = self._rows
        fragment = self._fragment
        deadline = self.deadline_at_ns
        start_goal = self._nt_ids.get(start)
        roots = forest.roots
        if start_goal is None and roots:
            self._underivable(roots[0], start)

        codes: list[tuple] = []
        nodes: list[Node] = []
        tops: list[int] = []  # each root's top entry, last root first
        dynamic: list[tuple] = []  # (rule, node) per dynamic-cost entry
        cost = 0
        ticks = 0
        fault: CoverError | None = None
        stack: list[tuple] = []
        push = stack.append
        pop = stack.pop

        for root in reversed(roots):
            tops.append(len(codes))
            # The visit in hand; the last kid's is carried, not pushed.
            node, goal = root, start_goal
            try:
                while True:
                    if deadline is not None:
                        ticks += 1
                        if ticks >= DEADLINE_CHECK_EVERY:
                            ticks = 0
                            check_deadline(deadline, "reduce")
                    state = node_states.get(node)
                    while True:
                        try:
                            frag = rows[state][goal]
                        except (KeyError, IndexError):
                            frag = None
                        if frag is None:
                            frag = fragment(state, goal, node)
                        code, entry, rule, goal, op_name, kid_goals = frag
                        if entry is None:
                            dynamic.append((rule, node))
                        else:
                            cost += entry
                        codes.append(code)
                        nodes.append(node)
                        # A base rule ends the ladder; a chain rule's one
                        # operand is this node from the source goal, next.
                        if kid_goals is not None:
                            break
                    kids = node.kids
                    if node.op.name != op_name or len(kids) != len(kid_goals):
                        require_structural_match(rule.pattern, node)
                    if len(kids) == 2:
                        push((kids[0], kid_goals[0]))
                        node = kids[1]
                        goal = kid_goals[1]
                    elif kids:
                        last = len(kids) - 1
                        for index in range(last):
                            push((kids[index], kid_goals[index]))
                        node = kids[last]
                        goal = kid_goals[last]
                    elif stack:
                        node, goal = pop()
                    else:
                        break
            except CoverError as exc:
                fault = exc
                stack.clear()
                for laid_out in (codes, nodes, tops, dynamic):
                    laid_out.clear()
                cost = 0

        for rule, node in reversed(dynamic):
            cost += entry_cost(rule, node)
        if fault is not None:
            raise fault
        codes.reverse()
        nodes.reverse()
        laid = len(codes)
        return CompiledTape(
            entries=laid,
            cost=cost,
            codes=codes,
            nodes=nodes,
            ends=[laid - top for top in reversed(tops)],
        )

    def _compile_roots(self, forest: Forest, start: str) -> CompiledTape:
        """Lower the covers of *forest*'s roots from *start* to one tape.

        Appends no values — the sweep does that — but registers every
        new entry's slot in the slot table as it is laid out, so later
        targets (and later forests) resolve shared reductions to
        existing slots.

        The walk resolves nothing per node: each ``(node, goal)`` it
        has no slot for reads the node's state off the labeling and
        lays out the automaton's derivation fragment for ``(state,
        goal)``.  Its stack holds *visits* ``(node, goal, None)`` and
        pending *entries* ``(node, key, fragment)``.  A visit follows
        the node's chain rules on the spot, pending one entry per chain
        step, then pends the base rule's entry, pushes its targets'
        visits but the first in reverse and carries on to the first in
        locals, so targets resolve left to right and entries land in
        the frame engine's exact postorder, with the same memo hits; a
        leaf entry is laid out at once.  A memo hit lays out a load of
        its slot where the frame engine would read its memo.  The walk
        keeps the frame engine's deadline strides and sums each new
        entry's :func:`entry_cost` into the tape's ``cost``.  It needs
        no cycle guard: IR nodes form a DAG, and the automaton rejects
        chain-rule cycles when it builds a fragment.
        """
        slots = self._slots
        slots_get = slots.get
        next_slot = len(self._values)
        node_states = self.labeling.node_states
        rows = self._rows
        fragment = self._fragment
        deadline = self.deadline_at_ns
        # Looked up, never declared: a name the grammar does not know
        # derives nothing, and must not grow the pool's id space.
        start_goal = self._nt_ids.get(start)
        if start_goal is None and forest.roots:
            self._underivable(forest.roots[0], start)

        codes: list[tuple] = []
        nodes: list[Any] = []
        ends: list[int] = []
        hits = 0
        cost = 0
        ticks = 0

        stack: list[tuple] = []
        push = stack.append
        pop = stack.pop
        for root in forest.roots:
            # The item in hand: a visit (frag None) or a pending entry;
            # the first kid's visit is carried, not pushed.
            node, tag, frag = root, start_goal, None
            while True:
                if deadline is not None:
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                if frag is not None:
                    key = tag
                else:
                    key = (node, tag)
                    slot = slots_get(key)
                    if slot is None:
                        state = node_states.get(node)
                        goal = tag
                        while True:
                            try:
                                frag = rows[state][goal]
                            except (KeyError, IndexError):
                                frag = None
                            if frag is None:
                                frag = fragment(state, goal, node)
                            goal = frag[3]
                            kid_goals = frag[5]
                            if kid_goals is not None:
                                break
                            # A chain rule: pend its entry; its one
                            # target is this node, from the source goal.
                            push((node, key, frag))
                            key = (node, goal)
                            slot = slots_get(key)
                            if slot is not None:
                                break
                    if slot is not None:
                        hits += 1
                        codes.append(_LOAD)
                        nodes.append(slot)
                        if not stack:
                            break
                        node, tag, frag = pop()
                        continue
                    kids = node.kids
                    if node.op.name != frag[4] or len(kids) != len(kid_goals):
                        require_structural_match(frag[2].pattern, node)
                    if kids:
                        push((node, key, frag))
                        if len(kids) == 2:
                            push((kids[1], kid_goals[1], None))
                        else:
                            for index in range(len(kids) - 1, 0, -1):
                                push((kids[index], kid_goals[index], None))
                        node = kids[0]
                        tag = kid_goals[0]
                        frag = None
                        continue
                    # A leaf entry has no targets: lay it out right away.
                entry = frag[1]
                cost += entry_cost(frag[2], node) if entry is None else entry
                slots[key] = next_slot
                next_slot += 1
                codes.append(frag[0])
                nodes.append(node)
                if not stack:
                    break
                node, tag, frag = pop()
            ends.append(len(codes))

        self.memo_hits += hits
        return CompiledTape(
            entries=len(codes) - hits,
            cost=cost,
            codes=codes,
            nodes=nodes,
            ends=ends,
        )

    def _fragment(self, state: Any, goal: int, node: Node) -> tuple:
        """Build the fragment the walk's table lookup missed, or raise
        when *node* (labeled *state*) has no derivation of *goal*."""
        built = self.labeling.automaton.fragment(state, goal, self._templated)
        if built is None:
            self._underivable(node, self._nt_names[goal])
        return built

    def _underivable(self, node: Node, nonterminal: str) -> NoReturn:
        """Raise the frame engine's :class:`CoverError` for a *node*
        with no derivation of *nonterminal*."""
        self.labeling.require_rule(node, nonterminal)
        raise CoverError(f"no derivation of nonterminal {nonterminal!r} at {node!r}")

    # ------------------------------------------------------------------
    # Sweep

    def _sweep(self, tape: CompiledTape) -> list[Any]:
        """Run *tape* as stack code; returns the stack, one value per
        root.  A slot-walk tape also appends each value it computes to
        the value buffer.  The deadline ticks once per action entry."""
        buf = self._values
        keep = None if self._tree else buf.append
        passthru = pass_through
        context = self.context
        deadline = self.deadline_at_ns
        ticks = 0
        stack: list[Any] = []
        push = stack.append
        pop = stack.pop
        entries = zip(tape.codes, tape.nodes)
        try:
            for (thunk, count), node in entries:
                if thunk is None:
                    push(buf[node])  # a load: *node* is the slot
                    continue
                if deadline is not None:
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                if thunk is passthru and 0 <= count <= 2:
                    # pass_through, inline: a lone non-list operand stays
                    # where it is; lists flatten into one new list.
                    if count == 1:
                        value = stack[-1]
                        if isinstance(value, list):
                            value = [*value]
                            if len(value) == 1:
                                value = value[0]
                            stack[-1] = value
                    elif count == 2:
                        right = pop()
                        left = pop()
                        value = [*left] if isinstance(left, list) else [left]
                        if isinstance(right, list):
                            value.extend(right)
                        else:
                            value.append(right)
                        if len(value) == 1:
                            value = value[0]
                        push(value)
                    else:
                        value = []
                        push(value)
                    if keep is not None:
                        keep(value)
                    continue
                if count == 0:
                    value = thunk(context, node, [])
                elif count == 2:
                    right = pop()
                    value = thunk(context, node, [pop(), right])
                elif count == 1:
                    value = thunk(context, node, [pop()])
                elif count > 0:
                    operands = stack[-count:]
                    del stack[-count:]
                    value = thunk(context, node, operands)
                else:
                    operands = []
                    for operand in stack[count:]:
                        if isinstance(operand, _SplicedOperands):
                            operands.extend(operand)
                        else:
                            operands.append(operand)
                    del stack[count:]
                    value = thunk(context, node, operands)
                push(value)
                if keep is not None:
                    keep(value)
        except DeadlineExceededError:
            # A deadline abort is not the action's fault: no provenance,
            # exactly like the frame engine's out-of-try check.
            self._note_fault(tape, entries)
            raise
        except Exception as exc:
            attach_node_provenance(exc, node)
            self._note_fault(tape, entries)
            raise
        except BaseException:
            self._note_fault(tape, entries)
            raise
        self.reductions += tape.entries
        return stack

    def _note_fault(self, tape: CompiledTape, rest: Iterator[tuple]) -> None:
        """Restore the engine's invariants after a mid-sweep fault.

        *rest* is the sweep's entry iterator, past the entry that
        faulted.  Counts the action entries before that one into
        :attr:`reductions`, trims the slot table back in line with the
        value buffer (only completed entries stay memoised, matching the
        frame engine), and records how many roots fully emitted — the
        leading run of roots (in root order) whose entries all precede
        the fault.
        """
        codes = tape.codes
        at = len(codes) - 1 - sum(1 for _ in rest)
        self.reductions += at - codes[:at].count(_LOAD)
        self._truncate_slots(len(self._values))
        completed = 0
        for end in tape.ends:
            if end > at:
                break
            completed += 1
        self.last_roots_completed = completed

    def _compile(self, forest: Forest, start: str) -> CompiledTape:
        """Compile *forest*'s cover from *start* to one tape.

        A compile fault precedes all emission: nothing ran, so nothing
        completed, and the slot table's dead tail is cleared.  With a
        tracer the compile walk records a
        ``pipeline.tape_compile`` span.
        """
        mark = len(self._values)
        tracer = self._tracer
        compile_start = time.monotonic_ns() if tracer is not None else None
        try:
            if self._tree:
                tape = self._compile_tree(forest, start)
            else:
                tape = self._compile_roots(forest, start)
        except Exception:
            self.last_roots_completed = 0
            self._truncate_slots(mark)
            raise
        if compile_start is not None:
            tracer.record(
                "pipeline.tape_compile",
                compile_start,
                time.monotonic_ns(),
                forest=forest.name,
                entries=tape.entries,
            )
        if tape.entries:
            self.tapes_compiled += 1
        return tape

    # ------------------------------------------------------------------
    # Public emission surface (the frame Reducer's contract)

    def resolve_start(self, start: str | None = None) -> str:
        """*start*, else the grammar's start nonterminal; raises
        :class:`CoverError` when neither exists."""
        start_nt = start if start is not None else self.labeling.grammar.start
        if start_nt is None:
            raise CoverError("grammar has no start nonterminal")
        return start_nt

    def reduce_forest(self, forest: Forest, start: str | None = None) -> list[Any]:
        """Compile *forest*'s tape and sweep it; sets
        :attr:`last_cover_cost` to the tape's cost."""
        tape = self._compile(forest, self.resolve_start(start))
        values = self._sweep(tape)
        self.last_cover_cost = tape.cost
        return values
