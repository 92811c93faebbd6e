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
   :class:`CompiledTape`: parallel postorder sequences (action thunks, IR
   nodes, operand-slot runs).  Per entry the walk
   reads the node's state off the labeling and appends the automaton's
   *derivation fragment* for ``(state, goal)``
   (:meth:`~repro.selection.automaton.OnDemandAutomaton.fragment`): the
   rule, its thunk and splice flag, its fixed cost, and either the chain
   rule's source goal or the base rule's operator and child goals.
   Fragments are built once per pair on first use, next to the
   transition tables, the same on-demand discipline the paper applies
   to transitions; goals are the state pool's nonterminal ids, the id
   space the fragments are keyed by.  Entry *i*'s result lands in
   value-buffer slot ``base + i``, so result slots are implicit and
   operand references are value-buffer indices, encoded ``(index << 1)
   | spliced`` — bit 0 marks operands produced by normalisation helper
   rules, whose value lists are spliced flat exactly as the frame
   engine splices ``_SplicedOperands``.
2. **Sweep** — one linear pass over the tape runs the thunks against a
   single shared value buffer: no frames, no memo probes, no per-frame
   operand lists; operand gather is ``buf[ref >> 1]``.

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
operand refs are absolute slots, ``(slot << 1) | spliced``.

The **tree walk** (:meth:`TapeEmitter._compile_tree`) has no slot table
and no pending entries.  It runs when the labeling is a tree
(:attr:`~repro.selection.automaton.AutomatonLabeling.tree`: every
labeled node has exactly one referrer, which the labeling walk's edge
count decides) *and* the emitter was built with ``once=True``, the
caller's promise to emit each forest of the labeled batch once — as
:meth:`~repro.selection.selector.Selector.select_many` does.  Then no
entry can recur, so there is nothing to key or probe.  The walk lays
out entries parent-first and right to left, then reverses them into the
slot walk's exact postorder; an operand ref is the *negative* distance
back to the operand, ``(-d << 1) | spliced``, which the sweep reads as
``buf[ref >> 1]`` unchanged.  Root refs stay absolute.  It evaluates
dynamic costs after the layout, in postorder, and raises a root's
missing derivation only once the roots before it are costed, so its
first fault is the slot walk's.  DAG batches and any emitter built
without ``once`` keep the slot walk and its memo hits.

Both walks carry the visit they would pop next in locals rather than
pushing it — the tree walk its last kid's, the slot walk its first
kid's — so no visit down a unary chain is pushed.  Neither the layout
nor the memo hits change, and the deadline still ticks once per visit
(and, in the slot walk, once per pending entry).

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
The batch-shared value buffer makes rollback a *truncation*: a
fault-isolating caller snapshots ``memo_size()`` (the buffer length)
before a forest and ``rollback_to()`` it after a fault — ``del
values[mark:]`` plus popping the slot table's tail (the tree walk has
none) — instead of the
frame engine's reverse-ordered memo surgery.  Because compilation
precedes emission, a forest whose cover is broken (``CoverError``)
faults *before any action runs*: the frame engine may emit a partial
prefix into the context before discovering the hole, the tape engine
never does.
"""

from __future__ import annotations

import time
from typing import Any, NoReturn

from repro.errors import CoverError, DeadlineExceededError
from repro.ir.node import Forest, Node
from repro.selection.automaton import AutomatonLabeling
from repro.selection.cover import Labeling, require_structural_match
from repro.selection.reducer import entry_cost
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)

__all__ = ["CompiledTape", "TapeCache", "TapeEmitter"]

class CompiledTape:
    """One forest's cover, lowered to flat postorder instruction tuples.

    All sequences are parallel over ``entries`` tape entries, one per
    derivation fragment the compile walk laid out; entry *i*'s semantic
    value lands in value-buffer slot ``base + i`` (result slots are
    sequential by construction, so they are implicit).  A tape lives
    only from its compile walk to the end of its sweep.

    Attributes:
        entries: Number of tape entries (= rule applications = values
            appended by one sweep).
        base: Value-buffer length the tape was compiled against.
        cost: Summed cost of the tape's entries, accumulated by the
            compile walk — a fragment's fixed cost, or
            :func:`~repro.selection.reducer.entry_cost` for a dynamic
            cost, evaluated there once per entry, so a raising one
            faults before any action runs.  Entries reached through the
            slot table (an earlier tape's) are not this tape's and add
            nothing.
        thunks: Per-entry action thunks ``(context, node, operands)
            -> value``, taken from the fragments (bound per context
            kind, so a tape serves any context of its compiler's kind).
        nodes: Per-entry IR nodes, the thunks' ``node`` argument.
        runs: Per-entry operand references, ``(index << 1) | spliced``
            with ``buf[index]`` the operand's value: an absolute slot
            from the slot walk, a negative distance back from the
            entry's own slot (``-d`` for the operand *d* entries
            earlier) from the tree walk.
        root_refs: Absolute value slots, one per root, in root order.
    """

    __slots__ = (
        "entries",
        "base",
        "cost",
        "thunks",
        "nodes",
        "runs",
        "root_refs",
    )

    def __init__(
        self,
        *,
        base: int,
        cost: int,
        thunks: list,
        nodes: list,
        runs: list,
        root_refs: list,
    ) -> None:
        self.entries = len(thunks)
        self.base = base
        self.cost = cost
        self.thunks = thunks
        self.nodes = nodes
        self.runs = runs
        self.root_refs = root_refs

    def __repr__(self) -> str:
        return (
            f"CompiledTape(entries={self.entries}, roots={len(self.root_refs)}, "
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
    :func:`~repro.selection.reducer.node_memo_key` and the state pool's
    goal id) spans the emitter's lifetime, so a node shared between
    batch forests emits once and later forests reference its slot.

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
        #: The batch-shared value buffer; entry slots index into it.
        self._values: list[Any] = []
        #: ``(node key, nt id) -> (slot << 1) | spliced`` — insertion
        #: ordered and slot-monotone, so rollback is a tail truncation.
        self._slots: dict[tuple[int, int], int] = {}
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
        """Current value-buffer length — a rollback point for
        :meth:`rollback_to`."""
        return len(self._values)

    def rollback_to(self, size: int) -> int:
        """Truncate the value buffer (and the slot table's tail) back to
        *size* slots; returns the number of values discarded.

        Also clears slot-table entries registered by a compile that
        faulted before its sweep appended anything (the slot table may
        briefly run ahead of the buffer inside :meth:`_emit`).
        """
        values = self._values
        excess = len(values) - size
        if excess > 0:
            del values[size:]
            self.reductions -= excess
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

        A visit ``(node, goal, out, pos, parent)`` lays out the chain
        ladder from *goal* down, then the base entry, then pushes one
        visit per kid but the last, whose visit it carries on to in
        locals (the last kid goes first); the roots go last to first,
        so the layout is the slot walk's postorder backwards.
        The entry laid out at index *j* is the operand ``out[pos]`` of
        the one laid out at *parent* < *j*, which after the reversal
        follows it by ``j - parent`` slots: its ref is ``((parent - j)
        << 1) | spliced``.  A :class:`CoverError` at a root drops the
        layout of the roots after it, which the slot walk never reaches.
        """
        base = len(self._values)
        node_states = self.labeling.node_states
        rows = self._rows
        fragment = self._fragment
        deadline = self.deadline_at_ns
        start_goal = self._nt_ids.get(start)
        roots = forest.roots
        if start_goal is None and roots:
            self._underivable(roots[0], start)

        thunks: list[Any] = []
        nodes: list[Node] = []
        runs: list[list[int] | tuple] = []
        tops: list[int] = []  # each root's top entry, last root first
        dynamic: list[tuple] = []  # (rule, node) per dynamic-cost entry
        cost = 0
        ticks = 0
        laid = 0
        fault: CoverError | None = None
        stack: list[tuple] = []
        push = stack.append
        pop = stack.pop

        for root in reversed(roots):
            tops.append(laid)
            # The visit in hand; the last kid's is carried, not pushed.
            node, goal, out, pos, parent = root, start_goal, None, 0, 0
            try:
                while True:
                    if deadline is not None:
                        ticks += 1
                        if ticks >= DEADLINE_CHECK_EVERY:
                            ticks = 0
                            check_deadline(deadline, "reduce")
                    state = node_states.get(id(node))
                    while True:
                        try:
                            frag = rows[state][goal]
                        except (KeyError, IndexError):
                            frag = None
                        if frag is None:
                            frag = fragment(state, goal, node)
                        emit, goal, op_name, kid_goals = frag
                        thunk, spliced, entry, rule = emit
                        if out is not None:
                            out[pos] = ((parent - laid) << 1) | spliced
                        if entry is None:
                            dynamic.append((rule, node))
                        else:
                            cost += entry
                        thunks.append(thunk)
                        nodes.append(node)
                        if kid_goals is not None:
                            break
                        # A chain rule: its one operand is this node from
                        # the source goal, laid out next.
                        out = [0]
                        runs.append(out)
                        pos = 0
                        parent = laid
                        laid += 1
                    kids = node.kids
                    if node.op.name != op_name or len(kids) != len(kid_goals):
                        require_structural_match(rule.pattern, node)
                    parent = laid
                    laid += 1
                    if len(kids) == 2:
                        out = [0, 0]
                        push((kids[0], kid_goals[0], out, 0, parent))
                        runs.append(out)
                        node = kids[1]
                        goal = kid_goals[1]
                        pos = 1
                    elif kids:
                        out = [0] * len(kids)
                        pos = len(kids) - 1
                        for index in range(pos):
                            push((kids[index], kid_goals[index], out, index, parent))
                        runs.append(out)
                        node = kids[pos]
                        goal = kid_goals[pos]
                    else:
                        runs.append(())
                        if not stack:
                            break
                        node, goal, out, pos, parent = pop()
            except CoverError as exc:
                fault = exc
                stack.clear()
                for laid_out in (thunks, nodes, runs, tops, dynamic):
                    laid_out.clear()
                cost = laid = 0

        for rule, node in reversed(dynamic):
            cost += entry_cost(rule, node)
        if fault is not None:
            raise fault
        thunks.reverse()
        nodes.reverse()
        runs.reverse()
        last = base + laid - 1
        return CompiledTape(
            base=base,
            cost=cost,
            thunks=thunks,
            nodes=nodes,
            runs=runs,
            root_refs=[last - top for top in reversed(tops)],
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
        goal)``.  Its stack holds *visits* ``(node, goal, out, None,
        None)`` and pending *entries* ``(node, key, out, emit, refs)``.
        A visit follows the node's chain rules on the spot, pending one
        entry per chain step, then pends the base rule's entry, pushes
        its targets' visits but the first in reverse and carries on to
        the first in locals, so targets resolve left to right and
        entries land in the frame engine's exact postorder, with the
        same memo hits; a leaf entry is laid out at once.  A laid-out
        or memo-hit target appends its encoded slot to its parent's
        ``refs`` (*out*).  The walk keeps the frame
        engine's deadline strides and sums each new entry's
        :func:`entry_cost` into the tape's ``cost``.  It needs no cycle
        guard: IR nodes form a DAG, and the automaton rejects chain-rule
        cycles when it builds a fragment.
        """
        slots = self._slots
        slots_get = slots.get
        base = len(self._values)
        next2 = base << 1
        node_states = self.labeling.node_states
        rows = self._rows
        fragment = self._fragment
        deadline = self.deadline_at_ns
        # Looked up, never declared: a name the grammar does not know
        # derives nothing, and must not grow the pool's id space.
        start_goal = self._nt_ids.get(start)
        if start_goal is None and forest.roots:
            self._underivable(forest.roots[0], start)

        thunks: list[Any] = []
        nodes: list[Node] = []
        runs: list[list[int] | tuple] = []
        root_refs: list[int] = []
        hits = 0
        cost = 0
        ticks = 0

        stack: list[tuple] = []
        push = stack.append
        pop = stack.pop
        for root in forest.roots:
            out: list[int] = []
            # The item in hand: a visit (emit None) or a pending entry;
            # the first kid's visit is carried, not pushed.
            node, tag, out_refs, emit = root, start_goal, out, None
            while True:
                if deadline is not None:
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                if emit is not None:
                    key = tag
                else:
                    nid = node.nid
                    node_key = nid if nid >= 0 else ~id(node)
                    key = (node_key, tag)
                    encoded = slots_get(key)
                    if encoded is None:
                        state = node_states.get(id(node))
                        goal = tag
                        while True:
                            try:
                                frag = rows[state][goal]
                            except (KeyError, IndexError):
                                frag = None
                            if frag is None:
                                frag = fragment(state, goal, node)
                            emit, goal, op_name, kid_goals = frag
                            if kid_goals is not None:
                                break
                            # A chain rule: pend its entry; its one
                            # target is this node, from the source goal.
                            refs = []
                            push((node, key, out_refs, emit, refs))
                            out_refs = refs
                            key = (node_key, goal)
                            encoded = slots_get(key)
                            if encoded is not None:
                                break
                    if encoded is not None:
                        hits += 1
                        out_refs.append(encoded)
                        if not stack:
                            break
                        node, tag, out_refs, emit, refs = pop()
                        continue
                    kids = node.kids
                    if node.op.name != op_name or len(kids) != len(kid_goals):
                        require_structural_match(emit[3].pattern, node)
                    if kids:
                        refs = []
                        push((node, key, out_refs, emit, refs))
                        if len(kids) == 2:
                            push((kids[1], kid_goals[1], refs, None, None))
                        else:
                            for index in range(len(kids) - 1, 0, -1):
                                push((kids[index], kid_goals[index], refs, None, None))
                        node = kids[0]
                        tag = kid_goals[0]
                        out_refs = refs
                        emit = None
                        continue
                    # A leaf entry has no targets: lay it out right away.
                    refs = ()
                thunk, spliced, entry, rule = emit
                cost += entry_cost(rule, node) if entry is None else entry
                encoded = next2 | spliced
                next2 += 2
                slots[key] = encoded
                thunks.append(thunk)
                nodes.append(node)
                runs.append(refs)
                out_refs.append(encoded)
                if not stack:
                    break
                node, tag, out_refs, emit, refs = pop()
            root_refs.append(out[0] >> 1)

        self.memo_hits += hits
        return CompiledTape(
            base=base,
            cost=cost,
            thunks=thunks,
            nodes=nodes,
            runs=runs,
            root_refs=root_refs,
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

    def _sweep(self, tape: CompiledTape) -> None:
        """Execute *tape* linearly, appending one value per entry."""
        buf = self._values
        append = buf.append
        context = self.context
        deadline = self.deadline_at_ns
        ticks = 0
        try:
            if deadline is None:
                # Deadline-free fast loop: no per-entry tick check.
                for thunk, node, run in zip(tape.thunks, tape.nodes, tape.runs):
                    operands: list[Any] = []
                    for ref in run:
                        if ref & 1:
                            operands.extend(buf[ref >> 1])
                        else:
                            operands.append(buf[ref >> 1])
                    append(thunk(context, node, operands))
            else:
                for thunk, node, run in zip(tape.thunks, tape.nodes, tape.runs):
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                    operands = []
                    for ref in run:
                        if ref & 1:
                            operands.extend(buf[ref >> 1])
                        else:
                            operands.append(buf[ref >> 1])
                    append(thunk(context, node, operands))
        except DeadlineExceededError:
            # A deadline abort is not the action's fault: no provenance,
            # exactly like the frame engine's out-of-try check.
            self._note_fault(tape)
            raise
        except Exception as exc:
            attach_node_provenance(exc, tape.nodes[len(buf) - tape.base])
            self._note_fault(tape)
            raise
        except BaseException:
            self._note_fault(tape)
            raise
        self.reductions += tape.entries

    def _note_fault(self, tape: CompiledTape) -> None:
        """Restore the engine's invariants after a mid-sweep fault.

        Counts the entries that completed into :attr:`reductions`, trims
        the slot table back in line with the value buffer (only
        completed entries stay memoised, matching the frame engine), and
        records how many roots fully emitted — the leading run of roots
        (in root order) whose result slots precede the fault point.
        """
        fault_slot = len(self._values)
        self.reductions += fault_slot - tape.base
        self._truncate_slots(fault_slot)
        completed = 0
        for ref in tape.root_refs:
            if ref >= fault_slot:
                break
            completed += 1
        self.last_roots_completed = completed

    def _emit(self, forest: Forest, start: str) -> CompiledTape:
        """Compile *forest*'s cover from *start* to one tape and sweep it.

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
        self._sweep(tape)
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
        tape = self._emit(forest, self.resolve_start(start))
        self.last_cover_cost = tape.cost
        buf = self._values
        return [buf[ref] for ref in tape.root_refs]
