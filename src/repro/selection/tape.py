"""Cover compilation: lower covers to flat instruction tapes.

The frame-stack :class:`~repro.selection.reducer.Reducer` re-walks the
cover on every emission, resolving each ``(node, nonterminal)`` pair's
rule and operand targets as it goes.  An automaton labeling has already
fixed all of that: a node's state determines, for every goal
nonterminal, the rule, its thunk, its cost and its targets.  This module
splits emission into an explicit two-phase pipeline, the same lowering
shape ERTL/RTL-style backends use to turn selected covers into flat
instruction sequences:

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
   to transitions.  Entry *i*'s result lands in value-buffer slot
   ``base + i``, so result slots are implicit and operand references
   are plain slot indices, encoded ``(slot << 1) | spliced`` — bit 0
   marks operands produced by normalisation helper rules, whose value
   lists are spliced flat exactly as the frame engine splices
   ``_SplicedOperands``.
2. **Sweep** — one linear pass over the tape runs the thunks against a
   single shared value buffer: no frames, no memo probes, no per-frame
   operand lists; operand gather is slot indexing.

The compile walk replicates the frame engine's exact left-to-right
postorder — including where memo hits happen — so both engines run the
same actions in the same order with the same operands, which is what the
differential tests assert byte-for-byte.  The tape compiles automaton
labelings only (:class:`TapeEmitter` raises :class:`TypeError` on any
other); a DP labeling has no states, and the frame engine emits it.

Cover cost
----------
The compile walk also costs the cover it lays out: each entry adds its
fragment's fixed cost, or :func:`~repro.selection.reducer.entry_cost`
for a ``dynamic_cost`` rule, evaluated once per entry — the one cost
rule the frame engine's walk applies too.  A self-contained tape's
:attr:`CompiledTape.cost` is therefore the forest's cover cost, so
callers need no separate :func:`~repro.selection.cover.extract_cover`
walk.

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
values[mark:]`` plus popping the slot table's tail — instead of the
frame engine's reverse-ordered memo surgery.  Because compilation
precedes emission, a forest whose cover is broken (``CoverError``)
faults *before any action runs*: the frame engine may emit a partial
prefix into the context before discovering the hole, the tape engine
never does.
"""

from __future__ import annotations

import time
from typing import Any

from repro.errors import CoverError, DeadlineExceededError
from repro.ir.node import Forest, Node
from repro.selection.automaton import AutomatonLabeling
from repro.selection.cover import Labeling, require_structural_match
from repro.selection.reducer import Reducer, entry_cost
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
            faults before any action runs.  For a self-contained tape
            this is the forest's cover cost — exactly
            ``extract_cover(...).total_cost()``.
        thunks: Per-entry action thunks ``(context, node, operands)
            -> value``, taken from the fragments (bound per context
            kind, so a tape serves any context of its compiler's kind).
        nodes: Per-entry IR nodes, the thunks' ``node`` argument.
        runs: Per-entry operand references, ``(slot << 1) | spliced``.
        root_refs: Absolute value slots, one per root, in root order.
        self_contained: True when no operand or root reference points
            below :attr:`base` (nothing was memo-hit from an earlier
            forest), so the tape's entries are the forest's whole cover.
    """

    __slots__ = (
        "entries",
        "base",
        "cost",
        "thunks",
        "nodes",
        "runs",
        "root_refs",
        "self_contained",
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
        self_contained: bool,
    ) -> None:
        self.entries = len(thunks)
        self.base = base
        self.cost = cost
        self.thunks = thunks
        self.nodes = nodes
        self.runs = runs
        self.root_refs = root_refs
        self.self_contained = self_contained

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


class TapeEmitter(Reducer):
    """The tape-based emission engine: compile covers, sweep tapes.

    A drop-in replacement for the frame-stack
    :class:`~repro.selection.reducer.Reducer` over automaton labelings
    — same constructor, same ``reduce``/``reduce_forest``/
    ``resolve_start`` surface, same ``reductions``/``memo_hits``
    counter semantics, same ``memo_size``/``rollback_to``
    fault-isolation contract — that emits through tapes compiled from
    the automaton's derivation fragments instead of a frame stack.  Any
    other labeling raises :class:`TypeError`.  Cross-forest
    memoisation is preserved: the slot table (keyed like the frame
    engine's memo, by ``node.nid`` with an address fallback) spans the
    emitter's lifetime, so a node shared between batch forests emits
    once and later forests reference its slot.

    Every ``reduce_forest``/``reduce`` compiles one tape and sweeps it;
    :attr:`tapes_compiled` counts the non-empty ones.  *cache* is
    accepted for compatibility and ignored (see :class:`TapeCache`).

    Cover cost comes for free: the compile walk sums the costs of the
    entries it lays out into :attr:`CompiledTape.cost` — the frame
    engine's cost rule — so after each ``reduce_forest``
    :attr:`last_cover_cost` holds the forest's cover cost whenever the
    tape is self-contained (``None`` when it reached into an earlier
    forest's slots).
    """

    def __init__(
        self,
        labeling: Labeling,
        context: Any = None,
        *,
        deadline_at_ns: int | None = None,
        cache: TapeCache | None = None,
        tracer: Any = None,
    ) -> None:
        if not isinstance(labeling, AutomatonLabeling):
            raise TypeError(
                f"TapeEmitter compiles automaton labelings only, got "
                f"{type(labeling).__name__}; emit it with the frame Reducer"
            )
        super().__init__(labeling, context, deadline_at_ns=deadline_at_ns)
        #: Optional span tracer; when enabled, each cover-to-tape
        #: compilation records a ``pipeline.tape_compile`` span.
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

    def _compile_roots(self, pairs: list[tuple[Node, str]]) -> CompiledTape:
        """Lower the covers of ``(root, nonterminal)`` *pairs* to one tape.

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
        entry per chain step, then pends the base rule's entry and
        pushes its targets' visits in reverse, so targets resolve left
        to right and entries land in the frame engine's exact
        postorder, with the same memo hits; a leaf entry is laid out at
        once.  A laid-out or memo-hit target appends its encoded slot to
        its parent's ``refs`` (*out*).  The walk keeps the frame
        engine's deadline strides and sums each new entry's
        :func:`entry_cost` into the tape's ``cost``.  It needs no cycle
        guard: IR nodes form a DAG, and the automaton rejects chain-rule
        cycles when it builds a fragment.
        """
        slots = self._slots
        slots_get = slots.get
        base = len(self._values)
        base2 = next2 = base << 1
        node_states = self.labeling.node_states
        rows = self._rows
        fragment = self._fragment
        deadline = self.deadline_at_ns

        thunks: list[Any] = []
        nodes: list[Node] = []
        runs: list[list[int] | tuple] = []
        root_refs: list[int] = []
        hits = 0
        cost = 0
        self_contained = True
        ticks = 0

        for root, nonterminal in pairs:
            out: list[int] = []
            stack: list[tuple] = [(root, self._nt_id(nonterminal), out, None, None)]
            push = stack.append
            pop = stack.pop
            while stack:
                if deadline is not None:
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                node, tag, out_refs, emit, refs = pop()
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
                        if encoded < base2:
                            self_contained = False
                        out_refs.append(encoded)
                        continue
                    kids = node.kids
                    if node.op.name != op_name or len(kids) != len(kid_goals):
                        require_structural_match(emit[3].pattern, node)
                    if kids:
                        refs = []
                        push((node, key, out_refs, emit, refs))
                        if len(kids) == 2:
                            push((kids[1], kid_goals[1], refs, None, None))
                            push((kids[0], kid_goals[0], refs, None, None))
                        else:
                            for index in range(len(kids) - 1, -1, -1):
                                push((kids[index], kid_goals[index], refs, None, None))
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
            root_refs.append(out[0] >> 1)

        self.memo_hits += hits
        return CompiledTape(
            base=base,
            cost=cost,
            thunks=thunks,
            nodes=nodes,
            runs=runs,
            root_refs=root_refs,
            self_contained=self_contained,
        )

    def _fragment(self, state: Any, goal: int, node: Node) -> tuple:
        """Build the fragment the walk's table lookup missed, or raise
        the frame engine's :class:`CoverError` when *node* (labeled
        *state*) has no derivation of *goal*."""
        built = self.labeling.automaton.fragment(state, goal, self._templated)
        if built is None:
            names = {nt_id: name for name, nt_id in self._nt_ids.items()}
            self.labeling.require_rule(node, names[goal])
            raise CoverError(f"no fragment for nonterminal {names[goal]!r} at {state!r}")
        return built

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

    def _emit(self, pairs: list[tuple[Node, str]], forest: Forest | None = None) -> CompiledTape:
        """Compile the covers of *pairs* to one tape and sweep it.

        A compile fault precedes all emission: nothing ran, so nothing
        completed, and the slot table's dead tail is cleared.  With an
        enabled tracer the compile walk of a *forest* records a
        ``pipeline.tape_compile`` span.
        """
        mark = len(self._values)
        tracer = self._tracer
        compile_start = (
            time.monotonic_ns()
            if forest is not None and tracer is not None and tracer.enabled
            else None
        )
        try:
            tape = self._compile_roots(pairs)
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
    # Public emission surface (Reducer-compatible)

    def reduce_forest(self, forest: Forest, start: str | None = None) -> list[Any]:
        """Compile *forest*'s tape and sweep it.

        Also sets :attr:`last_cover_cost` to the forest's cover cost
        when its tape is self-contained (``None`` otherwise).
        """
        start_nt = self.resolve_start(start)
        tape = self._emit([(root, start_nt) for root in forest.roots], forest)
        self.last_cover_cost = tape.cost if tape.self_contained else None
        buf = self._values
        return [buf[ref] for ref in tape.root_refs]

    def reduce(self, node: Node, nonterminal: str) -> Any:
        """Reduce one ``(node, nonterminal)`` pair through a tape.

        Compiles a single-root tape (resolving already-emitted
        reductions to their slots) and sweeps it; an already-memoised
        pair is answered straight from its slot.
        """
        tape = self._emit([(node, nonterminal)])
        return self._values[tape.root_refs[0]]
