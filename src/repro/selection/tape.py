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
   :class:`CompiledTape`: parallel postorder sequences (action thunks,
   operand-slot runs, per-entry nonterminal ids).  Per entry the walk
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
:attr:`CompiledTape.cost` is therefore the forest's cover cost, and a
replay reads it off the cached tape, so callers need no separate
:func:`~repro.selection.cover.extract_cover` walk.

Tape caching
------------
Tapes are cached by *shape*: a canonical DAG-aware signature over
``(operator name, payload, child ordinals)`` plus root ordinals.  A JIT-style
``recurring_stream`` batch (fresh-node clones of a few templates)
compiles each shape once and replays the tape for every repeat — only
the signature walk and the sweep run.  Re-emitting the same forest
object takes the same signature lookup, and a cached tape holds no IR
nodes, so the cache keeps no forest alive.  Caching is deliberately
conservative:

* grammars with dynamic rules are never cached (a dynamic cost may read
  node identity, so shape does not determine the cover); their tapes
  compile from fragments every time;
* forests sharing nodes with earlier batch members are never cached or
  replayed from cache (cross-forest memo hits must keep emitting once);
* unhashable payloads skip the cache.

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
from itertools import islice
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
    sequential by construction, so they are implicit).  A tape holds no
    IR nodes: the compiling sweep gets them from the compile walk, and
    a replay rebinds them through :attr:`node_ords`.

    Attributes:
        entries: Number of tape entries (= rule applications = values
            appended by one sweep).
        base: Value-buffer length the slot references were compiled
            against; replaying at a different buffer length rebases
            every reference by the difference.
        nt_ids: Interned nonterminal ids, one per entry (replays
            re-register ``(node, nonterminal)`` slots from these).
        node_ords: Each entry's node ordinal in the forest's canonical
            (signature) node order, or ``None`` for uncacheable tapes.
        runs: Per-entry ``tuple`` of encoded operand references,
            ``(slot << 1) | spliced`` (tuples of ints, which the garbage
            collector stops tracking, so cached tapes cost it nothing).
        root_refs: Absolute value slots, one per forest root, in root
            order.
        spliced: Per-entry splice flags: 1 for helper-rule entries whose
            value lists consumers splice flat.
        thunks: Per-entry action thunks ``(context, node, operands)
            -> value``, taken from the fragments (bound per context
            kind, so a tape serves any context of its compiler's kind).
        intra_hits: Memo hits the compile walk scored (all intra-forest
            for cacheable tapes); replays add the same count, keeping
            ``memo_hits`` parity with the frame engine.
        cost: Summed cost of the tape's entries, accumulated by the
            compile walk — a fragment's fixed cost, or
            :func:`~repro.selection.reducer.entry_cost` for a dynamic
            cost, evaluated there once per entry, so a raising one
            faults before any action runs.  For a self-contained tape
            this is the forest's cover cost — exactly
            ``extract_cover(...).total_cost()``.
        self_contained: True when no operand or root reference points
            below :attr:`base` (nothing was memo-hit from an earlier
            forest), so the tape's entries are the forest's whole cover.
        cacheable: True when the tape is self-contained and was compiled
            against a shape signature, so shape-keyed replay is sound.
    """

    __slots__ = (
        "entries",
        "base",
        "cost",
        "nt_ids",
        "node_ords",
        "runs",
        "root_refs",
        "spliced",
        "thunks",
        "intra_hits",
        "self_contained",
        "cacheable",
    )

    def __init__(
        self,
        *,
        base: int,
        cost: int | None,
        nt_ids: tuple,
        node_ords: tuple | None,
        runs: tuple,
        root_refs: tuple,
        spliced: tuple,
        thunks: list,
        intra_hits: int,
        self_contained: bool,
        cacheable: bool,
    ) -> None:
        self.entries = len(thunks)
        self.base = base
        self.cost = cost
        self.nt_ids = nt_ids
        self.node_ords = node_ords
        self.runs = runs
        self.root_refs = root_refs
        self.spliced = spliced
        self.thunks = thunks
        self.intra_hits = intra_hits
        self.self_contained = self_contained
        self.cacheable = cacheable

    def __repr__(self) -> str:
        return (
            f"CompiledTape(entries={self.entries}, roots={len(self.root_refs)}, "
            f"cost={self.cost}, cacheable={self.cacheable})"
        )


class TapeCache:
    """A bounded shape-keyed cache of :class:`CompiledTape` objects.

    Keys are ``(grammar version, start-nonterminal id, context kind,
    shape signature)``; eviction is FIFO (insertion order), sized for a
    JIT's working set of recurring shapes.  One cache is owned per
    :class:`~repro.selection.selector.Selector` and shared by every
    emitter the selector creates, so a long-lived selector amortises
    compilation across ``select_many`` calls.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = maxsize
        self._tapes: dict[tuple, CompiledTape] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._tapes)

    def get(self, key: tuple) -> CompiledTape | None:
        tape = self._tapes.get(key)
        if tape is None:
            self.misses += 1
        else:
            self.hits += 1
        return tape

    def put(self, key: tuple, tape: CompiledTape) -> None:
        tapes = self._tapes
        if key in tapes:
            return
        if len(tapes) >= self.maxsize:
            tapes.pop(next(iter(tapes)))
            self.evictions += 1
        tapes[key] = tape

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._tapes),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


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

    Additional counters: :attr:`tapes_compiled` and
    :attr:`tape_cache_hits` (replays of a shape-cached tape).

    Cover cost comes for free: the compile walk sums the costs of the
    entries it lays out into :attr:`CompiledTape.cost` — the frame
    engine's cost rule — so after each ``reduce_forest``
    :attr:`last_cover_cost` holds the forest's cover cost — straight
    from the cached tape on a replay — whenever the tape is
    self-contained (``None`` when it reached into an earlier forest's
    slots).
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
        self._cache = cache
        #: Shape caching is only sound when shape determines the cover.
        self._static_grammar = not labeling.grammar.has_dynamic_rules
        #: node key -> live slot-table entry count (guards the shape
        #: cache against cross-forest sharing); ``None`` when this
        #: emitter never consults the cache.
        self._seen: dict[int, int] | None = (
            {} if cache is not None and self._static_grammar else None
        )
        #: The context kind fragment thunks are bound for (1: the
        #: context has ``emit_template``) and its fragment table.
        self._templated = int(getattr(context, "emit_template", None) is not None)
        self._rows = labeling.automaton.fragments[self._templated]
        self.tapes_compiled = 0
        self.tape_cache_hits = 0

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
        briefly run ahead of the buffer inside ``emit_forest``).
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
        extra = len(slots) - size
        if extra <= 0:
            return
        seen = self._seen
        for key in list(islice(reversed(slots), extra)):
            del slots[key]
            if seen is None:
                continue
            node_key = key[0]
            live = seen[node_key] - 1
            if live:
                seen[node_key] = live
            else:
                del seen[node_key]

    # ------------------------------------------------------------------
    # Shape signatures

    def _signature(
        self, forest: Forest
    ) -> tuple[Any, list[Node], dict[int, int], bool]:
        """``(signature, canonical nodes, ord_of, shares)`` for *forest*.

        The signature is a canonical DAG-aware serialisation: one flat
        tuple listing, per node in a deterministic structural order, its
        operator *name*, payload, an arity marker
        (``-arity - 1``, always negative so the sequence parses
        unambiguously), and its child ordinals, followed by the root
        ordinals.  Two forests get the same signature iff they have the
        same shape *including sharing* (a tree and its DAG-shared twin
        emit different numbers of actions and must not collide).  The
        automaton keys transitions by ``op.name``, so the cover depends
        on the name alone; keying on the name also keeps the key's hash
        in C (a frozen-dataclass :class:`~repro.ir.ops.Operator` hashes
        a field tuple in Python code, and the key is hashed on every
        lookup).  The
        walk is inlined (no generator) and the serialisation flat (no
        per-node tuples) because this runs on the cache-hit fast path.

        ``signature`` is ``None`` when a payload is unhashable;
        ``ord_of`` maps ``id(node)`` to the node's canonical ordinal;
        *shares* is True when any forest node already holds a slot-table
        entry (cross-forest sharing, which disqualifies both cache
        lookup and store).
        """
        seen = self._seen
        ord_of: dict[int, int] = {}
        nodes: list[Node] = []
        append_node = nodes.append
        parts: list[Any] = []
        append_part = parts.append
        shares = False
        stack: list[tuple[Node, bool]] = []
        push = stack.append
        pop = stack.pop
        for root in forest.roots:
            if id(root) in ord_of:
                continue
            push((root, False))
            while stack:
                node, expanded = pop()
                node_id = id(node)
                if node_id in ord_of:
                    continue
                kids = node.kids
                if not expanded and kids:
                    # Any duplicate reference to *node* sits below this
                    # frame on the stack, so it pops only after the
                    # ordinal is assigned — the ``in ord_of`` guard
                    # above keeps shared (DAG) nodes linear.  Childless
                    # kids are serialised inline (in deterministic
                    # reverse child order) instead of round-tripping
                    # through the stack.
                    push((node, True))
                    for kid in reversed(kids):
                        kid_id = id(kid)
                        if kid_id in ord_of:
                            continue
                        if kid.kids:
                            push((kid, False))
                            continue
                        nid = kid.nid
                        if (nid if nid >= 0 else ~kid_id) in seen:
                            shares = True
                        ord_of[kid_id] = len(nodes)
                        append_node(kid)
                        append_part(kid.op.name)
                        append_part(kid.value)
                        append_part(-1)
                    continue
                nid = node.nid
                if (nid if nid >= 0 else ~node_id) in seen:
                    shares = True
                ord_of[node_id] = len(nodes)
                append_node(node)
                append_part(node.op.name)
                append_part(node.value)
                append_part(-len(kids) - 1)
                for kid in kids:
                    append_part(ord_of[id(kid)])
        for root in forest.roots:
            append_part(ord_of[id(root)])
        signature: Any = tuple(parts)
        try:
            hash(signature)
        except TypeError:
            signature = None
        return signature, nodes, ord_of, shares

    # ------------------------------------------------------------------
    # Compile

    def _compile_roots(
        self,
        pairs: list[tuple[Node, str]],
        ord_of: "dict[int, int] | None",
    ) -> tuple[CompiledTape, list[Node]]:
        """Lower the covers of ``(root, nonterminal)`` *pairs* to one tape.

        Returns the tape and its per-entry IR nodes, which only the
        immediate sweep needs (the tape itself keeps none).  Appends no
        values — the sweep does that — but registers every new entry's
        slot in the slot table as it is laid out, so later targets (and
        later forests) resolve shared reductions to existing slots.

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
        seen = self._seen
        base = len(self._values)
        base2 = next2 = base << 1
        node_states = self.labeling.node_states
        rows = self._rows
        fragment = self._fragment
        deadline = self.deadline_at_ns

        thunks: list[Any] = []
        nodes: list[Node] = []
        nt_ids: list[int] = []
        ref_runs: list[list[int] | tuple] = []
        root_refs: list[int] = []
        spliced_flags: list[bool] = []
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
                if seen is not None:
                    node_key = key[0]
                    seen[node_key] = seen.get(node_key, 0) + 1
                thunks.append(thunk)
                nodes.append(node)
                nt_ids.append(key[1])
                ref_runs.append(refs)
                spliced_flags.append(spliced)
                out_refs.append(encoded)
            root_refs.append(out[0] >> 1)

        self.memo_hits += hits
        cacheable = self_contained and ord_of is not None
        node_ords: tuple | None = None
        if cacheable:
            node_ords = tuple([ord_of[id(node)] for node in nodes])
        return CompiledTape(
            base=base,
            cost=cost,
            nt_ids=tuple(nt_ids),
            node_ords=node_ords,
            runs=tuple(map(tuple, ref_runs)),
            root_refs=tuple(root_refs),
            spliced=tuple(spliced_flags),
            thunks=thunks,
            intra_hits=hits,
            self_contained=self_contained,
            cacheable=cacheable,
        ), nodes

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

    def _sweep(
        self,
        tape: CompiledTape,
        nodes: list[Node],
        base: int,
        delta: int = 0,
    ) -> None:
        """Execute *tape* linearly, appending one value per entry.

        *delta* rebases the tape's operand-slot references onto the
        current buffer tail (non-zero only for cache replays, whose tape
        was compiled at a different buffer length).
        """
        buf = self._values
        append = buf.append
        context = self.context
        deadline = self.deadline_at_ns
        ticks = 0
        try:
            if deadline is None:
                # Deadline-free fast loop: no per-entry tick check.
                for thunk, node, run in zip(tape.thunks, nodes, tape.runs):
                    operands: list[Any] = []
                    for ref in run:
                        if ref & 1:
                            operands.extend(buf[(ref >> 1) + delta])
                        else:
                            operands.append(buf[(ref >> 1) + delta])
                    append(thunk(context, node, operands))
            else:
                for thunk, node, run in zip(tape.thunks, nodes, tape.runs):
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                    operands = []
                    for ref in run:
                        if ref & 1:
                            operands.extend(buf[(ref >> 1) + delta])
                        else:
                            operands.append(buf[(ref >> 1) + delta])
                    append(thunk(context, node, operands))
        except DeadlineExceededError:
            # A deadline abort is not the action's fault: no provenance,
            # exactly like the frame engine's out-of-try check.
            self._note_fault(tape, base)
            raise
        except Exception as exc:
            completed = len(buf) - base
            attach_node_provenance(exc, nodes[completed])
            self._note_fault(tape, base)
            raise
        except BaseException:
            self._note_fault(tape, base)
            raise
        self.reductions += tape.entries

    def _note_fault(self, tape: CompiledTape, base: int) -> None:
        """Restore the engine's invariants after a mid-sweep fault.

        Counts the entries that completed into :attr:`reductions`, trims
        the slot table back in line with the value buffer (only
        completed entries stay memoised, matching the frame engine), and
        records how many roots fully emitted — the leading run of roots
        (in root order) whose result slots precede the fault point.
        """
        fault_slot = len(self._values)
        self.reductions += fault_slot - base
        self._truncate_slots(fault_slot)
        delta = base - tape.base
        completed = 0
        for ref in tape.root_refs:
            if ref + delta >= fault_slot:
                break
            completed += 1
        self.last_roots_completed = completed

    def _replay(self, tape: CompiledTape, sig_nodes: list[Node]) -> list[Any]:
        """Re-emit a shape-cached *tape* against fresh nodes.

        Rebinds each entry's node through the canonical node order,
        rebases slot references onto the current buffer tail, registers
        the replayed entries in the slot table (so later forests can
        share and rollback stays a truncation), and sweeps.  A cached
        tape is self-contained, so its cost is the forest's cover cost.
        """
        base = len(self._values)
        delta = base - tape.base
        slots = self._slots
        seen = self._seen
        seen_get = seen.get
        nt_ids = tape.nt_ids
        spliced = tape.spliced
        nodes: list[Node] = []
        append_node = nodes.append
        slot2 = base << 1
        for i, ordinal in enumerate(tape.node_ords):
            node = sig_nodes[ordinal]
            append_node(node)
            nid = node.nid
            node_key = nid if nid >= 0 else ~id(node)
            slots[(node_key, nt_ids[i])] = slot2 + (i << 1) + spliced[i]
            count = seen_get(node_key)
            seen[node_key] = 1 if count is None else count + 1
        self.memo_hits += tape.intra_hits
        self.tape_cache_hits += 1
        self._sweep(tape, nodes, base, delta)
        self.last_cover_cost = tape.cost
        buf = self._values
        return [buf[ref + delta] for ref in tape.root_refs]

    # ------------------------------------------------------------------
    # Public emission surface (Reducer-compatible)

    def reduce_forest(self, forest: Forest, start: str | None = None) -> list[Any]:
        """Compile (or replay) *forest*'s tape and sweep it.

        Also sets :attr:`last_cover_cost` to the forest's cover cost
        when its tape is self-contained (``None`` otherwise).
        """
        start_nt = self.resolve_start(start)
        cache = self._cache
        ord_of: dict[int, int] | None = None
        key: tuple | None = None
        if cache is not None and self._static_grammar:
            sig, sig_nodes, sig_ords, shares = self._signature(forest)
            if sig is not None and not shares:
                key = (self.labeling.grammar.version, start_nt, type(self.context), sig)
                tape = cache.get(key)
                if tape is not None:
                    return self._replay(tape, sig_nodes)
                ord_of = sig_ords
        mark = len(self._values)
        tracer = self._tracer
        compile_start = (
            time.monotonic_ns() if tracer is not None and tracer.enabled else None
        )
        try:
            tape, nodes = self._compile_roots(
                [(root, start_nt) for root in forest.roots], ord_of
            )
        except Exception:
            # A compile fault precedes all emission: nothing ran, so
            # nothing completed; clear the slot table's dead tail.
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
        if key is not None and tape.cacheable:
            cache.put(key, tape)
        self._sweep(tape, nodes, tape.base)
        self.last_cover_cost = tape.cost if tape.self_contained else None
        buf = self._values
        return [buf[ref] for ref in tape.root_refs]

    def reduce(self, node: Node, nonterminal: str) -> Any:
        """Reduce one ``(node, nonterminal)`` pair through a tape.

        Compiles a single-root tape (resolving already-emitted
        reductions to their slots) and sweeps it; an already-memoised
        pair is answered straight from its slot.
        """
        mark = len(self._values)
        try:
            tape, nodes = self._compile_roots([(node, nonterminal)], None)
        except Exception:
            self.last_roots_completed = 0
            self._truncate_slots(mark)
            raise
        if tape.entries:
            self.tapes_compiled += 1
        self._sweep(tape, nodes, tape.base)
        return self._values[tape.root_refs[0]]
