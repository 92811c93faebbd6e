"""Cover-array compilation: lower covers to flat instruction tapes.

The frame-stack :class:`~repro.selection.reducer.Reducer` re-walks the
cover on every emission: per-call frames, a per-frame operand list, and
a memo probe per reduction target.  In the paper's JIT setting the emit
step runs once per compiled function on a hot path, and the cover it
walks is *fixed* the moment labeling finishes — so this module splits
emission into an explicit two-phase pipeline, the same lowering shape
ERTL/RTL-style backends use to turn selected covers into flat
instruction sequences:

1. **Compile** — one walk over the cover lowers each forest to a
   :class:`CompiledTape`: parallel, ``array('q')``-packed postorder
   arrays (rule numbers, operand-slot runs, per-entry nonterminal ids —
   the same wire style as the AOT table matrices).  Entry *i*'s result
   lands in value-buffer slot ``base + i``, so result slots are implicit
   and operand references are plain slot indices, encoded
   ``(slot << 1) | spliced`` — bit 0 marks operands produced by
   normalisation helper rules, whose value lists are spliced flat
   exactly as the frame engine splices ``_SplicedOperands``.
2. **Sweep** — one linear pass over the tape runs precompiled per-rule
   action thunks against a single shared value buffer: no frames, no
   memo probes, no per-frame operand lists; operand gather is slot
   indexing.

The compile walk replicates the frame engine's exact left-to-right
postorder — including where memo hits happen — so both engines run the
same actions in the same order with the same operands, which is what the
differential tests assert byte-for-byte.

Cover cost
----------
The compile walk also costs the cover it lays out: each entry adds
:func:`~repro.selection.reducer.entry_cost`, the one cost rule the
frame engine's walk applies too (a constraint rule adds its fixed cost,
a ``dynamic_cost`` rule is evaluated once per entry).  A self-contained
tape's :attr:`CompiledTape.cost` is therefore the forest's cover cost,
and a replay reads it off the cached tape, so callers need no separate
:func:`~repro.selection.cover.extract_cover` walk.

Tape caching
------------
Tapes are cached by *shape*: a canonical DAG-aware signature over
``(operator name, payload, child ordinals)`` plus root ordinals.  A JIT-style
``recurring_stream`` batch (fresh-node clones of a few templates)
compiles each shape once and replays the tape for every repeat — the
walk, rule lookups, and operand planning are all skipped; only the
sweep runs.  Caching is deliberately conservative:

* grammars with dynamic rules are never cached (a dynamic cost may read
  node identity, so shape does not determine the cover);
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
from array import array
from itertools import islice
from typing import Any

from repro.errors import CoverError, DeadlineExceededError
from repro.grammar.rule import Rule
from repro.ir.node import Forest, Node
from repro.selection.cover import Labeling
from repro.selection.reducer import (
    Reducer,
    _SplicedOperands,
    entry_cost,
    flatten_operands,
)
from repro.selection.resilience import (
    DEADLINE_CHECK_EVERY,
    attach_node_provenance,
    check_deadline,
)

__all__ = ["CompiledTape", "TapeCache", "TapeEmitter"]

#: Frame slots of the compile walk's explicit stack (mirrors the frame
#: engine's layout; operands are replaced by encoded operand refs).
_F_KEY, _F_NODE, _F_RULE, _F_REFS, _F_TARGETS, _F_INDEX = range(6)


class CompiledTape:
    """One forest's cover, lowered to flat postorder instruction arrays.

    All arrays are parallel over ``entries`` tape entries; entry *i*'s
    semantic value lands in value-buffer slot ``base + i`` (result
    slots are sequential by construction, so they are implicit).

    Attributes:
        entries: Number of tape entries (= rule applications = values
            appended by one sweep).
        base: Value-buffer length the slot references were compiled
            against; replaying at a different buffer length rebases
            every reference by the difference.
        rule_ids: ``array('q')`` of original rule numbers, one per
            entry — the wire-format view of the tape (diagnostics,
            differential tests, and the handoff format for a native
            sweep kernel).
        nt_ids: ``array('q')`` of interned nonterminal ids, one per
            entry (replays re-register ``(node, nonterminal)`` slots
            from these).
        node_ords: ``array('q')`` mapping each entry to its node's
            ordinal in the forest's canonical (signature) node order,
            or ``None`` for uncacheable tapes.
        opnd_refs: Flat ``array('q')`` of encoded operand references,
            ``(slot << 1) | spliced``.
        opnd_offsets: ``array('q')`` of length ``entries + 1``; entry
            *i*'s operand run is ``opnd_refs[opnd_offsets[i] :
            opnd_offsets[i + 1]]``.
        runs: The same operand runs as per-entry ``tuple``s — the
            sweep-side view of ``opnd_refs``/``opnd_offsets`` (tuple
            iteration avoids a slice allocation and an ``array`` element
            boxing per entry on the hot path; the arrays stay the
            canonical wire format).
        root_refs: ``array('q')`` of absolute value slots, one per
            forest root, in root order.
        spliced: Per-entry splice flags (``bytes``): 1 for helper-rule
            entries whose value lists consumers splice flat.
        thunks: Per-entry bound action thunks ``(context, node,
            operands) -> value`` (parallel to ``rule_ids``).
        nodes: Per-entry IR nodes for immediate sweeps; replays rebind
            through :attr:`node_ords` instead.
        intra_hits: Memo hits the compile walk scored (all intra-forest
            for cacheable tapes); replays add the same count, keeping
            ``memo_hits`` parity with the frame engine.
        cost: Summed :func:`~repro.selection.reducer.entry_cost` of the
            tape's entries, accumulated by the compile walk — a dynamic
            cost is evaluated there, once per entry, so a raising one
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
        "rule_ids",
        "nt_ids",
        "node_ords",
        "opnd_refs",
        "opnd_offsets",
        "runs",
        "root_refs",
        "spliced",
        "thunks",
        "nodes",
        "intra_hits",
        "self_contained",
        "cacheable",
    )

    def __init__(
        self,
        *,
        base: int,
        cost: int | None,
        rule_ids: array,
        nt_ids: array,
        node_ords: "array | None",
        opnd_refs: array,
        opnd_offsets: array,
        runs: tuple,
        root_refs: array,
        spliced: bytes,
        thunks: list,
        nodes: list,
        intra_hits: int,
        self_contained: bool,
        cacheable: bool,
    ) -> None:
        self.entries = len(rule_ids)
        self.base = base
        self.cost = cost
        self.rule_ids = rule_ids
        self.nt_ids = nt_ids
        self.node_ords = node_ords
        self.opnd_refs = opnd_refs
        self.opnd_offsets = opnd_offsets
        self.runs = runs
        self.root_refs = root_refs
        self.spliced = spliced
        self.thunks = thunks
        self.nodes = nodes
        self.intra_hits = intra_hits
        self.self_contained = self_contained
        self.cacheable = cacheable

    def __repr__(self) -> str:
        return (
            f"CompiledTape(entries={self.entries}, roots={len(self.root_refs)}, "
            f"operands={len(self.opnd_refs)}, cost={self.cost}, "
            f"cacheable={self.cacheable})"
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
        #: ``id(forest) -> (forest, roots snapshot, canonical nodes,
        #: tape key)`` — the identity fast path for re-emitting a forest
        #: *object* the cache has seen (a JIT recompiling the same
        #: function).  The forest is held strongly, so its ``id`` cannot
        #: be recycled while the entry lives; the roots snapshot guards
        #: against roots added after caching (nodes themselves are
        #: immutable).  A hit skips the signature walk entirely.
        self._by_forest: dict[int, tuple[Forest, tuple, list, tuple]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.identity_hits = 0

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

    def forest_entry(self, forest: Forest) -> "tuple[list, tuple] | None":
        """``(canonical nodes, tape key)`` when *forest* (the object,
        with unchanged roots) was remembered; ``None`` otherwise."""
        entry = self._by_forest.get(id(forest))
        if entry is None:
            return None
        cached, roots, nodes, key = entry
        if cached is not forest or tuple(forest.roots) != roots:
            return None
        self.identity_hits += 1
        return nodes, key

    def remember_forest(self, forest: Forest, nodes: list, key: tuple) -> None:
        """Index *forest* by identity for :meth:`forest_entry`."""
        by_forest = self._by_forest
        if len(by_forest) >= self.maxsize and id(forest) not in by_forest:
            by_forest.pop(next(iter(by_forest)))
        by_forest[id(forest)] = (forest, tuple(forest.roots), nodes, key)

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._tapes),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "identity_entries": len(self._by_forest),
            "identity_hits": self.identity_hits,
        }


class TapeEmitter(Reducer):
    """The tape-based emission engine: compile covers, sweep tapes.

    A drop-in replacement for the frame-stack
    :class:`~repro.selection.reducer.Reducer` — same constructor, same
    ``reduce``/``reduce_forest``/``resolve_start`` surface, same
    ``reductions``/``memo_hits`` counter semantics, same
    ``memo_size``/``rollback_to`` fault-isolation contract — that emits
    through compiled tapes instead of a frame stack.  Cross-forest
    memoisation is preserved: the slot table (keyed like the frame
    engine's memo, by ``node.nid`` with an address fallback) spans the
    emitter's lifetime, so a node shared between batch forests emits
    once and later forests reference its slot.

    Additional counters: :attr:`tapes_compiled` and
    :attr:`tape_cache_hits` (replays of a shape-cached tape).

    Cover cost comes for free: the compile walk sums the
    :func:`~repro.selection.reducer.entry_cost` of the entries it lays
    out into :attr:`CompiledTape.cost` — the frame engine's cost rule —
    so after each ``reduce_forest`` :attr:`last_cover_cost` holds the
    forest's cover cost — straight from the cached tape on a replay —
    whenever the tape is self-contained (``None`` when it reached into
    an earlier forest's slots).
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
        super().__init__(labeling, context, deadline_at_ns=deadline_at_ns)
        #: Optional span tracer; when enabled, each cover-to-tape
        #: compilation records a ``pipeline.tape_compile`` span.
        self._tracer = tracer
        #: The batch-shared value buffer; entry slots index into it.
        self._values: list[Any] = []
        #: ``(node key, nt id) -> (slot << 1) | spliced`` — insertion
        #: ordered and slot-monotone, so rollback is a tail truncation.
        self._slots: dict[tuple[int, int], int] = {}
        #: node key -> live slot-table entry count (guards the shape
        #: cache against cross-forest sharing).
        self._seen: dict[int, int] = {}
        #: ``id(rule) -> (thunk, spliced)`` compiled action thunks.
        self._thunks: dict[int, tuple[Any, bool]] = {}
        self._cache = cache
        #: Shape caching is only sound when shape determines the cover.
        self._static_grammar = not labeling.grammar.has_dynamic_rules
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
            self.rolled_back += excess
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
            node_key = key[0]
            live = seen[node_key] - 1
            if live:
                seen[node_key] = live
            else:
                del seen[node_key]

    # ------------------------------------------------------------------
    # Per-rule thunk compilation

    def _thunk_info(self, rule: Rule) -> tuple[Any, bool]:
        """``(thunk, spliced)`` for *rule*, compiled once per rule.

        The thunk mirrors :meth:`Reducer._run_action` branch order:
        action, then template (when the context can emit templates),
        then helper splice, then operand pass-through.  *spliced* is
        static — only helper rules produce splice-flat values — so the
        sweep needs no per-operand ``isinstance`` probe.
        """
        info = self._thunks.get(id(rule))
        if info is None:
            info = self._thunks[id(rule)] = self._compile_thunk(rule)
        return info

    def _compile_thunk(self, rule: Rule) -> tuple[Any, bool]:
        action = rule.action
        if action is not None:
            return action, False
        if rule.template is not None and self.context is not None:
            if getattr(self.context, "emit_template", None) is not None:
                # Bind the rule, not the context: a cached tape may be
                # replayed under a different context of the same kind.
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

    # ------------------------------------------------------------------
    # Shape signatures

    def _shares_any(self, nodes: list[Node]) -> bool:
        """True when any of *nodes* already holds a slot-table entry.

        The identity fast path's stand-in for the signature walk's
        *shares* flag: replaying a tape over a node that an earlier
        batch forest emitted would re-emit it instead of memo-hitting.
        """
        seen = self._seen
        if not seen:
            return False
        for node in nodes:
            nid = node.nid
            if (nid if nid >= 0 else ~id(node)) in seen:
                return True
        return False

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
    ) -> CompiledTape:
        """Lower the covers of ``(root, nonterminal)`` *pairs* to one tape.

        Appends no values — the sweep does that — but registers every
        new entry's slot in the slot table as it is laid out, so later
        targets (and later forests) resolve shared reductions to
        existing slots.  The walk replicates the frame engine's exact
        left-to-right postorder, cycle guard, and deadline strides, and
        sums each new entry's :func:`entry_cost` into the tape's
        ``cost``.
        """
        slots = self._slots
        seen = self._seen
        base = len(self._values)
        base2 = base << 1
        require_rule = self.labeling.require_rule
        targets_for = self._targets_for
        thunk_info = self._thunk_info
        deadline = self.deadline_at_ns

        thunks: list[Any] = []
        nodes: list[Node] = []
        nt_ids: list[int] = []
        rule_ids: list[int] = []
        ref_runs: list[list[int]] = []
        root_refs: list[int] = []
        spliced_flags = bytearray()
        hits = 0
        cost = 0
        self_contained = True
        ticks = 0

        for root, nonterminal in pairs:
            nid = root.nid
            key = (nid if nid >= 0 else ~id(root), self._nt_id(nonterminal))
            encoded = slots.get(key)
            if encoded is not None:
                hits += 1
                if encoded < base2:
                    self_contained = False
                root_refs.append(encoded >> 1)
                continue
            rule = require_rule(root, nonterminal)
            on_stack: set[tuple[int, int]] = {key}
            frames: list[list] = [[key, root, rule, [], targets_for(rule, root), 0]]
            while True:
                if deadline is not None:
                    ticks += 1
                    if ticks >= DEADLINE_CHECK_EVERY:
                        ticks = 0
                        check_deadline(deadline, "reduce")
                frame = frames[-1]
                targets = frame[_F_TARGETS]
                refs = frame[_F_REFS]
                index = frame[_F_INDEX]
                descended = False
                while index < len(targets):
                    t_node, t_nt, t_nt_id = targets[index]
                    t_nid = t_node.nid
                    t_key = (t_nid if t_nid >= 0 else ~id(t_node), t_nt_id)
                    encoded = slots.get(t_key)
                    if encoded is None:
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
                    hits += 1
                    if encoded < base2:
                        self_contained = False
                    refs.append(encoded)
                    index += 1
                if descended:
                    continue
                # All targets resolved: lay out this entry.
                e_rule = frame[_F_RULE]
                e_node = frame[_F_NODE]
                cost += entry_cost(e_rule, e_node)
                thunk, spliced = thunk_info(e_rule)
                e_key = frame[_F_KEY]
                encoded = ((base + len(nodes)) << 1) | spliced
                slots[e_key] = encoded
                node_key = e_key[0]
                seen[node_key] = seen.get(node_key, 0) + 1
                thunks.append(thunk)
                nodes.append(e_node)
                nt_ids.append(e_key[1])
                rule_ids.append(e_rule.number)
                ref_runs.append(refs)
                spliced_flags.append(spliced)
                on_stack.discard(e_key)
                frames.pop()
                if not frames:
                    break
                parent = frames[-1]
                parent[_F_REFS].append(encoded)
                parent[_F_INDEX] += 1
            root_refs.append(slots[key] >> 1)

        self.memo_hits += hits
        offsets = array("q", [0] * (len(ref_runs) + 1))
        total = 0
        flat_refs: list[int] = []
        for i, run in enumerate(ref_runs):
            total += len(run)
            offsets[i + 1] = total
            flat_refs.extend(run)
        cacheable = self_contained and ord_of is not None
        node_ords: array | None = None
        if cacheable:
            node_ords = array("q", [ord_of[id(node)] for node in nodes])
        return CompiledTape(
            base=base,
            cost=cost,
            rule_ids=array("q", rule_ids),
            nt_ids=array("q", nt_ids),
            node_ords=node_ords,
            opnd_refs=array("q", flat_refs),
            opnd_offsets=offsets,
            runs=tuple(map(tuple, ref_runs)),
            root_refs=array("q", root_refs),
            spliced=bytes(spliced_flags),
            thunks=thunks,
            nodes=nodes,
            intra_hits=hits,
            self_contained=self_contained,
            cacheable=cacheable,
        )

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
        sig_nodes: list[Node] | None = None
        if cache is not None and self._static_grammar:
            version = self.labeling.grammar.version
            ctx_type = type(self.context)
            ident = cache.forest_entry(forest)
            if ident is not None:
                ident_nodes, ident_key = ident
                if (
                    ident_key[0] == version
                    and ident_key[1] == start_nt
                    and ident_key[2] is ctx_type
                ):
                    tape = cache.get(ident_key)
                    if tape is not None and not self._shares_any(ident_nodes):
                        return self._replay(tape, ident_nodes)
            sig, sig_nodes, sig_ords, shares = self._signature(forest)
            if sig is not None and not shares:
                key = (version, start_nt, ctx_type, sig)
                tape = cache.get(key)
                if tape is not None:
                    cache.remember_forest(forest, sig_nodes, key)
                    return self._replay(tape, sig_nodes)
                ord_of = sig_ords
        mark = len(self._values)
        tracer = self._tracer
        compile_start = (
            time.monotonic_ns() if tracer is not None and tracer.enabled else None
        )
        try:
            tape = self._compile_roots(
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
            cache.remember_forest(forest, sig_nodes, key)
        self._sweep(tape, tape.nodes, tape.base)
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
            tape = self._compile_roots([(node, nonterminal)], None)
        except Exception:
            self.last_roots_completed = 0
            self._truncate_slots(mark)
            raise
        if tape.entries:
            self.tapes_compiled += 1
        self._sweep(tape, tape.nodes, tape.base)
        return self._values[tape.root_refs[0]]
