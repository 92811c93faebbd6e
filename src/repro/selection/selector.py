"""The :class:`Selector` facade: one object owning grammar → tables → selection.

The paper's central trade-off — on-demand automata versus offline table
generation — is one object here.  ``Selector`` packages the whole
lifecycle behind one public API:

* ``Selector(grammar, mode="dp" | "ondemand" | "eager")`` picks the
  labeling architecture; ``mode="eager"`` precomputes all reachable
  transitions at construction time.
* ``.label(forest)`` / ``.label_many(forests)`` label; ``.select(...)``
  / ``.select_many(...)`` run the full label + reduce + emit pipeline
  and return values plus a :class:`SelectionReport`.
* ``.compile()`` runs the eager (offline) build on demand-mode
  selectors; ``.save(path)`` / ``Selector.load(path, grammar)`` persist
  and restore the compiled tables — the ahead-of-time path.
* ``.stats()`` states what only the selector holds: the mode, the
  automaton's table sizes, cumulative selection totals, resilience
  counters and the observability registry's flat view.  Per-call
  work stays on the :class:`~repro.metrics.counters.LabelMetrics` and
  :class:`SelectionReport` the caller holds.

Ahead-of-time artifacts
-----------------------
``save`` serializes the interned nonterminal and operator id spaces,
the hash-consed state set, and every per-operator transition table into
flat integer runs (``array('q')`` buffers).  The automaton's tables are
keyed by projected child states, so each entry is written as one
representative full key of child-state ids and its state (and, for a
dynamic operator, its outcomes): one entry per projected key, not per
tuple of child states.  ``load`` re-projects each key to file the entry
where the walk reads it, then projects every state at every operand
position, so a loaded selector constructs nothing from first contact.

Artifacts are keyed by a **grammar fingerprint** (a SHA-256 over the
grammar's structure: operators, nonterminals, and every rule's shape,
cost, template, and dynamic-callable identity).  ``load`` refuses a
mismatched or stale grammar, verifies a payload checksum (so truncated
or corrupted files fail loudly), and rehydrates the automaton's
transition tables completely: a loaded selector labels the grammar's
workloads with **zero table misses from first contact**, without paying
the eager build.  Rules themselves are *not* serialized — their
actions, constraints, and dynamic costs are Python callables — they are
re-bound by rule number from the grammar supplied to ``load``, which is
what the fingerprint guards.

Extending the grammar after a load behaves exactly like extending under
a live automaton: the version bump invalidates the loaded tables, and
labeling falls back to on-demand rebuilding.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.errors import (
    ArtifactCorruptError,
    ArtifactIOError,
    ArtifactStaleError,
    DeadlineExceededError,
    SelectorError,
)
from repro.grammar.costs import INFINITE
from repro.grammar.grammar import Grammar
from repro.ir.node import Forest
from repro.ir.validate import validate_forest
from repro.metrics.counters import LabelMetrics
from repro.obs import resolve_obs
from repro.selection.automaton import UNEVALUATED, AutomatonLabeling, OnDemandAutomaton
from repro.selection.cover import Labeling
from repro.selection.label_dp import DPLabeler
from repro.selection.reducer import Reducer
from repro.selection.resilience import (
    SelectionFailure,
    check_deadline,
    new_resilience_counters,
    node_provenance,
)
from repro.selection.states import State
from repro.selection.tape import TapeEmitter

__all__ = [
    "MODES",
    "ON_ERROR_POLICIES",
    "SelectionReport",
    "SelectionResult",
    "Selector",
    "SelectorConfig",
    "grammar_fingerprint",
    "read_artifact_header",
]

#: The selector modes: the paper's three labeling architectures.
MODES = ("dp", "ondemand", "eager")

#: Batch error policies for ``select``/``select_many`` (see
#: :meth:`Selector.select_many`).
ON_ERROR_POLICIES = ("raise", "isolate")

#: Emission engines selectable via :attr:`SelectorConfig.emitter`.
EMITTERS = ("tape", "reducer")

_MAGIC = b"RSELTBL1"
_FORMAT_VERSION = 4
_HEADER_LEN_STRUCT = struct.Struct("<I")

#: Wire encodings of :data:`~repro.selection.automaton.UNEVALUATED`
#: (``None``) and :data:`~repro.grammar.costs.INFINITE` inside dynamic
#: outcome runs.  Real outcomes are non-negative costs, so negative
#: sentinels cannot collide.
_SIG_UNEVALUATED = -1
_SIG_INFINITE = -2
_OUTCOME_OF_SIG = {_SIG_UNEVALUATED: UNEVALUATED, _SIG_INFINITE: INFINITE}


# ----------------------------------------------------------------------
# Grammar fingerprinting


def _callable_tag(fn: Any) -> str:
    """A stable identity tag for a dynamic-cost/constraint callable."""
    if fn is None:
        return "-"
    module = getattr(fn, "__module__", "?")
    name = getattr(fn, "__qualname__", getattr(fn, "__name__", "?"))
    return f"{module}.{name}"


def grammar_fingerprint(grammar: Grammar) -> str:
    """SHA-256 fingerprint of a grammar's table-relevant structure.

    Covers the operator dialect, nonterminal ordering, and every rule's
    number, shape, cost, template, and dynamic-callable identity —
    everything the automaton's tables depend on.  Emit *actions* are
    deliberately excluded: they run at reduction time and do not affect
    table contents, so an action-only change keeps AOT artifacts valid.
    """
    parts = [f"grammar={grammar.name}", f"start={grammar.start}"]
    for op in grammar.operators:
        parts.append(
            f"op={op.name}/{op.arity}/{int(op.is_statement)}/{int(op.has_payload)}"
        )
    parts.append("nts=" + ",".join(grammar.nonterminals))
    for rule in grammar.rules:
        parts.append(
            "|".join(
                (
                    f"rule={rule.number}",
                    rule.lhs,
                    str(rule.pattern),
                    str(rule.cost),
                    rule.template or "-",
                    rule.name or "-",
                    "helper" if rule.is_helper else "-",
                    f"dyn:{_callable_tag(rule.dynamic_cost)}",
                    f"con:{rule.constraint_name or _callable_tag(rule.constraint)}",
                )
            )
        )
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Wire format


def _serialize(automaton: OnDemandAutomaton, fingerprint: str) -> bytes:
    """Encode the automaton's id spaces and transition tables into one blob.

    Each table entry is written as one representative full key of
    child-state ids — per position, the smallest state index with the
    entry's projected id — and its state: a ``static`` run per operator
    holds ``len(key), key..., state`` per entry, a ``dyn`` run
    ``len(key), key..., len(outcomes), outcomes..., state``.  A static
    leaf state is the operator's ``nullary`` header field.  Every value
    is a signed 64-bit integer: a cost or outcome that does not fit
    raises :class:`~repro.errors.SelectorError`.
    """
    pool = automaton.pool
    sections: list[dict[str, object]] = []
    chunks: list[bytes] = []
    offset = 0

    def add_section(kind: str, values: Iterable[int], op: str | None = None) -> None:
        nonlocal offset
        try:
            arr = array("q", values)
        except OverflowError:
            raise SelectorError(
                f"{op or kind!r}: a cost is not serializable "
                f"(costs must fit in a signed 64-bit integer)"
            ) from None
        data = arr.tobytes()
        entry: dict[str, object] = {"kind": kind, "offset": offset, "items": len(arr)}
        if op is not None:
            entry["op"] = op
        sections.append(entry)
        chunks.append(data)
        offset += len(data)

    # Hash-consed states: per-state signature lengths plus the flattened
    # (nonterminal id, delta cost, rule number) triples.
    lens: list[int] = []
    triples: list[int] = []
    for state in pool.states:
        lens.append(len(state.signature))
        for nt, cost, number in state.signature:
            triples.extend((pool.nt_ids[nt], cost, number))
    add_section("state_lens", lens)
    add_section("state_triples", triples)

    ops_meta: list[dict[str, object]] = []
    for name, table in automaton._tables.items():
        nullary = table.nullary.index if table.nullary is not None else -1
        ops_meta.append({"name": name, "op_id": table.op_id, "nullary": nullary})
        entries: list[tuple[tuple[int, ...], Any]] = []
        for arity, slot in enumerate(table.slots):
            if arity == 0 and not table.dynamic:
                continue  # the nullary field
            groups = slot.groups(pool.states)
            for pkey, entry in slot.entries():
                key = tuple(by_pid[pid][0] for by_pid, pid in zip(groups, pkey))
                entries.append((key, entry))
        if not table.dynamic:  # a static entry is a row of one state, at ()
            entries = [(key, {(): state}) for key, state in entries]
        flat: list[int] = []
        for key, row in entries:
            for outcomes, state in row.items():
                flat.append(len(key))
                flat.extend(key)
                if table.dynamic:
                    flat.append(len(outcomes))
                for value in outcomes:
                    if value is UNEVALUATED:
                        flat.append(_SIG_UNEVALUATED)
                    elif value == INFINITE:
                        flat.append(_SIG_INFINITE)
                    elif isinstance(value, int) and value >= 0:
                        flat.append(value)
                    else:
                        raise SelectorError(
                            f"operator {name!r}: dynamic outcome {value!r} is not "
                            f"serializable (only non-negative integer costs are)"
                        )
                flat.append(state.index)
        if flat:
            add_section("dyn" if table.dynamic else "static", flat, op=name)

    payload = b"".join(chunks)
    header = {
        "format": _FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "fingerprint": fingerprint,
        "grammar": automaton.source_grammar.name,
        "start": automaton.source_grammar.start,
        "nonterminals": list(pool.nt_names),
        "states": len(pool),
        "operators": ops_meta,
        "eager": dict(automaton._eager) if automaton._eager is not None else None,
        "sections": sections,
        "payload_len": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return _MAGIC + _HEADER_LEN_STRUCT.pack(len(header_bytes)) + header_bytes + payload


# Syscall indirection for the artifact lifecycle.  The fault-injection
# harness (repro.testing.faults) patches these module-level hooks to
# simulate IO failures, latency, and mid-write crashes at exact syscall
# boundaries without touching the real filesystem layer; production code
# pays one global lookup per call.


def _io_read_bytes(path: Path) -> bytes:
    return path.read_bytes()


def _io_open(path: str, flags: int) -> int:
    return os.open(path, flags, 0o644)


def _io_write(fd: int, data: bytes) -> int:
    return os.write(fd, data)


def _io_fsync(fd: int) -> None:
    os.fsync(fd)


def _io_replace(src: str, dst: str) -> None:
    os.replace(src, dst)


#: Write chunk size of :func:`_atomic_write_bytes` — small enough that a
#: typical artifact spans several write syscalls, giving the mid-write
#: crash tests real boundaries to kill at.
_IO_CHUNK = 8192


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Crash-safe publish: temp file in the same directory + fsync + rename.

    A reader can never observe a partial artifact: it sees either the
    old file (or none) or the complete new one, swapped in atomically by
    ``os.replace`` after the data is fsynced.  The temp name embeds the
    PID so concurrent writers in different processes cannot clobber each
    other's in-flight temp files (the *rename* race is then benign —
    last complete artifact wins, and both are valid).
    """
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    fd: int | None = None
    try:
        fd = _io_open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        view = memoryview(blob)
        written = 0
        while written < len(view):
            written += _io_write(fd, view[written : written + _IO_CHUNK])
        _io_fsync(fd)
        os.close(fd)
        fd = None
        _io_replace(str(tmp), str(path))
    except BaseException as exc:
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass
        # Clean the temp file up after ordinary failures only: a
        # simulated crash (a BaseException from the fault injectors)
        # must leave the partial temp file behind, exactly as a real
        # process death would — that partial file is what the mid-write
        # crash tests then try (and must fail) to load.
        if isinstance(exc, Exception):
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


#: JSON types of the header fields ``load`` reads, checked by
#: :func:`_read_artifact` so a well-checksummed but malformed header
#: fails as :class:`~repro.errors.ArtifactCorruptError`, never as a
#: ``KeyError``/``TypeError``.  A ``None`` type marks an optional value.
_NONE = type(None)
_HEADER_FIELDS = {
    "byteorder": str,
    "fingerprint": str,
    "grammar": str,
    "start": (str, _NONE),
    "nonterminals": list,
    "states": int,
    "operators": list,
    "eager": (dict, _NONE),
    "sections": list,
    "payload_len": int,
    "payload_sha256": str,
}
_OPERATOR_FIELDS = {"name": str, "nullary": int}
_SECTION_FIELDS = {"kind": str, "op": (str, _NONE), "offset": int, "items": int}


def _check_fields(path: str | Path, where: str, record: object, fields: dict) -> None:
    if not isinstance(record, dict):
        raise ArtifactCorruptError(f"{path}: corrupt selector artifact header ({where})")
    for key, kind in fields.items():
        if not isinstance(record.get(key), kind):
            raise ArtifactCorruptError(
                f"{path}: corrupt selector artifact header "
                f"({where} field {key!r} is missing or ill-typed)"
            )


def _read_artifact(path: str | Path) -> tuple[dict, bytes]:
    """Read and structurally validate an artifact.

    Returns ``(header, payload)``.  Raises
    :class:`~repro.errors.ArtifactIOError` when the file cannot be read
    at all, and :class:`~repro.errors.ArtifactCorruptError` (both are
    :class:`~repro.errors.SelectorError` subclasses) on a bad magic
    number, truncation anywhere (header length, header body, payload),
    an unknown format version, a payload checksum mismatch, a missing
    or ill-typed header field, or a section outside the payload.
    """
    try:
        blob = _io_read_bytes(Path(path))
    except OSError as exc:
        raise ArtifactIOError(f"cannot read selector artifact {path}: {exc}") from exc
    if not blob:
        raise ArtifactCorruptError(f"{path}: empty selector artifact (zero bytes)")
    prefix = len(_MAGIC) + _HEADER_LEN_STRUCT.size
    if blob[: len(_MAGIC)] != _MAGIC[: len(blob)]:
        raise ArtifactCorruptError(f"{path}: not a selector artifact (bad magic)")
    if len(blob) < prefix:
        raise ArtifactCorruptError(
            f"{path}: truncated selector artifact (header cut short)"
        )
    (header_len,) = _HEADER_LEN_STRUCT.unpack_from(blob, len(_MAGIC))
    header_end = prefix + header_len
    if len(blob) < header_end:
        raise ArtifactCorruptError(
            f"{path}: truncated selector artifact (header cut short)"
        )
    try:
        header = json.loads(blob[prefix:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptError(
            f"{path}: corrupt selector artifact header: {exc}"
        ) from exc
    if not isinstance(header, dict):
        raise ArtifactCorruptError(f"{path}: corrupt selector artifact header (not an object)")
    if header.get("format") != _FORMAT_VERSION:
        raise ArtifactCorruptError(
            f"{path}: unsupported artifact format {header.get('format')!r} "
            f"(this build reads format {_FORMAT_VERSION})"
        )
    _check_fields(path, "header", header, _HEADER_FIELDS)
    payload = blob[header_end:]
    if len(payload) != header["payload_len"]:
        raise ArtifactCorruptError(
            f"{path}: truncated selector artifact "
            f"({len(payload)} payload bytes, header promises {header['payload_len']})"
        )
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise ArtifactCorruptError(
            f"{path}: corrupt selector artifact (payload checksum mismatch)"
        )
    if not all(isinstance(nt, str) for nt in header["nonterminals"]):
        raise ArtifactCorruptError(f"{path}: corrupt selector artifact header (nonterminals)")
    for meta in header["operators"]:
        _check_fields(path, "operator", meta, _OPERATOR_FIELDS)
    for section in header["sections"]:
        _check_fields(path, "section", section, _SECTION_FIELDS)
        offset, items = section["offset"], section["items"]
        if offset < 0 or items < 0 or offset + 8 * items > len(payload):
            raise ArtifactCorruptError(
                f"{path}: corrupt selector artifact (section {section['kind']!r} "
                f"at offset {offset} with {items} items lies outside the payload)"
            )
    return header, payload


def read_artifact_header(path: str | Path) -> dict:
    """The validated header of a selector artifact (no grammar required).

    Useful to check an artifact's ``fingerprint``/``grammar`` before
    deciding which grammar to load it with; raises
    :class:`~repro.errors.SelectorError` exactly like ``load`` on
    malformed, truncated, or corrupted files.
    """
    return _read_artifact(path)[0]


def _decode_sections(header: dict, payload: bytes) -> dict[tuple[str, str | None], array]:
    """Decode every payload section into an ``array('q')``, keyed by
    (kind, operator name or None), byte-swapping cross-endian files.
    :func:`_read_artifact` has already bounds-checked every section."""
    need_swap = header["byteorder"] != sys.byteorder
    out: dict[tuple[str, str | None], array] = {}
    for section in header["sections"]:
        arr = array("q")
        start = section["offset"]
        arr.frombytes(payload[start : start + 8 * section["items"]])
        if need_swap:
            arr.byteswap()
        out[(section["kind"], section.get("op"))] = arr
    return out


def _rehydrate(
    automaton: OnDemandAutomaton, header: dict, payload: bytes, path: str | Path
) -> None:
    """Fill a freshly-synced automaton's pool and tables from an
    artifact :func:`_read_artifact` validated.

    Any payload that does not rebuild consistently raises
    :class:`~repro.errors.ArtifactCorruptError`: the fingerprint already
    matched, so a mismatch here means the artifact itself is damaged.
    """

    def corrupt(detail: str) -> ArtifactCorruptError:
        return ArtifactCorruptError(f"{path}: corrupt selector artifact ({detail})")

    pool = automaton.pool
    saved_nts = header["nonterminals"]
    for nt in saved_nts:
        pool.declare(nt)
    if list(pool.nt_names) != list(saved_nts):
        raise corrupt(
            "nonterminal id spaces differ from the grammar's "
            f"({pool.nt_names[:4]}... vs saved {saved_nts[:4]}...)"
        )
    rules_by_number = {rule.number: rule for rule in automaton.grammar.rules}
    sections = _decode_sections(header, payload)

    lens = sections.get(("state_lens", None))
    triples = sections.get(("state_triples", None))
    if lens is None or triples is None:
        raise corrupt("state sections missing")
    if min(lens, default=0) < 0 or 3 * sum(lens) != len(triples):
        raise corrupt("state signature lengths do not match the triples")
    pos = 0
    for index, n in enumerate(lens):
        costs: dict[str, int] = {}
        rules: dict[str, object] = {}
        for _ in range(n):
            nt_id, cost, number = triples[pos], triples[pos + 1], triples[pos + 2]
            pos += 3
            rule = rules_by_number.get(number)
            if rule is None or not 0 <= nt_id < len(saved_nts):
                raise corrupt(
                    f"references rule {number} / nonterminal id {nt_id} "
                    f"the grammar does not define"
                )
            nt = saved_nts[nt_id]
            costs[nt] = cost
            rules[nt] = rule
        state, _ = pool.intern(costs, rules)
        if state.index != index:
            raise corrupt(f"state {index} interned as {state.index}")
    size = header["states"]
    if len(pool) != size:
        raise corrupt(f"promises {size} states, rebuilt {len(pool)}")
    states = pool.states

    def state_at(idx: int) -> State:
        if not 0 <= idx < size:
            raise corrupt(f"references state {idx} of {size}")
        return states[idx]

    def take(flat: array, pos: int) -> tuple[tuple[int, ...], int]:
        """The length-prefixed run at *pos* and the position after it;
        every run is followed by at least one more value."""
        end = pos + 1 + flat[pos]
        if end <= pos or end >= len(flat):
            raise corrupt(f"a table run at item {pos} overruns its section")
        return tuple(flat[pos + 1 : end]), end

    chain_outcomes = len(automaton._dyn_chain)
    for meta in header["operators"]:
        name = meta["name"]
        table = automaton._table_for(name)
        if meta["nullary"] >= 0:
            automaton.restore(table, (), (), state_at(meta["nullary"]))
        for kind in ("static", "dyn"):
            flat = sections.get((kind, name))
            if flat is not None and (kind == "dyn") != table.dynamic:
                raise corrupt(f"{name!r} has {kind} runs, but its table is not {kind}")
            pos = 0
            while flat is not None and pos < len(flat):
                key, pos = take(flat, pos)
                for kid in key:
                    state_at(kid)
                outcomes: tuple = ()
                if table.dynamic:
                    values, pos = take(flat, pos)
                    expected = len(automaton._entry(table, key).candidates) + chain_outcomes
                    if len(values) != expected:
                        raise corrupt(
                            f"a dynamic transition of {name!r} has {len(values)} outcomes, "
                            f"expected {expected}"
                        )
                    outcomes = tuple(
                        _OUTCOME_OF_SIG.get(value, value) for value in values
                    )
                automaton.restore(table, key, outcomes, state_at(flat[pos]))
                pos += 1
        # Project every state at every position, so the first walk over
        # the loaded tables reads them without projecting anything.
        for arity in table.rules_by_arity:
            slot = automaton._projection(table, arity)
            for position in range(arity):
                for state in states:
                    slot.pid(state, position)


# ----------------------------------------------------------------------
# Selection report / result (the pipeline's public dataclasses)


@dataclass
class SelectionReport:
    """What one ``select`` / ``select_many`` call did and cost.

    Counts describe the whole batch; the ``*_ns`` fields are integer
    ``perf_counter_ns`` measurements of the labeling phase and the
    reduction/emission phase.

    :attr:`cover_cost` is the cost of the batch's cover: each distinct
    (node, nonterminal) entry reachable from the roots of the forests
    that completed counts once, as the reference cover walk of
    :mod:`repro.selection.cover` counts one forest holding all those
    roots.  Both emission engines sum it in the walk that emits the
    batch (the tape's compile walk, the frame engine's reduction
    walk), costing each entry when it is laid out, so a subtree two
    forests share is paid for once, as it is emitted once.
    """

    grammar: str
    labeler: str
    forests: int
    roots: int
    #: Distinct nodes labeled in the batch, summed over its labelings
    #: (one shared labeling, so a node shared between forests counts
    #: once).  Forests dropped by validation or by a labeling fault
    #: under ``"isolate"`` are not counted.
    nodes: int
    #: Cost of the batch's cover from the start nonterminal (see the
    #: class docs; ``None`` when the caller passed ``collect_cover=False``).
    cover_cost: int | None
    #: Distinct (node, nonterminal) reductions — rule applications, in
    #: the labeling's grammar: the automaton modes' normalized grammar
    #: counts multi-node patterns' helper rules too (the tests' demo
    #: ``STORE(REG, ADD(LOAD(REG), REG))``: 6 under ``"dp"``, 8 under
    #: ``"ondemand"``), so compare it only within one mode.
    reductions: int
    #: Reduction requests answered from the memo (same grammar).
    memo_hits: int
    label_ns: int
    reduce_ns: int
    #: Input-validation nanoseconds (0 unless ``config.validate`` is on;
    #: not part of :attr:`total_ns`).
    validate_ns: int = 0
    #: Forests contained by ``on_error="isolate"`` (0 under ``"raise"``).
    failures: int = 0
    #: Cover-to-tape compilations performed by the tape emitter (0 when
    #: the frame-stack reducer handled emission).
    tapes_compiled: int = 0
    #: Always 0 (nothing is cached by forest shape); kept for callers
    #: that still read it, such as the callerbench harness.
    tape_cache_hits: int = 0

    @property
    def total_ns(self) -> int:
        """Labeling plus reduction/emission nanoseconds."""
        return self.label_ns + self.reduce_ns

    @property
    def ns_per_node(self) -> float:
        return self.total_ns / max(self.nodes, 1)

    @property
    def reduce_fraction(self) -> float:
        """Share of the pipeline spent reducing/emitting (0.0–1.0)."""
        total = self.total_ns
        return self.reduce_ns / total if total > 0 else 0.0

    def as_row(self) -> dict[str, object]:
        """Flat dict for table formatting / JSON reports."""
        return {
            "grammar": self.grammar,
            "labeler": self.labeler,
            "forests": self.forests,
            "roots": self.roots,
            "nodes": self.nodes,
            "cover_cost": self.cover_cost,
            "reductions": self.reductions,
            "memo_hits": self.memo_hits,
            "label_ns": self.label_ns,
            "reduce_ns": self.reduce_ns,
            "validate_ns": self.validate_ns,
            "total_ns": self.total_ns,
            "ns_per_node": self.ns_per_node,
            "reduce_fraction": self.reduce_fraction,
            "failures": self.failures,
            "tapes_compiled": self.tapes_compiled,
        }


@dataclass
class SelectionResult:
    """Semantic values plus the report of one pipeline run.

    From ``select_many``, :attr:`values` holds one list of per-root
    semantic values per input forest; ``select`` unwraps the single
    forest, so its :attr:`values` is the per-root list itself.  Under
    ``on_error="isolate"``, a faulted forest's slot holds its
    :class:`~repro.selection.resilience.SelectionFailure` instead of a
    value list (see :attr:`failures`).
    """

    values: list[Any]
    report: SelectionReport
    labeling: Labeling

    @property
    def failures(self) -> list[SelectionFailure]:
        """The :class:`SelectionFailure` entries among :attr:`values`
        (empty for a fully successful, or ``on_error="raise"``, run).

        Works for both shapes of :attr:`values`: the per-forest batch
        list from ``select_many`` and the unwrapped single-forest value
        from ``select`` — where an isolated fault makes ``values`` the
        bare :class:`SelectionFailure` itself.
        """
        if isinstance(self.values, SelectionFailure):
            return [self.values]
        return [value for value in self.values if isinstance(value, SelectionFailure)]

    @property
    def ok(self) -> bool:
        """True when no forest in this result faulted."""
        return not self.failures


# ----------------------------------------------------------------------
# The Selector facade


@dataclass
class SelectorConfig:
    """Tunables of one :class:`Selector`.

    Attributes:
        validate: Debug flag: run the structural forest validator
            (:func:`repro.ir.validate.validate_forest`) against the
            grammar's operator set before every ``label``/``label_many``
            call, raising
            :class:`~repro.ir.validate.ForestValidationError` on
            malformed input instead of failing mid-selection.
        emitter: Which emission engine ``select``/``select_many`` run,
            checked when the selector is built: ``"tape"`` (default)
            compiles every automaton labeling to flat instruction tapes
            from its state-indexed derivation fragments
            (:class:`~repro.selection.tape.TapeEmitter`); ``mode="dp"``,
            whose labeling has no states, runs the frame-stack
            :class:`~repro.selection.reducer.Reducer` either way, and
            ``stats()`` reports it as ``"reducer"``.  ``"reducer"``
            keeps the frame engine, the reference oracle, for every
            labeling (see :meth:`Selector._make_emitter`).  The two
            engines share a contract and the reducer module's value
            helpers, not a class: both emit byte-identical instruction
            streams and cost the cover in the walk that emits it.
        observe: Observability wiring: ``None``/``False`` (default)
            disables it — the pipeline pays one ``None`` check per
            batch; ``True`` builds a private
            :class:`~repro.obs.Observability` bundle; an existing
            bundle shares its tracer/registry with other components
            (e.g. a service worker's).  When enabled, every
            ``select``/``select_many`` records pipeline-phase spans
            (``pipeline.validate``/``label``/``tape_compile``/
            ``emit``) and feeds the phase histograms and batch
            counters surfaced on ``stats()["obs"]``.
    """

    validate: bool = False
    emitter: str = "tape"
    observe: Any = None


class Selector:
    """The public instruction-selection facade (see module docs).

    A selector owns one labeling engine — a
    :class:`~repro.selection.label_dp.DPLabeler` for ``mode="dp"``, an
    :class:`~repro.selection.automaton.OnDemandAutomaton` otherwise —
    and is meant to be long-lived: construct once per grammar, call
    ``label``/``select`` for every forest.
    """

    def __init__(
        self,
        grammar: Grammar | None = None,
        mode: str = "ondemand",
        config: SelectorConfig | None = None,
    ) -> None:
        if grammar is None:
            raise SelectorError("Selector needs a grammar")
        if mode not in MODES:
            raise ValueError(
                f"unknown selector mode {mode!r}; expected one of {', '.join(MODES)}"
            )
        engine = DPLabeler(grammar) if mode == "dp" else OnDemandAutomaton(grammar)
        self._setup(grammar, engine, config)
        if mode == "eager":
            self.compile()

    def _setup(
        self,
        grammar: Grammar,
        engine: DPLabeler | OnDemandAutomaton,
        config: SelectorConfig | None,
    ) -> None:
        """Install *engine* over *grammar*: the constructor's body, shared
        with :meth:`load`, which installs a rehydrated automaton."""
        self.config = config if config is not None else SelectorConfig()
        if self.config.emitter not in EMITTERS:
            raise ValueError(
                f"unknown emitter {self.config.emitter!r}; expected one of "
                f"{', '.join(EMITTERS)}"
            )
        self.source_grammar = grammar
        self.engine = engine
        self._resilience = new_resilience_counters()
        #: Observability bundle (``None`` when disabled, so hot paths
        #: guard with one ``is not None`` check).
        self._obs = resolve_obs(self.config.observe)
        if self._obs is not None:
            metrics = self._obs.metrics
            self._obs_phase_ns = {
                "validate": metrics.histogram("pipeline_phase_ns", phase="validate"),
                "label": metrics.histogram("pipeline_phase_ns", phase="label"),
                "emit": metrics.histogram("pipeline_phase_ns", phase="emit"),
            }
            self._obs_batches = metrics.counter("pipeline_batches_total")
            self._obs_nodes = metrics.counter("pipeline_nodes_total")
            self._obs_failures = metrics.counter("pipeline_failures_total")
            self._obs_tapes = metrics.counter("pipeline_tapes_compiled_total")
        self._totals = {
            "calls": 0,
            "forests": 0,
            "roots": 0,
            "nodes": 0,
            "reductions": 0,
            "memo_hits": 0,
            "label_ns": 0,
            "reduce_ns": 0,
            "tapes_compiled": 0,
        }

    @property
    def grammar(self) -> Grammar:
        """The source grammar this selector selects over."""
        return self.source_grammar

    @property
    def mode(self) -> str:
        """The effective labeling mode: ``eager`` while compiled or loaded
        tables are current, ``ondemand`` once the source grammar moved
        past them (the next label call drops them)."""
        engine = self.engine
        if isinstance(engine, DPLabeler):
            return "dp"
        current = engine._source_version == engine.source_grammar.version
        return "eager" if engine._eager is not None and current else "ondemand"

    def _require_automaton(self, operation: str) -> OnDemandAutomaton:
        engine = self.engine
        if not isinstance(engine, OnDemandAutomaton):
            raise SelectorError(
                f"cannot {operation} a {self.mode!r} selector: only automaton modes "
                f"(ondemand/eager) have transition tables"
            )
        return engine

    # ------------------------------------------------------------------
    # Labeling

    def label(self, forest: Forest, metrics: LabelMetrics | None = None) -> Labeling:
        """Label one forest (see :meth:`label_many` for batches)."""
        return self.label_many([forest], metrics)

    def label_many(
        self,
        forests: Iterable[Forest],
        metrics: LabelMetrics | None = None,
        *,
        deadline_at_ns: int | None = None,
    ) -> Labeling:
        """Label a batch of forests in one fused pass (one shared labeling)."""
        if self.config.validate:
            forests = list(forests)
            for forest in forests:
                validate_forest(forest, self.source_grammar.operators)
        return self.engine.label_many(forests, metrics, deadline_at_ns=deadline_at_ns)

    # ------------------------------------------------------------------
    # Selection (label + reduce + emit)

    def select_many(
        self,
        forests: Iterable[Forest],
        *,
        context: Any = None,
        start: str | None = None,
        collect_cover: bool = True,
        on_error: str = "raise",
        deadline_at_ns: int | None = None,
    ) -> SelectionResult:
        """Select instructions for a batch of forests in one fused pipeline.

        Labels all *forests* with one batched ``label_many`` call,
        emits every root through one shared emission engine (running
        emit actions against *context*), and returns per-forest
        semantic-value lists plus a :class:`SelectionReport`.  The
        emitting walk also costs the batch's cover
        (:attr:`SelectionReport.cover_cost`); *collect_cover* only
        decides whether the report carries it.

        *on_error* picks the batch fault policy; both policies run the
        same validate → label → emit pipeline and differ only in what a
        raising forest does:

        * ``"raise"`` (default): the first raising dynamic rule,
          constraint callback, or emission action aborts the whole
          batch, propagating the exception;
        * ``"isolate"``: a faulted forest yields a structured
          :class:`~repro.selection.resilience.SelectionFailure` in its
          ``values`` slot — exception, pipeline phase, and faulting-node
          provenance — while the rest of the batch completes.  The
          shared reducer memo is rolled back past the faulted forest's
          entries, so later forests can never observe its half-emitted
          values.  ``KeyboardInterrupt``/``SystemExit`` (and the fault
          harness's simulated crashes) are never isolated.  Note that
          a labeling fault makes the engine label each forest alone to
          attribute it and then the survivors again in one batch, so a
          batch containing a labeling fault may invoke dynamic
          callables more than once per node.

        *deadline_at_ns*, an absolute ``time.monotonic_ns()`` instant
        (as for :meth:`label_many`), arms cooperative cancellation
        checks in the label walks and the emission engine (the
        reducer's frame loop, or the tape's compile walk and sweep).
        The resulting :class:`~repro.errors.DeadlineExceededError`
        covers the *whole batch* and always propagates — even under
        ``on_error="isolate"`` — because per-request deadline
        accounting belongs to the caller (the service front door).  A
        *deadline_at_ns* that is not an ``int`` raises
        :class:`TypeError` before any work runs.
        """
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {on_error!r}; expected one of "
                f"{', '.join(ON_ERROR_POLICIES)}"
            )
        if deadline_at_ns is not None and not isinstance(deadline_at_ns, int):
            raise TypeError(
                f"deadline_at_ns must be an int or None, not {type(deadline_at_ns).__name__}"
            )
        forests = list(forests)
        try:
            if deadline_at_ns is not None:
                # Upfront check: an already-expired deadline fails here
                # regardless of batch size; the strided hot-loop checks
                # only fire every DEADLINE_CHECK_EVERY steps.
                check_deadline(deadline_at_ns, "admission")
            return self._select_many(
                forests, context, start, collect_cover, deadline_at_ns, on_error == "isolate"
            )
        except DeadlineExceededError:
            self._resilience["deadline_overruns"] += 1
            raise

    def _make_emitter(
        self,
        labeling: Labeling,
        context: Any,
        deadline_at_ns: int | None,
    ) -> Reducer | TapeEmitter:
        """The configured emission engine over *labeling*.

        One rule: under ``"tape"``, every automaton labeling
        (``ondemand``, ``eager``, or loaded from an artifact, static or
        dynamic grammar) emits through a :class:`TapeEmitter`, compiling
        each forest from the automaton's state-indexed derivation
        fragments.  A labeling without states (``mode="dp"``) and
        ``"reducer"`` get the frame-stack :class:`Reducer`, which stays
        as the differential oracle.  The two share a contract, not a
        class: both honour the same ``reduce_forest``/``memo_size``/
        ``rollback_to`` surface and cost the cover in the walk that
        emits it.  :meth:`_select_many` emits each forest of the batch
        it labeled exactly once, so the tape is built with ``once``: a
        tree labeling compiles without the slot table, a DAG labeling
        through it.
        """
        if self.config.emitter == "tape" and isinstance(labeling, AutomatonLabeling):
            return TapeEmitter(
                labeling,
                context,
                deadline_at_ns=deadline_at_ns,
                tracer=self._obs.tracer if self._obs is not None else None,
                once=True,
            )
        return Reducer(labeling, context, deadline_at_ns=deadline_at_ns)

    def _select_many(
        self,
        forests: list[Forest],
        context: Any,
        start: str | None,
        collect_cover: bool,
        deadline_at_ns: int | None,
        isolate: bool,
    ) -> SelectionResult:
        """The one pipeline behind both ``on_error`` policies.

        Runs validate → label → emit once, over one labeling and one
        emission engine, whose walk also sums the cover cost.  In each
        phase a raising forest re-raises under ``"raise"``; under
        ``"isolate"`` it becomes a :class:`SelectionFailure` and drops
        out of the later phases.  The happy-path cost of isolation is
        one memo-size read and one try/except per forest — zero-cost
        constructs on CPython 3.11+; the per-forest probing, rollbacks
        and failure records only materialize once something raises.
        Only :class:`Exception` is isolated: ``KeyboardInterrupt``,
        ``SystemExit``, the fault harness's simulated crashes, and
        :class:`DeadlineExceededError` (a whole-batch abort, not a
        per-forest fault) propagate.
        """
        failures: dict[int, SelectionFailure] = {}
        live = list(enumerate(forests))
        validate_ns = 0
        if self.config.validate:
            started = time.perf_counter_ns()
            operators = self.source_grammar.operators
            checked = []
            for index, forest in live:
                try:
                    validate_forest(forest, operators)
                except Exception as exc:
                    if not isolate:
                        raise
                    failures[index] = SelectionFailure(
                        index, forest.name, "validate", exc, node_provenance(exc)
                    )
                else:
                    checked.append((index, forest))
            live = checked
            validate_ns = time.perf_counter_ns() - started

        # Label phase: one fused batch, one labeling for every forest.
        started = time.perf_counter_ns()
        try:
            labeling = self.engine.label_many(
                [forest for _, forest in live], None, deadline_at_ns=deadline_at_ns
            )
        except DeadlineExceededError:
            raise
        except Exception:
            if not isolate:
                raise
            live, labeling = self._label_survivors(live, failures, deadline_at_ns)
        label_ns = time.perf_counter_ns() - started

        # Emit phase: one emission engine, its start nonterminal resolved
        # outside the per-forest try (a grammar without one fails the
        # whole batch).  A faulted forest's memo/value-buffer entries are
        # rolled back before the next forest emits, so half-emitted
        # values are never reused and its cost is never counted.
        values: list[Any] = [None] * len(forests)
        cover_cost = 0
        started = time.perf_counter_ns()
        engine = self._make_emitter(labeling, context, deadline_at_ns)
        start_nt = engine.resolve_start(start) if live else None
        for index, forest in live:
            mark = engine.memo_size()
            try:
                values[index] = engine.reduce_forest(forest, start_nt)
            except DeadlineExceededError:
                raise
            except Exception as exc:
                if not isolate:
                    raise
                engine.rollback_to(mark)
                failures[index] = SelectionFailure(
                    index,
                    forest.name,
                    "reduce",
                    exc,
                    node_provenance(exc),
                    roots_completed=engine.last_roots_completed,
                )
            else:
                cover_cost += engine.last_cover_cost
        end_ns = time.perf_counter_ns()

        if failures:
            self._resilience["isolated_failures"] += len(failures)
            by_phase = self._resilience["failures_by_phase"]
            for index, failure in failures.items():
                values[index] = failure
                by_phase[failure.phase] += 1

        report = SelectionReport(
            grammar=self.source_grammar.name,
            labeler=self.mode,
            forests=len(forests),
            roots=sum(len(forest.roots) for forest in forests),
            nodes=labeling.nodes_labeled,
            cover_cost=cover_cost if collect_cover else None,
            reductions=engine.reductions,
            memo_hits=engine.memo_hits,
            label_ns=label_ns,
            reduce_ns=end_ns - started,
            validate_ns=validate_ns,
            failures=len(failures),
            tapes_compiled=engine.tapes_compiled if isinstance(engine, TapeEmitter) else 0,
        )
        self._record(report, end_ns)
        return SelectionResult(values=values, report=report, labeling=labeling)

    def _label_survivors(
        self,
        live: list[tuple[int, Forest]],
        failures: dict[int, SelectionFailure],
        deadline_at_ns: int | None,
    ) -> tuple[list[tuple[int, Forest]], Labeling]:
        """Attribute a fused batch's labeling fault under ``"isolate"``.

        Labels each forest of *live* alone, recording a ``"label"``
        failure for every forest that raises, then labels the survivors
        again in one fused batch, so they share one labeling (and one
        emitter) as on the happy path.  Returns the survivors and that
        labeling.  Should the fused re-label raise too (a callable
        whose outcome depends on call order, not on the forest), no
        forest can be blamed: every survivor fails with that exception,
        and the labeling returned is an empty one.
        """
        label_many = self.engine.label_many
        survivors: list[tuple[int, Forest]] = []
        for index, forest in live:
            try:
                label_many([forest], None, deadline_at_ns=deadline_at_ns)
            except DeadlineExceededError:
                raise
            except Exception as exc:
                failures[index] = SelectionFailure(
                    index, forest.name, "label", exc, node_provenance(exc)
                )
            else:
                survivors.append((index, forest))
        try:
            labeling = label_many(
                [forest for _, forest in survivors], None, deadline_at_ns=deadline_at_ns
            )
        except DeadlineExceededError:
            raise
        except Exception as exc:
            for index, forest in survivors:
                failures[index] = SelectionFailure(
                    index, forest.name, "label", exc, node_provenance(exc)
                )
            return [], label_many([])
        return survivors, labeling

    def select(
        self,
        forest: Forest,
        *,
        context: Any = None,
        start: str | None = None,
        collect_cover: bool = True,
        on_error: str = "raise",
        deadline_at_ns: int | None = None,
    ) -> SelectionResult:
        """Select instructions for one forest: label, reduce, emit.

        A convenience wrapper over :meth:`select_many` for the
        single-forest case; the result's values are the per-root list
        of *forest* (not wrapped in a batch list).  Under
        ``on_error="isolate"`` a faulted forest's ``values`` is its
        :class:`~repro.selection.resilience.SelectionFailure` — the
        same one-error contract as a one-forest batch, so service
        workers treat both shapes identically (``result.failures``
        normalizes them).
        """
        result = self.select_many(
            [forest],
            context=context,
            start=start,
            collect_cover=collect_cover,
            on_error=on_error,
            deadline_at_ns=deadline_at_ns,
        )
        return SelectionResult(
            values=result.values[0], report=result.report, labeling=result.labeling
        )

    def _record(self, report: SelectionReport, end_ns: int | None = None) -> None:
        totals = self._totals
        totals["calls"] += 1
        totals["forests"] += report.forests
        totals["roots"] += report.roots
        totals["nodes"] += report.nodes
        totals["reductions"] += report.reductions
        totals["memo_hits"] += report.memo_hits
        totals["label_ns"] += report.label_ns
        totals["reduce_ns"] += report.reduce_ns
        totals["tapes_compiled"] += report.tapes_compiled
        if self._obs is not None:
            self._observe_batch(report, end_ns)

    def _observe_batch(self, report: SelectionReport, end_ns: int | None) -> None:
        """Record one batch's spans and metrics (enabled-obs path only).

        Span boundaries are reconstructed backwards from *end_ns* (the
        final ``perf_counter_ns`` reading, taken after emission) out of
        the report's already-measured phase nanoseconds — the tracer
        adds no clock calls inside the measured windows, so durations
        are exact; only the small inter-phase gaps are absorbed into
        the reconstruction.
        """
        if end_ns is None:
            end_ns = time.perf_counter_ns()
        emit_start = end_ns - report.reduce_ns
        label_start = emit_start - report.label_ns
        select_start = label_start - report.validate_ns
        tracer = self._obs.tracer
        select_id = tracer.next_id()
        if report.validate_ns:
            tracer.record(
                "pipeline.validate",
                select_start,
                label_start,
                parent_id=select_id,
                forests=report.forests,
            )
        tracer.record(
            "pipeline.label",
            label_start,
            emit_start,
            parent_id=select_id,
            nodes=report.nodes,
            mode=report.labeler,
        )
        tracer.record(
            "pipeline.emit",
            emit_start,
            end_ns,
            parent_id=select_id,
            reductions=report.reductions,
            failures=report.failures,
        )
        tracer.record(
            "pipeline.select",
            select_start,
            end_ns,
            span_id=select_id,
            grammar=report.grammar,
            forests=report.forests,
            nodes=report.nodes,
        )
        if report.validate_ns:
            self._obs_phase_ns["validate"].observe(report.validate_ns)
        self._obs_phase_ns["label"].observe(report.label_ns)
        self._obs_phase_ns["emit"].observe(report.reduce_ns)
        self._obs_batches.inc()
        self._obs_nodes.inc(report.nodes)
        if report.failures:
            self._obs_failures.inc(report.failures)
        if report.tapes_compiled:
            self._obs_tapes.inc(report.tapes_compiled)

    # ------------------------------------------------------------------
    # Ahead-of-time: compile / save / load

    def compile(self) -> dict[str, object]:
        """Run the eager (offline) build: precompute all reachable tables.

        After ``compile()`` the selector labels with zero table misses
        (modulo ``skipped`` operators) and :attr:`mode` reports
        ``"eager"``.  Returns the build stats, also available under
        ``stats()["tables"]["eager"]``.
        """
        return self._require_automaton("compile").build_eager()

    def save(self, path: str | Path) -> Path:
        """Serialize the compiled tables to *path* (compiling if needed).

        The artifact holds the interned nonterminal/operator id spaces,
        the state set, and every transition table as flat integer
        buffers, keyed by the grammar's fingerprint; see the module docs
        for the format and what ``load`` guarantees.

        The write is **atomic**: the blob goes to a temp file in the
        target directory, is fsynced, then renamed over *path* — a
        crashed or concurrent ``save`` can never leave a partial
        artifact where a reader would find it.  OS-level write failures
        raise :class:`~repro.errors.ArtifactIOError`.
        """
        automaton = self._require_automaton("save")
        automaton._sync()
        if automaton._eager is None:
            self.compile()
        blob = _serialize(automaton, grammar_fingerprint(self.source_grammar))
        target = Path(path)
        try:
            _atomic_write_bytes(target, blob)
        except OSError as exc:
            raise ArtifactIOError(
                f"cannot write selector artifact {target}: {exc}"
            ) from exc
        return target

    @classmethod
    def load(
        cls, path: str | Path, grammar: Grammar, config: SelectorConfig | None = None
    ) -> "Selector":
        """Restore an ahead-of-time selector from *path* for *grammar*.

        The artifact's fingerprint must match *grammar* exactly — a
        mismatched or stale (since-extended) grammar is rejected with
        :class:`~repro.errors.ArtifactStaleError`; unreadable files
        raise :class:`~repro.errors.ArtifactIOError` and truncated or
        corrupted ones :class:`~repro.errors.ArtifactCorruptError` (all
        :class:`~repro.errors.SelectorError` subclasses, with the path
        and cause).  The loaded selector's tables are complete copies
        of the saved eager tables: labeling starts with zero table
        misses and never pays the eager build.
        """
        header, payload = _read_artifact(path)
        fingerprint = grammar_fingerprint(grammar)
        if fingerprint != header["fingerprint"]:
            raise ArtifactStaleError(
                f"{path}: selector artifact was compiled for a different grammar "
                f"(fingerprint {header['fingerprint'][:12]}..., this grammar "
                f"is {fingerprint[:12]}...); recompile the artifact or pass the "
                f"matching grammar"
            )
        automaton = OnDemandAutomaton(grammar)
        _rehydrate(automaton, header, payload, path)
        eager = dict(header.get("eager") or {})
        eager["loaded_from"] = str(path)
        automaton._eager = eager
        selector = cls.__new__(cls)
        selector._setup(grammar, automaton, config)
        return selector

    # ------------------------------------------------------------------
    # Unified stats

    def stats(self) -> dict[str, object]:
        """What the selector alone holds, each fact once.

        * ``grammar`` and ``mode`` (see :attr:`mode`: ``"eager"`` only
          while compiled or loaded tables are current);
        * ``tables`` — the automaton's state/transition counts, plus the
          ``eager`` entry of a compile (``build_seconds``) or a load
          (``loaded_from``); ``None`` for DP;
        * ``selection`` — cumulative pipeline totals (calls, forests,
          nodes, reductions, memo hits, per-phase nanoseconds) and the
          emission engine that runs;
        * ``resilience`` — see :meth:`resilience_stats`;
        * ``obs`` — the observability registry's flat view, ``None``
          when observability is off.

        Per-call work is not repeated here: it is on the
        :class:`LabelMetrics` a caller passes to :meth:`label_many`
        and on the :class:`SelectionReport` of each result.
        """
        engine = self.engine
        dp = isinstance(engine, DPLabeler)
        totals = dict(self._totals)
        total_ns = totals["label_ns"] + totals["reduce_ns"]
        totals["total_ns"] = total_ns
        totals["ns_per_node"] = total_ns / max(totals["nodes"], 1)
        totals["reduce_fraction"] = totals["reduce_ns"] / total_ns if total_ns > 0 else 0.0
        # A DP labeling has no states to compile a tape from.
        totals["emitter"] = "reducer" if dp else self.config.emitter
        return {
            "grammar": self.source_grammar.name,
            "mode": self.mode,
            "tables": None if dp else engine.stats(),
            "selection": totals,
            "resilience": self.resilience_stats(),
            "obs": self._obs.metrics.flatten() if self._obs is not None else None,
        }

    def resilience_stats(self) -> dict[str, object]:
        """The ``stats()["resilience"]`` block alone, without building
        the rest of :meth:`stats` (the service worker ships it home
        after every batch)."""
        resilience = self._resilience
        return {
            "isolated_failures": resilience["isolated_failures"],
            "failures_by_phase": dict(resilience["failures_by_phase"]),
            "deadline_overruns": resilience["deadline_overruns"],
        }

    def __repr__(self) -> str:
        return f"Selector({self.source_grammar.name!r}, mode={self.mode!r})"

