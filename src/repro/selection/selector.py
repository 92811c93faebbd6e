"""The :class:`Selector` facade: one object owning grammar → tables → selection.

The paper's central trade-off — on-demand automata versus offline table
generation — is one object here.  ``Selector`` packages the whole
lifecycle behind one public API (``Selector.wrap(engine)`` adopts an
already-built engine):

* ``Selector(grammar, mode="dp" | "ondemand" | "eager")`` picks the
  labeling architecture; ``mode="eager"`` precomputes all reachable
  transitions at construction time.
* ``.label(forest)`` / ``.label_many(forests)`` label; ``.select(...)``
  / ``.select_many(...)`` run the full label + reduce + emit pipeline
  and return values plus a :class:`SelectionReport`.
* ``.compile()`` runs the eager (offline) build on demand-mode
  selectors; ``.save(path)`` / ``Selector.load(path, grammar)`` persist
  and restore the compiled tables — the ahead-of-time path.
* ``.stats()`` unifies the previously-split views (automaton table
  stats, :class:`~repro.metrics.counters.LabelMetrics` hit/warm rates,
  :class:`SelectionReport` per-phase nanoseconds) into one dict.

Ahead-of-time artifacts
-----------------------
``save`` serializes the interned nonterminal and operator id spaces,
the hash-consed state set, and every per-operator transition table into
**dense integer matrices** (``array('q')`` buffers): unary transitions
become one flat ``state_count``-sized vector per operator, binary
transitions one ``state_count²`` matrix indexed by ``s0 * size + s1``.
The matrices are only the on-disk encoding: ``load`` rehydrates them
into the automaton's per-operator dict tables, which label at runtime.

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

The module doubles as the AOT command-line tool::

    python -m repro.selection.selector compile <grammar> <out.rsel>
    python -m repro.selection.selector inspect <out.rsel>

where ``<grammar>`` is either a path to a burg-style grammar text file
or a ``module:attr`` spec naming a :class:`~repro.grammar.grammar.
Grammar` (or a zero-argument callable returning one), e.g.
``repro.bench.workloads:bench_grammar``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
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
    CoverError,
    DeadlineExceededError,
    SelectorError,
)
from repro.grammar.grammar import Grammar
from repro.ir.node import Forest
from repro.ir.validate import validate_forest
from repro.metrics.counters import LabelMetrics
from repro.obs import resolve_obs
from repro.selection.automaton import UNEVALUATED, AutomatonLabeling, OnDemandAutomaton
from repro.selection.cover import Labeling, extract_cover
from repro.selection.label_dp import DPLabeler
from repro.selection.reducer import Reducer
from repro.selection.resilience import (
    BuildBudget,
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
    "main",
    "read_artifact_header",
    "resolve_grammar",
]

#: The selector modes: the paper's three labeling architectures.
MODES = ("dp", "ondemand", "eager")

#: Batch error policies for ``select``/``select_many`` (see
#: :meth:`Selector.select_many`).
ON_ERROR_POLICIES = ("raise", "isolate")

#: Emission engines selectable via :attr:`SelectorConfig.emitter`.
EMITTERS = ("tape", "reducer")

_MAGIC = b"RSELTBL1"
_FORMAT_VERSION = 2
_HEADER_LEN_STRUCT = struct.Struct("<I")

#: Wire encoding of :data:`~repro.selection.automaton.UNEVALUATED`
#: (``None``) inside dynamic outcome runs.  Real outcomes are
#: non-negative costs, so ``-1`` cannot collide.
_SIG_UNEVALUATED = -1


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


def _serialize(
    automaton: OnDemandAutomaton,
    fingerprint: str,
    certified: bool | None = None,
) -> bytes:
    """Encode the automaton's id spaces and transition tables into one blob.

    Unary transitions become one flat ``state_count``-sized vector per
    operator and binary transitions one ``state_count²`` matrix indexed
    by ``s0 * size + s1`` (``-1`` where the dict tables have no entry);
    arity ≥ 3 and dynamic transitions become flat integer runs (a dynamic
    one is its child-state ids, its outcomes, and its state).
    """
    pool = automaton.pool
    size = len(pool)
    sections: list[dict[str, object]] = []
    chunks: list[bytes] = []
    offset = 0

    def add_section(kind: str, values: Iterable[int], op: str | None = None) -> None:
        nonlocal offset
        arr = array("q", values)
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
        if table.unary:
            arr = array("q", [-1]) * size
            for child, state in table.unary.items():
                arr[child] = state.index
            add_section("unary", arr, op=name)
        if table.binary:
            arr = array("q", [-1]) * (size * size)
            for c0, row in table.binary.items():
                base = c0 * size
                for c1, state in row.items():
                    arr[base + c1] = state.index
            add_section("binary", arr, op=name)
        if table.nary:
            flat: list[int] = []
            for key, state in table.nary.items():
                flat.append(len(key))
                flat.extend(key)
                flat.append(state.index)
            add_section("nary", flat, op=name)
        if table.dyn:
            flat = []
            for kid_ids, row in table.dyn.items():
                for outcomes, state in row.items():
                    flat.append(len(kid_ids))
                    flat.extend(kid_ids)
                    flat.append(len(outcomes))
                    for value in outcomes:
                        if value is UNEVALUATED:
                            flat.append(_SIG_UNEVALUATED)
                        elif isinstance(value, int) and value >= 0:
                            flat.append(value)
                        else:
                            raise SelectorError(
                                f"operator {name!r}: dynamic outcome {value!r} is not "
                                f"serializable (only non-negative integer costs are)"
                            )
                    flat.append(state.index)
            add_section("dyn", flat, op=name)

    payload = b"".join(chunks)
    header = {
        "format": _FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "fingerprint": fingerprint,
        "grammar": automaton.source_grammar.name,
        "start": automaton.source_grammar.start,
        "nonterminals": list(pool.nt_names),
        "states": size,
        "operators": ops_meta,
        "certified": certified,
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
    "certified": (bool, _NONE),
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


def _read_artifact(path: str | Path) -> tuple[dict, bytes, int]:
    """Read and structurally validate an artifact.

    Returns ``(header, payload, total_bytes)``.  Raises
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
    return header, payload, len(blob)


def read_artifact_header(path: str | Path) -> dict:
    """The validated header of a selector artifact (no grammar required).

    Useful to check an artifact's ``fingerprint``/``grammar`` before
    deciding which grammar to load it with; raises
    :class:`~repro.errors.SelectorError` exactly like ``load`` on
    malformed, truncated, or corrupted files.
    """
    header, _payload, _nbytes = _read_artifact(path)
    return header


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
    """Fill a freshly-synced automaton's pool and dict tables from an
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

    for meta in header["operators"]:
        name = meta["name"]
        table = automaton._table_for(name)
        if meta["nullary"] >= 0:
            table.nullary = state_at(meta["nullary"])
        unary = sections.get(("unary", name))
        if unary is not None:
            if len(unary) != size:
                raise corrupt(f"unary vector for {name!r} has {len(unary)} slots, not {size}")
            for child, idx in enumerate(unary):
                if idx >= 0:
                    table.unary[child] = state_at(idx)
        binary = sections.get(("binary", name))
        if binary is not None:
            if len(binary) != size * size:
                raise corrupt(
                    f"binary matrix for {name!r} has {len(binary)} slots, "
                    f"expected {size * size}"
                )
            for slot, idx in enumerate(binary):
                if idx >= 0:
                    c0, c1 = divmod(slot, size)
                    row = table.binary.get(c0)
                    if row is None:
                        row = table.binary[c0] = {}
                    row[c1] = state_at(idx)
        nary = sections.get(("nary", name))
        if nary is not None:
            pos = 0
            while pos < len(nary):
                key, pos = take(nary, pos)
                table.nary[key] = state_at(nary[pos])
                pos += 1
        dyn = sections.get(("dyn", name))
        if dyn is not None:
            chain_outcomes = len(automaton._dyn_chain)
            pos = 0
            while pos < len(dyn):
                kid_ids, pos = take(dyn, pos)
                values, pos = take(dyn, pos)
                for kid in kid_ids:
                    state_at(kid)
                row = table.dyn.get(kid_ids)
                if row is None:
                    row = automaton._dyn_row(table, kid_ids)
                if len(values) != len(row.candidates) + chain_outcomes:
                    raise corrupt(
                        f"a dynamic transition of {name!r} has {len(values)} outcomes, "
                        f"expected {len(row.candidates) + chain_outcomes}"
                    )
                outcomes = tuple(
                    UNEVALUATED if value == _SIG_UNEVALUATED else value for value in values
                )
                row[outcomes] = state_at(dyn[pos])
                pos += 1


# ----------------------------------------------------------------------
# Selection report / result (the pipeline's public dataclasses)


@dataclass
class SelectionReport:
    """What one ``select`` / ``select_many`` call did and cost.

    Counts describe the whole batch; the ``*_ns`` fields are integer
    ``perf_counter_ns`` measurements of the labeling phase, the
    reduction/emission phase, and the cover-costing fallback.  Both
    emission engines sum each forest's cover cost in the walk that
    emits it (the tape's compile walk, the frame engine's reduction
    walk), so :attr:`cover_cost` is free and :attr:`cover_ns` is 0
    unless a forest memo-hit an entry an earlier batch forest made
    (cross-forest node sharing): only such forests pay an
    :func:`~repro.selection.cover.extract_cover` walk, timed in
    :attr:`cover_ns`.
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
    #: Total cover cost from the start nonterminal, summed over forests
    #: (``None`` when the caller skipped cover collection).
    cover_cost: int | None
    #: Distinct (node, nonterminal) reductions — rule applications.
    reductions: int
    #: Reduction requests answered from the reducer's memo.
    memo_hits: int
    label_ns: int
    reduce_ns: int
    #: Input-validation nanoseconds (0 unless ``config.validate`` is on;
    #: not part of :attr:`total_ns`).
    validate_ns: int = 0
    #: Nanoseconds spent in fallback ``extract_cover`` walks (0 when
    #: every forest's cost came from its tape, or cover collection was
    #: skipped).
    cover_ns: int = 0
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
        """Labeling, reduction/emission, and cover-fallback nanoseconds."""
        return self.label_ns + self.reduce_ns + self.cover_ns

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
            "cover_ns": self.cover_ns,
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
        max_states: State-pool cap handed to the eager build (a runaway
            guard for huge grammars; a capped build leaves valid but
            incomplete tables).
        validate: Debug flag: run the structural forest validator
            (:func:`repro.ir.validate.validate_forest`) against the
            grammar's operator set before every ``label``/``label_many``
            call, raising
            :class:`~repro.ir.validate.ForestValidationError` on
            malformed input instead of failing mid-selection.
        emitter: Which emission engine ``select``/``select_many`` run:
            ``"tape"`` (default) compiles every automaton labeling to
            flat instruction tapes from its state-indexed derivation
            fragments (:class:`~repro.selection.tape.TapeEmitter`);
            ``mode="dp"``, whose labeling has no states, runs the
            frame-stack :class:`~repro.selection.reducer.Reducer`
            either way.
            ``"reducer"`` keeps the frame engine for every labeling —
            the differential oracle (see
            :meth:`Selector._make_emitter`).  Both engines emit
            byte-identical instruction streams and cost the cover in
            the walk that emits it.
        observe: Observability wiring: ``None``/``False`` (default)
            disables it — the pipeline pays one attribute check per
            batch; ``True`` builds a private
            :class:`~repro.obs.Observability` bundle; an existing
            bundle shares its tracer/registry with other components
            (artifact cache, service).  When enabled, every
            ``select``/``select_many`` records pipeline-phase spans
            (``pipeline.validate``/``label``/``tape_compile``/
            ``emit``) and feeds the phase histograms and batch
            counters surfaced on ``stats()["obs"]``.
    """

    max_states: int | None = None
    validate: bool = False
    emitter: str = "tape"
    observe: Any = None


class Selector:
    """The public instruction-selection facade (see module docs).

    A selector owns one labeling engine — a
    :class:`~repro.selection.label_dp.DPLabeler` for ``mode="dp"``, an
    :class:`~repro.selection.automaton.OnDemandAutomaton` otherwise —
    and is meant to be long-lived: construct once per grammar, call
    ``label``/``select`` for every forest.  ``Selector.wrap(engine)``
    adopts an already-built engine (e.g. a warm automaton) unchanged.
    """

    def __init__(
        self,
        grammar: Grammar | None = None,
        mode: str = "ondemand",
        config: SelectorConfig | None = None,
        *,
        engine: object | None = None,
    ) -> None:
        self.config = config if config is not None else SelectorConfig()
        if engine is not None:
            if not hasattr(engine, "label_many"):
                raise TypeError(f"labeler object {engine!r} does not expose label_many()")
            self.engine = engine
            source = getattr(engine, "source_grammar", None)
            self.source_grammar = source if source is not None else engine.grammar
        else:
            if grammar is None:
                raise SelectorError("Selector needs a grammar (or an engine to wrap)")
            if mode not in MODES:
                raise ValueError(
                    f"unknown selector mode {mode!r}; expected one of {', '.join(MODES)}"
                )
            self.source_grammar = grammar
            self.engine = DPLabeler(grammar) if mode == "dp" else OnDemandAutomaton(grammar)
        self._tables_version: int | None = None
        self._loaded_from: str | None = None
        self._build_ns: int | None = None
        self._save_ns: int | None = None
        self._load_ns: int | None = None
        self._artifact_bytes: int | None = None
        self._last_metrics: LabelMetrics | None = None
        self._last_report: SelectionReport | None = None
        self._certified: bool | None = None
        self._certified_version: int | None = None
        self._resilience = new_resilience_counters()
        #: Human-readable cause of the most recent degradation-ladder
        #: step (``None`` while fully healthy).
        self._last_degradation: str | None = None
        #: Observability bundle (the process-wide null bundle when
        #: disabled, so hot paths guard with one attribute check).
        self._obs = resolve_obs(self.config.observe)
        if self._obs.enabled:
            metrics = self._obs.metrics
            self._obs_phase_ns = {
                "validate": metrics.histogram("pipeline_phase_ns", phase="validate"),
                "label": metrics.histogram("pipeline_phase_ns", phase="label"),
                "emit": metrics.histogram("pipeline_phase_ns", phase="emit"),
                "cover": metrics.histogram("pipeline_phase_ns", phase="cover"),
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
            "cover_ns": 0,
            "failures": 0,
            "tapes_compiled": 0,
        }
        if engine is None and mode == "eager":
            self.compile()

    # ------------------------------------------------------------------
    # Construction helpers

    @classmethod
    def wrap(cls, engine: object, config: SelectorConfig | None = None) -> "Selector":
        """Adopt an already-built labeling engine (pass-through for selectors)."""
        if isinstance(engine, Selector):
            return engine
        return cls(engine=engine, config=config)

    @property
    def grammar(self) -> Grammar:
        """The source grammar this selector selects over."""
        return self.source_grammar

    @property
    def mode(self) -> str:
        """The effective labeling mode (``eager`` once tables are compiled)."""
        engine = self.engine
        if isinstance(engine, DPLabeler):
            return "dp"
        if isinstance(engine, OnDemandAutomaton):
            return "eager" if engine._eager is not None else "ondemand"
        return type(engine).__name__

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
        if metrics is not None:
            self._last_metrics = metrics
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
        budget: BuildBudget | None = None,
    ) -> SelectionResult:
        """Select instructions for a batch of forests in one fused pipeline.

        Labels all *forests* with one batched ``label_many`` call,
        emits every root through one shared emission engine (running
        emit actions against *context*), and returns per-forest
        semantic-value lists plus a :class:`SelectionReport`.

        *on_error* picks the batch fault policy; both policies run the
        same validate → label → emit → cover pipeline and differ only
        in what a raising forest does:

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
          labeling faults make the engine re-label the batch one forest
          at a time, so a batch containing a labeling fault may invoke
          dynamic callables more than once per node.

        *budget* threads a deadline through the hot loops: a
        :class:`~repro.service.budgets.RequestBudget` (or any
        :class:`BuildBudget` exposing ``deadline_at_ns``) arms
        cooperative cancellation checks in the label walks and the
        emission engine (the reducer's frame loop, or the tape's
        compile walk and sweep).  The resulting
        :class:`~repro.errors.DeadlineExceededError` covers the *whole
        batch* and always propagates — even under
        ``on_error="isolate"`` — because per-request deadline
        accounting belongs to the caller (the service front door).
        """
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {on_error!r}; expected one of "
                f"{', '.join(ON_ERROR_POLICIES)}"
            )
        forests = list(forests)
        deadline_at_ns: int | None = (
            getattr(budget, "deadline_at_ns", None) if budget is not None else None
        )
        try:
            if deadline_at_ns is not None:
                # Upfront check: an already-expired budget fails here
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
    ) -> Reducer:
        """The configured emission engine over *labeling*.

        One rule: under ``"tape"``, every automaton labeling
        (``ondemand``, ``eager``, or loaded from an artifact, static or
        dynamic grammar) emits through a :class:`TapeEmitter`, compiling
        each forest from the automaton's state-indexed derivation
        fragments.  A labeling without states — ``mode="dp"``, or a
        wrapped engine's own labeling — and ``"reducer"`` get the
        frame-stack :class:`Reducer`, which stays as the differential
        oracle.  Both
        honor the same ``reduce_forest``/``memo_size``/``rollback_to``
        contract and cost the cover in the walk that emits it.
        """
        emitter = self.config.emitter
        if emitter not in EMITTERS:
            raise ValueError(
                f"unknown emitter {emitter!r}; expected one of {', '.join(EMITTERS)}"
            )
        if emitter == "tape" and isinstance(labeling, AutomatonLabeling):
            return TapeEmitter(
                labeling,
                context,
                deadline_at_ns=deadline_at_ns,
                tracer=self._obs.tracer if self._obs.enabled else None,
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

        Runs validate → label → emit → cover fallback once.  In each
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

        # Label phase: one fused batch; only after a batch-aborting fault
        # under "isolate" is it re-labeled one forest at a time, each
        # survivor then carrying its own labeling.
        started = time.perf_counter_ns()
        label_many = self.engine.label_many
        labeled: list[tuple[int, Forest, Labeling]] = []
        shared_labeling: Labeling | None = None
        try:
            shared_labeling = label_many(
                [forest for _, forest in live], None, deadline_at_ns=deadline_at_ns
            )
        except DeadlineExceededError:
            raise
        except Exception:
            if not isolate:
                raise
            for index, forest in live:
                try:
                    labeling = label_many([forest], None, deadline_at_ns=deadline_at_ns)
                except DeadlineExceededError:
                    raise
                except Exception as exc:
                    failures[index] = SelectionFailure(
                        index, forest.name, "label", exc, node_provenance(exc)
                    )
                else:
                    labeled.append((index, forest, labeling))
        else:
            labeled = [(index, forest, shared_labeling) for index, forest in live]
        label_ns = time.perf_counter_ns() - started

        # Emit phase: one emission engine per labeling object, its start
        # nonterminal resolved outside the per-forest try (a grammar
        # without one fails the whole batch).  A faulted forest's
        # memo/value-buffer entries are rolled back before the next
        # forest emits, so half-emitted values are never reused.
        values: list[Any] = [None] * len(forests)
        costs: dict[int, int | None] = {}
        engines: dict[int, tuple[Reducer, str]] = {}
        started = time.perf_counter_ns()
        for index, forest, labeling in labeled:
            entry = engines.get(id(labeling))
            if entry is None:
                engine = self._make_emitter(labeling, context, deadline_at_ns)
                entry = engines[id(labeling)] = (engine, engine.resolve_start(start))
            engine, start_nt = entry
            mark = engine.memo_size()
            try:
                values[index] = engine.reduce_forest(forest, start_nt)
                costs[index] = engine.last_cover_cost
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
        end_ns = time.perf_counter_ns()
        reduce_ns = end_ns - started

        # Cover phase: walk costs are free; forests without one (a memo
        # hit on an earlier forest's entry) pay an extract_cover walk,
        # timed as the cover layer.  A fault there fails only that
        # forest: its emitted values stand, as every root was reduced.
        cover_cost: int | None = None
        cover_ns = 0
        if collect_cover:
            cover_cost = 0
            uncosted: list[tuple[int, Forest, Labeling]] = []
            for index, forest, labeling in labeled:
                cost = costs.get(index)
                if cost is not None:
                    cover_cost += cost
                elif index not in failures:
                    uncosted.append((index, forest, labeling))
            if uncosted:
                started = end_ns
                for index, forest, labeling in uncosted:
                    try:
                        cover_cost += extract_cover(labeling, forest, start).total_cost()
                    except DeadlineExceededError:
                        raise
                    except Exception as exc:
                        if not isolate:
                            raise
                        failures[index] = SelectionFailure(
                            index,
                            forest.name,
                            "cover",
                            exc,
                            node_provenance(exc),
                            roots_completed=len(forest.roots),
                        )
                end_ns = time.perf_counter_ns()
                cover_ns = end_ns - started

        if failures:
            self._resilience["isolated_failures"] += len(failures)
            by_phase = self._resilience["failures_by_phase"]
            for index, failure in failures.items():
                values[index] = failure
                by_phase[failure.phase] += 1

        emitters = [engine for engine, _ in engines.values()]
        distinct = {id(labeling): labeling for _, _, labeling in labeled}
        report = SelectionReport(
            grammar=self.source_grammar.name,
            labeler=self.mode,
            forests=len(forests),
            roots=sum(len(forest.roots) for forest in forests),
            nodes=sum(labeling.nodes_labeled for labeling in distinct.values()),
            cover_cost=cover_cost,
            reductions=sum(engine.reductions for engine in emitters),
            memo_hits=sum(engine.memo_hits for engine in emitters),
            label_ns=label_ns,
            reduce_ns=reduce_ns,
            validate_ns=validate_ns,
            cover_ns=cover_ns,
            failures=len(failures),
            tapes_compiled=sum(getattr(engine, "tapes_compiled", 0) for engine in emitters),
        )
        self._record(report, end_ns)
        if shared_labeling is None:
            shared_labeling = labeled[0][2] if labeled else label_many([])
        return SelectionResult(values=values, report=report, labeling=shared_labeling)

    def select(
        self,
        forest: Forest,
        *,
        context: Any = None,
        start: str | None = None,
        collect_cover: bool = True,
        on_error: str = "raise",
        budget: BuildBudget | None = None,
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
            budget=budget,
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
        totals["cover_ns"] += report.cover_ns
        totals["failures"] += report.failures
        totals["tapes_compiled"] += report.tapes_compiled
        self._last_report = report
        if self._obs.enabled:
            self._observe_batch(report, end_ns)

    def _observe_batch(self, report: SelectionReport, end_ns: int | None) -> None:
        """Record one batch's spans and metrics (enabled-obs path only).

        Span boundaries are reconstructed backwards from *end_ns* (the
        final ``perf_counter_ns`` reading: post-cover when a cover
        fallback ran, post-reduce otherwise) out of the report's
        already-measured phase nanoseconds — the tracer adds no clock
        calls inside the measured windows, so durations are exact; only
        the small inter-phase gaps (emitter construction) are absorbed
        into the reconstruction.
        """
        if end_ns is None:
            end_ns = time.perf_counter_ns()
        emit_end = end_ns - report.cover_ns
        emit_start = emit_end - report.reduce_ns
        label_start = emit_start - report.label_ns
        select_start = label_start - report.validate_ns
        tracer = self._obs.tracer
        if tracer.enabled:
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
                emit_end,
                parent_id=select_id,
                reductions=report.reductions,
                failures=report.failures,
            )
            if report.cover_ns:
                tracer.record("pipeline.cover", emit_end, end_ns, parent_id=select_id)
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
        if report.cover_ns:
            self._obs_phase_ns["cover"].observe(report.cover_ns)
        self._obs_batches.inc()
        self._obs_nodes.inc(report.nodes)
        if report.failures:
            self._obs_failures.inc(report.failures)
        if report.tapes_compiled:
            self._obs_tapes.inc(report.tapes_compiled)

    # ------------------------------------------------------------------
    # Ahead-of-time: compile / save / load

    def compile(
        self, max_states: int | None = None, budget: BuildBudget | None = None
    ) -> dict[str, object]:
        """Run the eager (offline) build: precompute all reachable tables.

        After ``compile()`` the selector labels with zero table misses
        (modulo ``skipped`` operators and a fired ``max_states`` cap)
        and :attr:`mode` reports ``"eager"``.  Returns the build stats,
        also available under ``stats()["tables"]["eager"]``.

        With a :class:`~repro.selection.resilience.BuildBudget`, the
        build runs under the budget's state cap and wall-clock deadline,
        and exceeding either **demotes** the selector to on-demand mode
        instead of shipping silently-incomplete "eager" tables: the
        partial tables stay warm, :attr:`mode` stays ``"ondemand"``,
        and the demotion is counted under
        ``stats()["resilience"]["demotions"]["build_budget"]``.  (A
        plain ``max_states`` cap keeps the historical capped-but-eager
        semantics.)
        """
        automaton = self._require_automaton("compile")
        cap = max_states
        deadline = None
        if budget is not None:
            if cap is None:
                cap = budget.max_states
            deadline = budget.deadline_ns
        if cap is None:
            cap = self.config.max_states
        started = time.perf_counter_ns()
        build = automaton.build_eager(cap, deadline)
        self._build_ns = time.perf_counter_ns() - started
        self._tables_version = automaton._source_version
        over_budget = budget is not None and (
            build.get("capped") or build.get("deadline_exceeded")
        )
        if over_budget:
            automaton._eager = None
            self._resilience["demotions"]["build_budget"] += 1
            cause = (
                "deadline_ns exceeded" if build.get("deadline_exceeded") else "max_states hit"
            )
            self._last_degradation = f"build_budget: {cause}, demoted to on-demand"
        return build

    def verify(self, max_states: int | None = None):
        """Certify the grammar complete (total) over its covered operators.

        Runs the static completeness verifier
        (:func:`repro.analysis.completeness.verify_completeness`): every
        reachable (operator, child-state) combination must label to a
        state deriving the start nonterminal, so selection can never
        raise a "no cover" error on forests over the covered operators.
        The resulting certification bit is surfaced in
        ``stats()["aot"]["certified"]`` and stamped into artifacts
        written by :meth:`save` (a later grammar extension invalidates
        it).  Returns the full
        :class:`~repro.analysis.completeness.CompletenessReport`.
        """
        from repro.analysis.completeness import verify_completeness

        cap = max_states if max_states is not None else self.config.max_states
        report = verify_completeness(self.source_grammar, cap)
        self._certified = report.certified
        self._certified_version = self.source_grammar.version
        return report

    def _current_certification(self) -> bool | None:
        """The certification bit, or None when absent or stale."""
        if self._certified is None:
            return None
        if self._certified_version != self.source_grammar.version:
            return None
        return self._certified

    def save(self, path: str | Path) -> Path:
        """Serialize the compiled tables to *path* (compiling if needed).

        The artifact holds the interned nonterminal/operator id spaces,
        the state set, and every transition table as dense integer
        buffers, keyed by the grammar's fingerprint — plus the
        completeness-certification bit when :meth:`verify` ran against
        the current grammar; see the module docs for the format and
        what ``load`` guarantees.

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
        started = time.perf_counter_ns()
        blob = _serialize(
            automaton,
            grammar_fingerprint(self.source_grammar),
            certified=self._current_certification(),
        )
        target = Path(path)
        try:
            _atomic_write_bytes(target, blob)
        except OSError as exc:
            raise ArtifactIOError(
                f"cannot write selector artifact {target}: {exc}"
            ) from exc
        self._save_ns = time.perf_counter_ns() - started
        self._artifact_bytes = len(blob)
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
        started = time.perf_counter_ns()
        header, payload, artifact_bytes = _read_artifact(path)
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
        selector = cls(engine=automaton, config=config)
        selector._tables_version = automaton._source_version
        selector._certified = header.get("certified")
        selector._certified_version = grammar.version
        selector._loaded_from = str(path)
        # The size of the blob already read — never a second stat()
        # syscall, whose OSError (file swapped or deleted by a
        # concurrent writer between read and stat) would fail an
        # otherwise fully successful load.
        selector._artifact_bytes = artifact_bytes
        selector._load_ns = time.perf_counter_ns() - started
        return selector

    @classmethod
    def load_or_compile(
        cls,
        path: str | Path,
        grammar: Grammar,
        config: SelectorConfig | None = None,
        *,
        budget: BuildBudget | None = None,
    ) -> "Selector":
        """The graceful-degradation ladder's entry point: load, else compile.

        Tries :meth:`load` first; **any** artifact failure — unreadable,
        corrupt, truncated, stale fingerprint — demotes to an in-process
        :meth:`compile` (under *budget*, when given, which may itself
        demote eager → on-demand) instead of propagating.  The demotion
        is recorded under
        ``stats()["resilience"]["demotions"]["load_failed"]`` on the
        returned selector.  The artifact file is left untouched — use
        :class:`~repro.selection.resilience.ArtifactCache` for the
        retry/quarantine/save-back lifecycle around a cache directory.
        """
        try:
            return cls.load(path, grammar, config)
        except SelectorError as exc:
            selector = cls(grammar, mode="ondemand", config=config)
            selector._resilience["demotions"]["load_failed"] += 1
            selector._last_degradation = (
                f"load_failed: {type(exc).__name__}: {exc}; compiled in-process"
            )
            selector.compile(budget=budget)
            return selector

    # ------------------------------------------------------------------
    # Unified stats

    def stats(self) -> dict[str, object]:
        """One dict unifying the previously-split introspection views.

        * ``tables`` — the automaton's state/transition counts (plus the
          ``eager`` build entry) for automaton modes, ``None`` for DP;
        * ``aot`` — the ahead-of-time story: compiled/loaded flags,
          build/save/load nanoseconds, artifact size, fingerprint, and
          whether the tables are still valid (a grammar extension
          invalidates them);
        * ``labeling`` — hit/warm rates and work counters of the most
          recent *metered* labeling run (``None`` until a caller passes
          a :class:`LabelMetrics`; unmetered calls are by design
          uncounted);
        * ``selection`` — cumulative pipeline totals (forests, nodes,
          reductions, memo hits, per-phase nanoseconds) plus the last
          :class:`SelectionReport` as a row;
        * ``resilience`` — fault-isolation and degradation-ladder
          counters: forests contained by ``on_error="isolate"`` (total
          and by phase), demotions by cause (``load_failed``,
          ``build_budget``), artifact-cache retries/quarantines attributed to this
          selector, and the human-readable ``last_degradation``.
        """
        engine = self.engine
        automaton = engine if isinstance(engine, OnDemandAutomaton) else None
        stale = (
            automaton is not None
            and automaton.source_grammar.version != automaton._source_version
        )
        row: dict[str, object] = {
            "grammar": self.source_grammar.name,
            "mode": self.mode,
            "tables": automaton.stats() if automaton is not None else None,
        }
        row["aot"] = {
            "compiled": automaton is not None and automaton._eager is not None and not stale,
            "loaded_from": self._loaded_from,
            "valid": automaton is not None
            and automaton._eager is not None
            and not stale
            and self._tables_version == automaton._source_version,
            "fingerprint": grammar_fingerprint(self.source_grammar),
            "certified": self._current_certification(),
            "build_ns": self._build_ns,
            "save_ns": self._save_ns,
            "load_ns": self._load_ns,
            "artifact_bytes": self._artifact_bytes,
        }
        last = self._last_metrics
        row["labeling"] = (
            None
            if last is None
            else {
                "nodes_labeled": last.nodes_labeled,
                "table_lookups": last.table_lookups,
                "table_misses": last.table_misses,
                "hit_rate": last.hit_rate,
                "warm_fraction": last.warm_fraction,
                "rule_checks": last.rule_checks,
                "chain_checks": last.chain_checks,
                "states_created": last.states_created,
                "dynamic_evals": last.dynamic_evals,
                "seconds": last.seconds,
            }
        )
        totals = dict(self._totals)
        total_ns = totals["label_ns"] + totals["reduce_ns"] + totals["cover_ns"]
        totals["total_ns"] = total_ns
        totals["ns_per_node"] = total_ns / max(totals["nodes"], 1)
        totals["reduce_fraction"] = totals["reduce_ns"] / total_ns if total_ns > 0 else 0.0
        totals["emitter"] = self.config.emitter
        totals["last"] = self._last_report.as_row() if self._last_report is not None else None
        row["selection"] = totals
        row["resilience"] = self.resilience_stats()
        row["obs"] = self._obs_stats() if self._obs.enabled else None
        return row

    def resilience_stats(self) -> dict[str, object]:
        """The ``stats()["resilience"]`` block alone, without building
        the rest of :meth:`stats` (the service worker ships it home
        after every batch)."""
        resilience = self._resilience
        return {
            "isolated_failures": resilience["isolated_failures"],
            "failures_by_phase": dict(resilience["failures_by_phase"]),
            "demotions": dict(resilience["demotions"]),
            "retries": resilience["retries"],
            "quarantined": resilience["quarantined"],
            "deadline_overruns": resilience["deadline_overruns"],
            "last_degradation": self._last_degradation,
        }

    def _obs_stats(self) -> dict[str, object]:
        """The unified flattened observability view (``stats()["obs"]``).

        One flat key space subsuming the registry's counters/gauges/
        histogram summaries, the resilience counters, the cumulative
        selection totals, and the most recent metered
        :class:`LabelMetrics` — the single surface dashboards scrape.
        """
        flat = self._obs.metrics.flatten()
        resilience = self._resilience
        flat["resilience_isolated_failures"] = resilience["isolated_failures"]
        for phase, value in resilience["failures_by_phase"].items():
            flat[f'resilience_failures_total{{phase="{phase}"}}'] = value
        for cause, value in resilience["demotions"].items():
            flat[f'resilience_demotions_total{{cause="{cause}"}}'] = value
        flat["resilience_retries"] = resilience["retries"]
        flat["resilience_quarantined"] = resilience["quarantined"]
        flat["resilience_deadline_overruns"] = resilience["deadline_overruns"]
        totals = self._totals
        total_ns = totals["label_ns"] + totals["reduce_ns"] + totals["cover_ns"]
        flat["selection_calls"] = totals["calls"]
        flat["selection_total_ns"] = total_ns
        flat["selection_ns_per_node"] = total_ns / max(totals["nodes"], 1)
        last = self._last_metrics
        if last is not None:
            flat["labeling_nodes_labeled"] = last.nodes_labeled
            flat["labeling_table_lookups"] = last.table_lookups
            flat["labeling_table_misses"] = last.table_misses
            flat["labeling_states_created"] = last.states_created
            flat["labeling_dynamic_evals"] = last.dynamic_evals
        return flat

    def __repr__(self) -> str:
        return f"Selector({self.source_grammar.name!r}, mode={self.mode!r})"


# ----------------------------------------------------------------------
# Command-line interface: ahead-of-time selector generation


def _resolve_object(spec: str) -> object:
    """Import a ``module:attr`` spec; call it if callable."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise SelectorError(f"bad module spec {spec!r}: expected module:attr")
    try:
        module = importlib.import_module(module_name)
        target = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise SelectorError(f"cannot resolve {spec!r}: {exc}") from exc
    return target() if callable(target) and not isinstance(target, type) else target


def resolve_grammar(
    spec: str, operators_spec: str | None = None, bindings_spec: str | None = None
) -> Grammar:
    """A grammar from a ``module:attr`` spec or a grammar text file.

    Shared by the selector and ``repro.analysis`` CLIs: a spec
    containing ``:`` that is not an existing path is imported (and
    called when it is a factory); anything else is read as burg-style
    grammar text, parsed with the optionally-specified operator set and
    bindings.
    """
    if ":" in spec and not Path(spec).exists():
        grammar = _resolve_object(spec)
        if not isinstance(grammar, Grammar):
            raise SelectorError(f"{spec!r} resolved to {type(grammar).__name__}, not a Grammar")
        return grammar
    from repro.grammar.parser import parse_grammar

    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise SelectorError(f"cannot read grammar {spec!r}: {exc}") from exc
    operators = _resolve_object(operators_spec) if operators_spec else None
    bindings = _resolve_object(bindings_spec) if bindings_spec else None
    return parse_grammar(text, operators=operators, bindings=bindings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.selection.selector",
        description="Ahead-of-time selector generation: compile a grammar's eager "
        "tables to a loadable artifact.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser(
        "compile", help="eager-build a grammar's tables and save the artifact"
    )
    compile_cmd.add_argument(
        "grammar",
        help="grammar source: a burg-style grammar text file, or a module:attr "
        "spec naming a Grammar or a callable returning one "
        "(e.g. repro.bench.workloads:bench_grammar)",
    )
    compile_cmd.add_argument("out", help="artifact path to write")
    compile_cmd.add_argument(
        "--max-states", type=int, default=None, help="eager-build state-pool cap"
    )
    compile_cmd.add_argument(
        "--verify",
        action="store_true",
        help="run the completeness verifier before writing; refuse (exit 1, with a "
        "counterexample tree) unless the grammar is certified total, and stamp the "
        "certification bit into the artifact header",
    )
    compile_cmd.add_argument(
        "--operators", default=None, help="module:attr OperatorSet for text grammars"
    )
    compile_cmd.add_argument(
        "--bindings",
        default=None,
        help="module:attr mapping of dynamic-cost/constraint callables for text grammars",
    )

    inspect_cmd = sub.add_parser("inspect", help="print an artifact's header summary")
    inspect_cmd.add_argument("artifact")

    args = parser.parse_args(argv)
    try:
        if args.command == "compile":
            grammar = resolve_grammar(args.grammar, args.operators, args.bindings)
            selector = Selector(
                grammar, mode="ondemand", config=SelectorConfig(max_states=args.max_states)
            )
            build = selector.compile()
            if args.verify:
                report = selector.verify()
                if not report.certified:
                    print(f"error: {report.describe()}", file=sys.stderr)
                    return 1
                print(report.describe())
            target = selector.save(args.out)
            aot = selector.stats()["aot"]
            print(
                f"compiled {grammar.name!r}: {build['states']} states, "
                f"{build['transitions']} transitions "
                f"(build {build['build_seconds'] * 1e3:.1f} ms"
                + (f", skipped ops: {', '.join(build['skipped'])}" if build["skipped"] else "")
                + (", CAPPED" if build["capped"] else "")
                + ")"
            )
            print(f"fingerprint {aot['fingerprint']}")
            print(f"wrote {target} ({aot['artifact_bytes']} bytes)")
            return 0
        header, _payload, _nbytes = _read_artifact(args.artifact)
        summary = {
            key: header.get(key)
            for key in ("format", "grammar", "start", "fingerprint", "states", "payload_len")
        }
        summary["nonterminals"] = len(header["nonterminals"])
        summary["operators"] = len(header["operators"])
        summary["eager"] = header.get("eager")
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    except (SelectorError, CoverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
