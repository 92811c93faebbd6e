"""Seeded inputs, emit contexts and fingerprints for the caller-view workloads.

Every forest a run uses is generated here from the workload seed before
any clock starts.  The engine workloads cycle through a fixed pool of
batches; the pool holds more forests than the selector's tape cache
(256 shapes), so cycling through ``fresh_blocks`` never turns a
compile into a replay.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench.workloads import (
    EmitContext,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    recurring_shape_stream,
    reduce_heavy_forests,
    shared_reduction_forests,
)
from repro.grammar import Grammar
from repro.ir import Forest

#: Batches in an engine workload's input pool (8 forests each).
POOL_BATCHES = 96
#: Forests per ``select_many`` call on the engine workloads.
BATCH_FORESTS = 8


class NullEmitContext(EmitContext):
    """An :class:`EmitContext` whose ``emit`` does no work.

    Emitting through it costs the engine's own walk plus one call per
    rule application, so the difference to :class:`EmitContext` is the
    cost of the user's actions.
    """

    __slots__ = ()

    def emit(self, rule_number: int, mnemonic: str, operands: list) -> str:
        return "t"


class DigestContext:
    """Service emit context whose values depend only on the forest.

    Each rule application returns a CRC of its rule, mnemonic and
    operand values, so a forest's per-root values do not depend on
    which other requests shared its service batch, and the in-process
    oracle can check every response.
    """

    __slots__ = ()

    def emit(self, rule_number: int, mnemonic: str, operands: list) -> int:
        return zlib.crc32(f"{rule_number}:{mnemonic}:{operands!r}".encode())

    def emit_template(self, rule, node, operands: list) -> int:
        original = rule.original
        return self.emit(original.number, original.template or original.lhs, operands)


@dataclass(frozen=True)
class EngineSpec:
    """How one engine workload builds its grammar and its input pool."""

    grammar: Callable[[], Grammar]
    pool: Callable[[int, int], list[list[Forest]]]


def _jit_stream_pool(seed: int, batches: int) -> list[list[Forest]]:
    """Fresh-nid clones drawn from 16 templates, 8 per batch."""
    stream = recurring_shape_stream(
        seed, shapes=16, length=batches * BATCH_FORESTS, statements=8, max_depth=5
    )
    return [
        stream[i : i + BATCH_FORESTS] for i in range(0, len(stream), BATCH_FORESTS)
    ]


def _batch_seeds(seed: int, batches: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(batches)]


def _fresh_blocks_pool(seed: int, batches: int) -> list[list[Forest]]:
    """Newly generated blocks: 4 reduce-heavy + 4 shared-reduction forests."""
    half = BATCH_FORESTS // 2
    return [
        reduce_heavy_forests(s, half) + shared_reduction_forests(s + 1, half)
        for s in _batch_seeds(seed, batches)
    ]


def _dynamic_pool(seed: int, batches: int) -> list[list[Forest]]:
    """Constraint-biased forests for the dynamic-cost grammar."""
    return [
        dynamic_constraint_forests(s, BATCH_FORESTS) for s in _batch_seeds(seed, batches)
    ]


ENGINE_SPECS: dict[str, EngineSpec] = {
    "jit_stream": EngineSpec(emit_bench_grammar, _jit_stream_pool),
    "fresh_blocks": EngineSpec(emit_bench_grammar, _fresh_blocks_pool),
    "dynamic_constraints": EngineSpec(dynamic_bench_grammar, _dynamic_pool),
}

#: Service tenants: name -> (grammar factory, share of requests).
SERVICE_TENANTS: dict[str, tuple[Callable[[], Grammar], float]] = {
    "bench": (emit_bench_grammar, 0.7),
    "dyn": (dynamic_bench_grammar, 0.3),
}
#: Pre-generated forests per service tenant (both pools together stay
#: within the worker's tape cache, as a service with recurring shapes would).
SERVICE_POOL = 128


def service_pool(seed: int, size: int = SERVICE_POOL) -> dict[str, list[Forest]]:
    """Per-tenant request forests (6 statements, depth 4)."""
    return {
        "bench": random_forests(seed + 11, size, 6, 4),
        "dyn": dynamic_constraint_forests(seed + 12, size, 6, 4),
    }


def fingerprint(forests: list[Forest]) -> dict[str, Any]:
    """Node count plus a structural digest of *forests*.

    The digest covers operators, payloads, DAG sharing and root order
    (not node ids), so a change to the generators shows up as a
    different input rather than as a speed change.
    """
    digest = hashlib.blake2b(digest_size=12)
    nodes = 0
    for forest in forests:
        ordinal: dict[int, int] = {}
        parts: list[Any] = []
        stack = [(root, False) for root in reversed(forest.roots)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in ordinal:
                continue
            if not expanded:
                stack.append((node, True))
                stack.extend((kid, False) for kid in reversed(node.kids))
                continue
            ordinal[id(node)] = len(ordinal)
            parts.append((node.op.name, node.value, tuple(ordinal[id(k)] for k in node.kids)))
        parts.append(tuple(ordinal[id(root)] for root in forest.roots))
        nodes += forest.node_count()
        digest.update(repr(parts).encode())
    return {"nodes": nodes, "digest": digest.hexdigest()}


def output_digest(values: Any, context: Any, cover_cost: Any) -> str:
    """Digest of everything a caller gets back from one ``select_many``."""
    blob = repr((values, getattr(context, "instructions", None), getattr(context, "trace", None), cover_cost))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()
