"""The node-identity contract every node-keyed map relies on.

Labelers, emitters and IR walks key their maps by the node object, so
``Node`` must hash and compare by identity, a labeling must keep the
nodes it keys alive while it lives, and a long-lived selector must keep
none once the caller drops its batch and the ``SelectionResult``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bench.workloads import EmitContext, bench_grammar, random_forests
from repro.ir import Forest, Node
from repro.ir.traversal import topological_order
from repro.selection import Selector, SelectorConfig


class _WeakNode(Node):
    """A node a weak reference can point at (``Node`` itself has no
    ``__weakref__`` slot)."""

    __slots__ = ("__weakref__",)


def _weak_batch(seed: int) -> list[Forest]:
    """A tree batch and a DAG-sharing forest, built of weak-referenceable
    nodes."""
    batch = []
    for forest in random_forests(seed, forests=3, statements=3, max_depth=3):
        copies: dict[Node, Node] = {}
        for node in topological_order(forest.roots):
            copies[node] = _WeakNode(node.op, [copies[kid] for kid in node.kids], node.value, node.nid)
        batch.append(Forest([copies[root] for root in forest.roots], name=forest.name))
    batch.append(Forest(batch[0].roots + batch[1].roots[:1], name="shared"))
    return batch


def _refs(batch: list[Forest]) -> list[weakref.ref]:
    return [weakref.ref(node) for node in topological_order(r for f in batch for r in f.roots)]


def test_node_hashes_and_compares_by_identity():
    assert Node.__hash__ is object.__hash__
    assert Node.__eq__ is object.__eq__


@pytest.mark.parametrize("mode", ["ondemand", "eager", "dp"])
def test_a_labeling_keeps_its_batch_alive_while_it_lives(mode):
    selector = Selector(bench_grammar(), mode=mode)
    batch = _weak_batch(3)
    refs = _refs(batch)
    labeling = selector.label_many(batch)
    del batch
    gc.collect()
    assert all(ref() is not None for ref in refs)
    assert labeling.nodes_labeled == len(refs)
    del labeling
    gc.collect()
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize(
    ("mode", "emitter"),
    [("ondemand", "tape"), ("ondemand", "reducer"), ("eager", "tape"), ("dp", "reducer")],
)
def test_a_long_lived_selector_keeps_no_emitted_node_alive(mode, emitter):
    selector = Selector(bench_grammar(), mode=mode, config=SelectorConfig(emitter=emitter))
    for seed in (5, 6):
        batch = _weak_batch(seed)
        refs = _refs(batch)
        result = selector.select_many(batch, context=EmitContext())
        assert result.ok
        del batch
        gc.collect()
        # SelectionResult.labeling holds the batch while the result lives.
        assert all(ref() is not None for ref in refs)
        del result
        gc.collect()
        assert all(ref() is None for ref in refs)
