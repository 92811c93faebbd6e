"""Traversal helpers over IR trees and DAGs."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.ir.node import Node

__all__ = [
    "postorder",
    "topological_order",
    "ready_postorder",
    "iter_unique",
    "shared_nodes",
]


def postorder(root: Node, visited: set[int] | None = None) -> Iterator[Node]:
    """Yield every node reachable from *root*, children before parents.

    Shared nodes (DAG) are yielded once.  Passing a *visited* set shares
    it with the caller (and across calls), so multi-root traversals can
    skip subtrees already emitted — nodes in *visited* are not yielded.
    """
    if visited is None:
        visited = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for kid in reversed(node.kids):
            if id(kid) not in visited:
                stack.append((kid, False))


def iter_unique(roots: Iterable[Node]) -> Iterator[Node]:
    """Yield every distinct node reachable from *roots*, children first.

    The visited set is shared across roots, so subtrees shared between
    roots are walked (and yielded) once.
    """
    visited: set[int] = set()
    for root in roots:
        yield from postorder(root, visited)


def topological_order(roots: Iterable[Node]) -> list[Node]:
    """Children-first order over all nodes reachable from *roots*.

    This is the order in which the labeler must process a DAG: every
    node appears after all of its children, each node exactly once.
    """
    return list(iter_unique(roots))


def ready_postorder(roots: Iterable[Node], done: "set[int] | dict[int, object]") -> Iterator[Node]:
    """Fused children-first walk sharing its visited set with the caller.

    Yields each node reachable from *roots* whose id is not in *done*,
    the moment its last child is in *done* — no intermediate order list
    is materialised and no second visited set is kept, so a labeler can
    pass its own per-node result mapping as *done* and pay for exactly
    one bookkeeping structure.

    Contract: the caller must add ``id(node)`` to *done* before
    advancing the iterator past a yielded node (storing the node's
    labeling result in a *done* dict keyed by id does exactly that).
    Nodes already in *done* at visit time are skipped along with the
    re-walk of their subtrees, which is what makes multi-root batches
    over node-sharing forests label each shared node once.
    """
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in done:
            continue
        deferred = False
        for kid in node.kids:
            if id(kid) not in done:
                if not deferred:
                    stack.append(node)
                    deferred = True
                stack.append(kid)
        if deferred:
            continue
        yield node


def shared_nodes(roots: Iterable[Node]) -> list[Node]:
    """Nodes with more than one parent (the DAG sharing points)."""
    parents: dict[int, int] = {}
    node_by_id: dict[int, Node] = {}
    for node in iter_unique(roots):
        for kid in node.kids:
            parents[id(kid)] = parents.get(id(kid), 0) + 1
            node_by_id[id(kid)] = kid
    return [node_by_id[nid] for nid, count in parents.items() if count > 1]

