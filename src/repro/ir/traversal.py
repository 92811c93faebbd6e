"""Traversal helpers over IR trees and DAGs."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.ir.node import Node

__all__ = ["topological_order", "ready_postorder"]


def topological_order(roots: Iterable[Node]) -> list[Node]:
    """Children-first order over all nodes reachable from *roots*.

    Every node appears after all of its children, each node exactly
    once; roots are walked in order and children left to right, with
    one visited set shared across roots, so a subtree shared between
    roots is emitted with the first root that reaches it.
    """
    order: list[Node] = []
    visited: set[int] = set()
    for root in roots:
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for kid in reversed(node.kids):
                if id(kid) not in visited:
                    stack.append((kid, False))
    return order


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

