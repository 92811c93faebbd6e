"""IR nodes, builders, and forests.

Nodes form trees or DAGs (a node may be shared by several parents).
Statements are forest roots; value-producing nodes hang below them.
Nodes deliberately carry *no* instruction-selection state: the labelers
in :mod:`repro.selection.label_dp` and :mod:`repro.selection.automaton`
record their results in external :class:`~repro.selection.cover.Labeling`
objects keyed by node identity so several labelers can be compared on
the same forest without interference.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import IRError
from repro.ir.ops import Operator, OperatorSet

__all__ = ["Node", "NodeBuilder", "Forest", "fresh_nid", "node_tag"]

#: Process-wide node-id source.  Builder-assigned nids are unique across
#: *all* builders in the process.  A nid is provenance (:func:`node_tag`
#: in fault and error text), not identity: every labeler and emitter
#: keys its maps by the node object itself.
_NID_COUNTER = itertools.count()


def fresh_nid() -> int:
    """A new process-unique node id (what :class:`NodeBuilder` assigns)."""
    return next(_NID_COUNTER)


def node_tag(node: "Node") -> str:
    """*node*'s provenance tag, ``"OP(nid=n)"``, as fault and validation
    reports name it."""
    return f"{node.op.name}(nid={node.nid})"


class Node:
    """One IR node.

    Attributes:
        op: The node's :class:`~repro.ir.ops.Operator`.
        kids: Child nodes (a tuple whose length equals ``op.arity``).
        value: Immediate payload for payload-carrying operators
            (``None`` otherwise).
        nid: Provenance number assigned by the :class:`NodeBuilder`,
            unique across all builders in the process (see
            :func:`fresh_nid`) and kept by pickling; hand-built nodes
            carry the sentinel ``-1``.  It names the node in fault and
            error text; the node's identity is the object itself.
    """

    __slots__ = ("op", "kids", "value", "nid")

    def __init__(
        self,
        op: Operator,
        kids: Sequence["Node"] = (),
        value: Any = None,
        nid: int = -1,
    ) -> None:
        if len(kids) != op.arity:
            raise IRError(
                f"operator {op.name} expects {op.arity} children, got {len(kids)}"
            )
        if value is not None and not op.has_payload:
            raise IRError(f"operator {op.name} does not carry a payload (got {value!r})")
        self.op = op
        self.kids = tuple(kids)
        self.value = value
        self.nid = nid

    # Nodes hash and compare by identity (object's defaults), so every
    # labeler, emitter and walk keys its maps by the node itself; two
    # structurally equal nodes are distinct unless shared (DAGs).

    def __reduce__(self) -> tuple[Callable[..., "Node"], tuple[Any, ...]]:
        # One call per node instead of the default slot-state dict and
        # per-slot setattr: about half the bytes and the encode time.
        # The pickle memo still shares a node reached twice (DAGs).
        return _rebuild_node, (self.op, self.kids, self.value, self.nid)

    @property
    def is_statement(self) -> bool:
        return self.op.is_statement

    def replace_kids(self, kids: Sequence["Node"]) -> "Node":
        """A copy of this node with different children (same payload).

        The copy is a distinct node (a new object), and it gets a
        *fresh* nid so fault and error text tell it from its source.
        Sources that never had a nid (``-1``) stay that way.
        """
        nid = fresh_nid() if self.nid >= 0 else -1
        return Node(self.op, kids, self.value, nid)

    def size(self) -> int:
        """Number of distinct nodes reachable from this node (DAG-aware)."""
        seen: set[Node] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(node.kids)
        return len(seen)

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (1 for a leaf).

        Iterative and memoized per distinct node, so shared (DAG)
        subtrees are measured once and deep trees do not overflow the
        interpreter stack.
        """
        depths: dict[Node, int] = {}
        expanded: set[Node] = set()
        stack: list[tuple[Node, bool]] = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                depths[node] = 1 + max((depths[kid] for kid in node.kids), default=0)
                continue
            if node in expanded:
                continue
            expanded.add(node)
            stack.append((node, True))
            stack.extend((kid, False) for kid in node.kids if kid not in expanded)
        return depths[self]

    def structurally_equal(self, other: "Node") -> bool:
        """Structural (deep) equality ignoring node identity and ids.

        Iterative with a visited pair-set, so shared (DAG) subtrees are
        compared once instead of once per path — the recursive version
        was exponential on n-level shared diamonds — and deep trees do
        not overflow the interpreter stack.
        """
        seen: set[tuple[Node, Node]] = set()
        stack: list[tuple[Node, Node]] = [(self, other)]
        while stack:
            pair = stack.pop()
            if pair in seen:
                continue
            seen.add(pair)
            a, b = pair
            if a.op is not b.op or a.value != b.value or len(a.kids) != len(b.kids):
                return False
            stack.extend(zip(a.kids, b.kids))
        return True

    def __repr__(self) -> str:
        payload = f"[{self.value!r}]" if self.value is not None else ""
        if self.kids:
            inner = ", ".join(repr(kid) for kid in self.kids)
            return f"{self.op.name}{payload}({inner})"
        return f"{self.op.name}{payload}"


def _rebuild_node(op: Operator, kids: tuple[Node, ...], value: Any, nid: int) -> Node:
    """Unpickle one :class:`Node`: set its slots, skipping ``__init__``'s
    checks as the default unpickling did (the node was checked when built)."""
    node = Node.__new__(Node)
    node.op = op
    node.kids = kids
    node.value = value
    node.nid = nid
    return node


class NodeBuilder:
    """Factory for nodes over one operator set.

    The builder assigns process-unique, increasing node ids (from the
    shared :func:`fresh_nid` source) and offers one factory
    method per operator name (lower-cased), e.g. ``builder.add(a, b)``
    or ``builder.cnst(5)``, plus the generic :meth:`node`.
    """

    def __init__(self, operators: OperatorSet | None = None) -> None:
        from repro.ir.ops import DEFAULT_OPERATORS

        self.operators = operators if operators is not None else DEFAULT_OPERATORS

    def node(self, op: Operator | str, *kids: Node, value: Any = None) -> Node:
        """Build a node for *op* with the given children and payload."""
        if isinstance(op, str):
            op = self.operators[op]
        return Node(op, kids, value=value, nid=fresh_nid())

    def leaf(self, op: Operator | str, value: Any = None) -> Node:
        """Build a leaf node (arity 0)."""
        return self.node(op, value=value)

    def __getattr__(self, name: str) -> Callable[..., Node]:
        # Dynamic per-operator factories: builder.add(x, y), builder.cnst(1), ...
        op_name = name.upper()
        if op_name in self.operators:
            op = self.operators[op_name]

            def factory(*kids: Node, value: Any = None) -> Node:
                if op.has_payload and kids and not isinstance(kids[0], Node):
                    # Allow builder.cnst(5) as shorthand for value=5.
                    return self.node(op, *kids[1:], value=kids[0])
                return self.node(op, *kids, value=value)

            factory.__name__ = name
            return factory
        raise AttributeError(name)


class Forest:
    """An ordered sequence of statement roots (one basic block or body).

    A forest is the unit handed to the instruction selector: roots are
    labeled and reduced in order.  Sub-nodes may be shared between
    roots, making the forest a DAG.
    """

    def __init__(self, roots: Iterable[Node] = (), name: str = "forest") -> None:
        self.roots: list[Node] = list(roots)
        self.name = name

    def add(self, root: Node) -> Node:
        """Append a statement root and return it."""
        self.roots.append(root)
        return root

    def __iter__(self) -> Iterator[Node]:
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def nodes(self) -> list[Node]:
        """All distinct nodes in bottom-up (children-first) order.

        The order is a topological order of the DAG: every node appears
        after all of its children, each node exactly once.  Delegates to
        :func:`repro.ir.traversal.topological_order`, the one
        implementation shared by every forest consumer.
        """
        from repro.ir.traversal import topological_order

        return topological_order(self.roots)

    def node_count(self) -> int:
        """Number of distinct nodes in the forest.

        A plain visited-set count: no topological order is built and no
        list is materialised.
        """
        visited: set[Node] = set()
        stack: list[Node] = list(self.roots)
        while stack:
            node = stack.pop()
            if node in visited:
                continue
            visited.add(node)
            stack.extend(node.kids)
        return len(visited)

    def __repr__(self) -> str:
        # Deliberately traversal-free: printing a forest must stay O(1).
        return f"Forest({self.name!r}, roots={len(self.roots)})"
