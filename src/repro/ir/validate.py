"""Structural validation of IR forests.

:func:`validate_forest` walks the node graph defensively (it tolerates
cycles and non-``Node`` children instead of crashing), collects *all*
problems as structured :class:`ValidationIssue` records with stable
``IR00x`` codes, and raises a :class:`ForestValidationError` carrying
the issue list.  The :class:`~repro.selection.selector.Selector` runs
it behind the ``SelectorConfig(validate=True)`` debug flag.

Issue codes:

======  ==============================================================
IR001   cycle in the node graph
IR002   dangling child (a kid or root that is not a ``Node``)
IR003   operator not in the supplied operator set
IR004   child count does not match the node's own operator arity
IR005   node's operator arity conflicts with the same-named operator in
        the supplied set (cross-dialect node)
IR006   payload-carrying operator with no payload
IR007   payload on an operator that declares none
IR008   statement operator used as an operand
IR009   forest root is not a statement operator
======  ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import IRError
from repro.ir.node import Forest, Node, node_tag
from repro.ir.ops import OperatorSet

__all__ = [
    "ForestValidationError",
    "ValidationIssue",
    "validate_forest",
]


@dataclass(frozen=True)
class ValidationIssue:
    """One structural problem found in a forest."""

    code: str
    message: str
    #: Operator name of the offending node ("" when unknown).
    operator: str = ""
    #: Provenance tag of the offending node (:func:`~repro.ir.node.node_tag`,
    #: ``"OP(nid=n)"``; "" when the offender is not a node).
    node: str = ""

    def format(self) -> str:
        where = f" [{self.node}]" if self.node else ""
        return f"{self.code}{where}: {self.message}"


class ForestValidationError(IRError):
    """Raised by :func:`validate_forest`; carries all collected issues."""

    def __init__(self, issues: list[ValidationIssue]) -> None:
        self.issues = issues
        lines = [issue.format() for issue in issues]
        super().__init__(
            f"forest validation failed with {len(issues)} issue(s):\n  " + "\n  ".join(lines)
        )


def _check_one(node: Node, operators: OperatorSet | None, issues: list[ValidationIssue]) -> None:
    """Collect *node*'s own issues (operator, arity, payload, operands)."""
    name = node.op.name
    tag = node_tag(node)
    if operators is not None:
        declared = operators.get(name)
        if declared is None:
            issues.append(
                ValidationIssue(
                    "IR003",
                    f"operator {name!r} is not in operator set {operators.name!r}",
                    operator=name,
                    node=tag,
                )
            )
        elif declared.arity != node.op.arity:
            issues.append(
                ValidationIssue(
                    "IR005",
                    f"node's operator {name} has arity {node.op.arity} but the "
                    f"operator set declares arity {declared.arity}",
                    operator=name,
                    node=tag,
                )
            )
    if len(node.kids) != node.op.arity:
        issues.append(
            ValidationIssue(
                "IR004",
                f"node {name} has {len(node.kids)} children, expected {node.op.arity}",
                operator=name,
                node=tag,
            )
        )
    if node.op.has_payload and node.value is None:
        issues.append(
            ValidationIssue(
                "IR006", f"node {name} requires a payload but has none", operator=name, node=tag
            )
        )
    if not node.op.has_payload and node.value is not None:
        issues.append(
            ValidationIssue(
                "IR007",
                f"node {name} carries unexpected payload {node.value!r}",
                operator=name,
                node=tag,
            )
        )
    for kid in node.kids:
        if isinstance(kid, Node) and kid.op.is_statement:
            issues.append(
                ValidationIssue(
                    "IR008",
                    f"statement operator {kid.op.name} used as operand of {name}",
                    operator=kid.op.name,
                    node=node_tag(kid),
                )
            )


def validate_forest(
    forest: Forest | Iterable[Node],
    operators: OperatorSet | None = None,
    *,
    collect: bool = False,
) -> list[ValidationIssue]:
    """Validate a whole forest, collecting every structural problem.

    Checks: roots are statement nodes (IR009), children are real nodes
    (IR002), the node graph is acyclic (IR001), and every reachable node
    is well-formed (IR003–IR008).  The walk is defensive — cycles and
    dangling children are reported instead of crashing the traversal.

    Args:
        forest: A :class:`~repro.ir.node.Forest` or iterable of roots.
        operators: Operator set to check membership and arity against;
            ``None`` skips the dialect checks (IR003/IR005).
        collect: When true, return the issue list instead of raising.

    Returns:
        The (possibly empty) issue list when *collect* is true, or an
        empty list after a clean run.

    Raises:
        ForestValidationError: When issues were found and *collect* is
            false.
    """
    roots = list(forest.roots if isinstance(forest, Forest) else forest)
    issues: list[ValidationIssue] = []

    seen: set[Node] = set()
    dangling = False
    for root in roots:
        if not isinstance(root, Node):
            issues.append(
                ValidationIssue("IR002", f"forest root {root!r} is not an IR node")
            )
            dangling = True
            continue
        if not root.op.is_statement:
            issues.append(
                ValidationIssue(
                    "IR009",
                    f"forest root {root.op.name} is not a statement operator",
                    operator=root.op.name,
                    node=node_tag(root),
                )
            )
        # Iterative DFS with a visited set: safe on cyclic graphs (each
        # node is expanded once) and on non-Node children (filtered).
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            _check_one(node, operators, issues)
            for kid in node.kids:
                if not isinstance(kid, Node):
                    issues.append(
                        ValidationIssue(
                            "IR002",
                            f"child {kid!r} of node {node.op.name} is not an IR node",
                            operator=node.op.name,
                            node=node_tag(node),
                        )
                    )
                    dangling = True
                elif kid not in seen:
                    stack.append(kid)

    # Cycle detection needs a clean graph (it follows kid.kids), so only
    # run it when no dangling children were found.
    if not dangling:
        cycle = _find_cycle(roots)
        if cycle is not None:
            issues.append(
                ValidationIssue(
                    "IR001",
                    f"cycle in the node graph through {cycle.op.name}",
                    operator=cycle.op.name,
                    node=node_tag(cycle),
                )
            )

    if issues and not collect:
        raise ForestValidationError(issues)
    return issues


def _find_cycle(roots: list[Node]) -> Node | None:
    """Return a node on a cycle, or ``None`` when the graph is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Node, int] = {}
    for root in roots:
        if not isinstance(root, Node) or color.get(root, WHITE) == BLACK:
            continue
        # Iterative DFS with explicit enter/exit frames.
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, exiting = stack.pop()
            if exiting:
                color[node] = BLACK
                continue
            state = color.get(node, WHITE)
            if state == BLACK:
                continue
            if state == GRAY:
                continue
            color[node] = GRAY
            stack.append((node, True))
            for kid in node.kids:
                if not isinstance(kid, Node):
                    continue
                kid_state = color.get(kid, WHITE)
                if kid_state == GRAY:
                    return kid
                if kid_state == WHITE:
                    stack.append((kid, False))
    return None
