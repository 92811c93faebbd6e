"""Intermediate representation: operators, nodes, forests, traversal and
validation.  The reference interpreter, :mod:`repro.ir.interp`, is not
imported here: selection never runs it, so it loads only when imported
by name."""

from repro.ir.node import Forest, Node, NodeBuilder, fresh_nid
from repro.ir.ops import DEFAULT_OPERATORS, Operator, OperatorSet, default_operators
from repro.ir.traversal import topological_order
from repro.ir.validate import (
    ForestValidationError,
    ValidationIssue,
    validate_forest,
)

__all__ = [
    "DEFAULT_OPERATORS",
    "Forest",
    "ForestValidationError",
    "Node",
    "NodeBuilder",
    "Operator",
    "OperatorSet",
    "ValidationIssue",
    "default_operators",
    "fresh_nid",
    "topological_order",
    "validate_forest",
]
