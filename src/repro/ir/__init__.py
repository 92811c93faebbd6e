"""Intermediate representation: operators, nodes, forests, traversal,
validation, and a reference interpreter."""

from repro.ir.interp import ExecutionResult, IRInterpreter, Memory
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
    "ExecutionResult",
    "Forest",
    "ForestValidationError",
    "IRInterpreter",
    "Memory",
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
