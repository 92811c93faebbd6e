"""Operator definitions for the intermediate representation.

The IR is a conventional low-level expression IR in the style of lcc's
tree intermediate representation: every operator has a fixed arity, is
either *value-producing* (it can appear as an operand of another node) or
a *statement* (it can only appear as a forest root), and may carry an
immediate payload (a constant value, a symbol name, a label, ...).

Tree grammars (:mod:`repro.grammar`) pattern-match on these operators, so
the operator set is the shared vocabulary between the front ends
(:mod:`repro.frontend`, :mod:`repro.vm`), the workload generators and the
machine descriptions in :mod:`repro.targets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import IRError

__all__ = [
    "Operator",
    "OperatorSet",
    "default_operators",
    "DEFAULT_OPERATORS",
]


@dataclass(frozen=True)
class Operator:
    """A single IR operator.

    Attributes:
        name: Unique operator name, conventionally upper-case (``"ADD"``).
        arity: Number of child nodes every node with this operator has.
        is_statement: True if nodes with this operator are statements
            (forest roots) rather than value-producing expressions.
        has_payload: True if nodes carry an immediate payload (constants,
            symbol names, branch targets).
        doc: Short human-readable description.
    """

    name: str
    arity: int
    is_statement: bool = False
    has_payload: bool = False
    doc: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise IRError("operator name must be non-empty")
        if self.arity < 0:
            raise IRError(f"operator {self.name!r} has negative arity")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:
        return f"Operator({self.name!r}, arity={self.arity})"


@dataclass
class OperatorSet:
    """A registry of operators forming one IR dialect.

    Operator sets are used by grammars to resolve operator names that
    appear in grammar text, and by IR validation to check arities.
    """

    name: str = "ir"
    _ops: dict[str, Operator] = field(default_factory=dict)

    def register(self, op: Operator) -> Operator:
        """Register *op*, rejecting duplicate names."""
        if op.name in self._ops:
            raise IRError(f"duplicate operator {op.name!r} in operator set {self.name!r}")
        self._ops[op.name] = op
        return op

    def define(
        self,
        name: str,
        arity: int,
        *,
        is_statement: bool = False,
        has_payload: bool = False,
        doc: str = "",
    ) -> Operator:
        """Create and register an operator in one step."""
        return self.register(
            Operator(
                name=name,
                arity=arity,
                is_statement=is_statement,
                has_payload=has_payload,
                doc=doc,
            )
        )

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __getitem__(self, name: str) -> Operator:
        try:
            return self._ops[name]
        except KeyError:
            raise IRError(f"unknown operator {name!r} in operator set {self.name!r}") from None

    def get(self, name: str, default: Operator | None = None) -> Operator | None:
        return self._ops.get(name, default)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._ops.values())

    def __len__(self) -> int:
        return len(self._ops)

    def copy(self, name: str | None = None) -> "OperatorSet":
        """A shallow copy, optionally renamed, for dialect extension."""
        clone = OperatorSet(name=name or self.name)
        clone._ops = dict(self._ops)
        return clone

    def subset(self, names: Iterable[str]) -> "OperatorSet":
        """A new operator set containing only the named operators."""
        sub = OperatorSet(name=f"{self.name}-subset")
        for op_name in names:
            sub.register(self[op_name])
        return sub


def default_operators() -> OperatorSet:
    """Build the default IR operator set used throughout the library.

    The set is modelled on lcc's tree IR: leaves for constants,
    addresses and registers; memory access; integer arithmetic and
    bitwise operators; comparisons folded into conditional branches;
    calls with explicit argument statements; and a handful of
    statement operators.
    """
    ops = OperatorSet(name="default")

    # Leaves (value-producing, payload-carrying).
    ops.define("CNST", 0, has_payload=True, doc="integer constant")
    ops.define("ADDRL", 0, has_payload=True, doc="address of a local (frame slot index)")
    ops.define("ADDRG", 0, has_payload=True, doc="address of a global (symbol name)")
    ops.define("ADDRF", 0, has_payload=True, doc="address of a formal parameter")
    ops.define("REG", 0, has_payload=True, doc="virtual register")
    ops.define("TEMP", 0, has_payload=True, doc="compiler temporary")

    # Memory.
    ops.define("LOAD", 1, doc="load the value at an address")
    ops.define("STORE", 2, is_statement=True, doc="store kid[1] to address kid[0]")

    # Integer arithmetic.
    ops.define("ADD", 2, doc="integer addition")
    ops.define("SUB", 2, doc="integer subtraction")
    ops.define("MUL", 2, doc="integer multiplication")
    ops.define("DIV", 2, doc="integer division (truncating)")
    ops.define("MOD", 2, doc="integer remainder")
    ops.define("NEG", 1, doc="integer negation")

    # Bitwise.
    ops.define("AND", 2, doc="bitwise and")
    ops.define("OR", 2, doc="bitwise or")
    ops.define("XOR", 2, doc="bitwise xor")
    ops.define("NOT", 1, doc="bitwise complement")
    ops.define("SHL", 2, doc="shift left")
    ops.define("SHR", 2, doc="arithmetic shift right")

    # Conversions (kept as a single generic operator).
    ops.define("CVT", 1, doc="integer width/sign conversion")

    # Comparisons producing a value (0/1).
    ops.define("CMPEQ", 2, doc="compare equal, value 0/1")
    ops.define("CMPNE", 2, doc="compare not-equal, value 0/1")
    ops.define("CMPLT", 2, doc="compare less-than, value 0/1")
    ops.define("CMPLE", 2, doc="compare less-or-equal, value 0/1")
    ops.define("CMPGT", 2, doc="compare greater-than, value 0/1")
    ops.define("CMPGE", 2, doc="compare greater-or-equal, value 0/1")

    # Control flow (statements).
    ops.define("LABEL", 0, is_statement=True, has_payload=True, doc="branch target")
    ops.define("JUMP", 0, is_statement=True, has_payload=True, doc="unconditional branch")
    ops.define("BREQ", 2, is_statement=True, has_payload=True, doc="branch if equal")
    ops.define("BRNE", 2, is_statement=True, has_payload=True, doc="branch if not equal")
    ops.define("BRLT", 2, is_statement=True, has_payload=True, doc="branch if less-than")
    ops.define("BRLE", 2, is_statement=True, has_payload=True, doc="branch if less-or-equal")
    ops.define("BRGT", 2, is_statement=True, has_payload=True, doc="branch if greater-than")
    ops.define("BRGE", 2, is_statement=True, has_payload=True, doc="branch if greater-or-equal")

    # Calls.
    ops.define("ARG", 1, is_statement=True, doc="pass an argument to the next call")
    ops.define("CALL", 1, has_payload=True, doc="call, value-producing; kid is callee address")
    ops.define("CALLV", 1, is_statement=True, has_payload=True, doc="call for effect only")
    ops.define("RET", 1, is_statement=True, doc="return a value")
    ops.define("RETV", 0, is_statement=True, doc="return with no value")

    # Miscellaneous statements.
    ops.define("EXPR", 1, is_statement=True, doc="evaluate for side effects, discard value")
    ops.define("NOP", 0, is_statement=True, doc="no operation")

    return ops


#: A shared, module-level default operator set.  Callers that need to
#: extend the dialect should work on :func:`default_operators` output or
#: :meth:`OperatorSet.copy` instead of mutating this instance.
DEFAULT_OPERATORS = default_operators()
