"""Reference interpreter for IR forests.

The interpreter defines the semantics of the IR: executing a forest
directly should give the same observable results (memory contents,
return value, call trace) as selecting instructions for it and running
the generated code on a target-machine simulator.  No such simulator or
end-to-end test exists yet, so nothing in the library or its tests
calls this module today.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import IRError
from repro.ir.layout import WORD_SIZE, formal_address, local_address, wrap
from repro.ir.node import Forest, Node

__all__ = ["Memory", "IRInterpreter", "ExecutionResult"]


class Memory:
    """A sparse word-addressed memory.

    Reads of uninitialised addresses return 0, mirroring zero-initialised
    data segments.  Addresses are byte addresses but accesses are whole
    words (the IR has a single integer type).
    """

    def __init__(self) -> None:
        self._cells: dict[int, int] = {}

    def load(self, address: int) -> int:
        return self._cells.get(address, 0)

    def store(self, address: int, value: int) -> None:
        self._cells[address] = wrap(value)

    def snapshot(self) -> dict[int, int]:
        """A copy of all written cells (for result comparison)."""
        return dict(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


@dataclass
class ExecutionResult:
    """Observable outcome of executing a forest."""

    return_value: int | None
    memory: dict[int, int]
    calls: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    statements_executed: int = 0


class IRInterpreter:
    """Executes IR forests with full control flow.

    Args:
        memory: Shared memory (a fresh one is created when omitted).
        call_handler: Callback ``(name, args) -> int`` used for CALL /
            CALLV nodes; when omitted, calls return 0 and are recorded
            in the execution result's call trace.
        frame: Frame number used to resolve ADDRL / ADDRF leaves.
        max_steps: Safety bound on executed statements (guards against
            non-terminating synthetic programs).
    """

    def __init__(
        self,
        memory: Memory | None = None,
        call_handler: Callable[[str, tuple[int, ...]], int] | None = None,
        frame: int = 0,
        max_steps: int = 1_000_000,
    ) -> None:
        self.memory = memory if memory is not None else Memory()
        self.call_handler = call_handler
        self.frame = frame
        self.max_steps = max_steps
        self.registers: dict[object, int] = {}
        self.calls: list[tuple[str, tuple[int, ...]]] = []
        self._pending_args: list[int] = []

    # ------------------------------------------------------------------
    # Statement execution

    def run(self, forest: Forest | Iterable[Node], args: Iterable[int] = ()) -> ExecutionResult:
        """Execute *forest* and return the observable result.

        *args* are stored into the formal-parameter slots before
        execution starts (slot 0 gets the first argument, and so on).
        """
        roots = list(forest.roots if isinstance(forest, Forest) else forest)
        for slot, value in enumerate(args):
            self.memory.store(formal_address(slot, self.frame), value)

        labels: dict[object, int] = {}
        for index, root in enumerate(roots):
            if root.op.name == "LABEL":
                if root.value in labels:
                    raise IRError(f"duplicate label {root.value!r}")
                labels[root.value] = index

        pc = 0
        steps = 0
        return_value: int | None = None
        while pc < len(roots):
            if steps >= self.max_steps:
                raise IRError(f"execution exceeded {self.max_steps} statements")
            steps += 1
            root = roots[pc]
            pc += 1
            outcome = self._execute(root)
            if outcome is None:
                continue
            kind, payload = outcome
            if kind == "jump":
                if payload not in labels:
                    raise IRError(f"jump to undefined label {payload!r}")
                pc = labels[payload]
            elif kind == "return":
                return_value = payload
                break

        return ExecutionResult(
            return_value=return_value,
            memory=self.memory.snapshot(),
            calls=list(self.calls),
            statements_executed=steps,
        )

    def _execute(self, root: Node) -> tuple[str, object] | None:
        name = root.op.name
        if name == "STORE":
            address = self.eval(root.kids[0])
            value = self.eval(root.kids[1])
            self.memory.store(address, value)
            return None
        if name == "LABEL" or name == "NOP":
            return None
        if name == "JUMP":
            return ("jump", root.value)
        if name.startswith("BR"):
            left = self.eval(root.kids[0])
            right = self.eval(root.kids[1])
            if _branch_taken(name, left, right):
                return ("jump", root.value)
            return None
        if name == "ARG":
            self._pending_args.append(self.eval(root.kids[0]))
            return None
        if name == "CALLV":
            self._call(root)
            return None
        if name == "RET":
            return ("return", self.eval(root.kids[0]))
        if name == "RETV":
            return ("return", None)
        if name == "EXPR":
            self.eval(root.kids[0])
            return None
        if not root.op.is_statement:
            raise IRError(f"expression operator {name} used as a forest root")
        raise IRError(f"statement operator {name} not supported by the interpreter")

    # ------------------------------------------------------------------
    # Expression evaluation

    def eval(self, node: Node) -> int:
        """Evaluate a value-producing node to a 64-bit signed integer."""
        name = node.op.name
        if name == "CNST":
            return wrap(int(node.value))
        if name == "ADDRL":
            return local_address(int(node.value), self.frame)
        if name == "ADDRF":
            return formal_address(int(node.value), self.frame)
        if name == "ADDRG":
            return self._global_address(node.value)
        if name == "REG" or name == "TEMP":
            return self.registers.get(node.value, 0)
        if name == "LOAD":
            return self.memory.load(self.eval(node.kids[0]))
        if name == "CALL":
            return self._call(node)
        if name == "CVT":
            return wrap(self.eval(node.kids[0]))
        if name == "NEG":
            return wrap(-self.eval(node.kids[0]))
        if name == "NOT":
            return wrap(~self.eval(node.kids[0]))

        if node.op.arity == 2:
            left = self.eval(node.kids[0])
            right = self.eval(node.kids[1])
            return _binary(name, left, right)

        raise IRError(f"cannot evaluate operator {name}")

    def _call(self, node: Node) -> int:
        callee = node.kids[0]
        name = node.value
        if name is None and callee.op.name == "ADDRG":
            name = callee.value
        args = tuple(self._pending_args)
        self._pending_args.clear()
        self.calls.append((str(name), args))
        if self.call_handler is not None:
            return wrap(self.call_handler(str(name), args))
        return 0

    def _global_address(self, symbol: object) -> int:
        from repro.ir.layout import GLOBAL_BASE, global_address

        if isinstance(symbol, int):
            return global_address(symbol)
        # Hash symbol names into stable global slots.
        slot = sum(ord(ch) for ch in str(symbol)) + len(str(symbol)) * 131
        return GLOBAL_BASE + (slot % 4096) * WORD_SIZE


def _binary(name: str, left: int, right: int) -> int:
    if name == "ADD":
        return wrap(left + right)
    if name == "SUB":
        return wrap(left - right)
    if name == "MUL":
        return wrap(left * right)
    if name == "DIV":
        if right == 0:
            raise IRError("division by zero")
        return wrap(int(left / right))  # truncate toward zero, like C
    if name == "MOD":
        if right == 0:
            raise IRError("modulo by zero")
        return wrap(left - int(left / right) * right)
    if name == "AND":
        return wrap(left & right)
    if name == "OR":
        return wrap(left | right)
    if name == "XOR":
        return wrap(left ^ right)
    if name == "SHL":
        return wrap(left << (right & 63))
    if name == "SHR":
        return wrap(left >> (right & 63))
    if name == "CMPEQ":
        return int(left == right)
    if name == "CMPNE":
        return int(left != right)
    if name == "CMPLT":
        return int(left < right)
    if name == "CMPLE":
        return int(left <= right)
    if name == "CMPGT":
        return int(left > right)
    if name == "CMPGE":
        return int(left >= right)
    raise IRError(f"unknown binary operator {name}")


def _branch_taken(name: str, left: int, right: int) -> bool:
    if name == "BREQ":
        return left == right
    if name == "BRNE":
        return left != right
    if name == "BRLT":
        return left < right
    if name == "BRLE":
        return left <= right
    if name == "BRGT":
        return left > right
    if name == "BRGE":
        return left >= right
    raise IRError(f"unknown branch operator {name}")
