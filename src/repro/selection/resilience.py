"""Resilience primitives: fault isolation and deadlines.

The paper's pitch is instruction selection robust enough to run *inside*
a JIT: it must never take down the host compiler, even on hostile
grammars or forests.  This module holds the runtime side of
that story — the static side is the completeness certifier in
:mod:`repro.analysis` — as small, composable pieces:

* :class:`SelectionFailure` — the structured record a fault-isolated
  batch (``select_many(on_error="isolate")``) returns *in place of* a
  faulted forest's values: which forest, which phase (validate / label
  / reduce), the exception, and the IR node being processed when the
  fault fired.  The rest of the batch completes normally.
* :func:`check_deadline` — the cooperative-cancellation check the hot
  loops run every :data:`DEADLINE_CHECK_EVERY` steps.

Every isolation and deadline overrun is counted; selectors surface
their counters under ``stats()["resilience"]``, so operators can
observe a degraded deployment instead of discovering it from latency
graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from repro.errors import DeadlineExceededError
from repro.ir.node import Node, node_tag

__all__ = [
    "DEADLINE_CHECK_EVERY",
    "SelectionFailure",
    "attach_node_provenance",
    "check_deadline",
    "node_provenance",
]

#: Hot-loop stride between cooperative deadline checks: one
#: ``monotonic_ns`` call per this many labeled nodes / reduced frames
#: bounds both the check overhead and the overshoot past the deadline.
DEADLINE_CHECK_EVERY = 64


def check_deadline(deadline_at_ns: int, phase: str) -> None:
    """Raise :class:`~repro.errors.DeadlineExceededError` if the
    absolute monotonic instant *deadline_at_ns* has passed.

    The cooperative-cancellation primitive behind request deadlines:
    the label walks, the reducer frame loop, and the emission tape's
    compile walk and sweep call this every
    :data:`DEADLINE_CHECK_EVERY` steps when a deadline is set.
    """
    if time.monotonic_ns() > deadline_at_ns:
        raise DeadlineExceededError(f"request deadline exceeded during {phase}")

#: Attribute used to carry IR-node provenance on in-flight exceptions.
_PROVENANCE_ATTR = "_repro_fault_node"


def attach_node_provenance(exc: BaseException, node: Node) -> None:
    """Record the IR node being processed when *exc* was raised.

    First attachment wins: the deepest frame that knows the node tags
    the exception, outer wrappers leave it alone.  Attachment is best
    effort — exotic exception objects that reject attributes are left
    untagged rather than masking the original error.
    """
    if getattr(exc, _PROVENANCE_ATTR, None) is None:
        try:
            setattr(exc, _PROVENANCE_ATTR, node_tag(node))
        except Exception:  # pragma: no cover - slotted/frozen exception
            pass


def node_provenance(exc: BaseException) -> str | None:
    """The node-provenance tag attached to *exc*, if any."""
    tag = getattr(exc, _PROVENANCE_ATTR, None)
    return tag if isinstance(tag, str) else None


@dataclass
class SelectionFailure:
    """One forest's structured failure inside a fault-isolated batch.

    Returned *in place of* the forest's per-root value list by
    ``select_many(on_error="isolate")``; the exception is contained,
    the shared emission state rolled back (the frame reducer pops its
    memo tail, the tape emitter truncates its value buffer and slot
    table), and the rest of the batch completes.

    Attributes:
        index: Position of the faulted forest in the input batch.
        forest: The forest's ``name``.
        phase: Pipeline phase that faulted: ``"validate"``, ``"label"``
            or ``"reduce"`` (emission, which also costs the cover).
        error: The contained exception object.
        node: Provenance of the IR node being processed when the fault
            fired (``"OP(nid=n)"``), when the engine could attach it.
        roots_completed: Roots of this forest fully reduced before the
            fault (their side effects on the emit context stand; their
            memo entries were rolled back).
    """

    index: int
    forest: str
    phase: str
    error: Exception
    node: str | None = None
    roots_completed: int = 0

    @property
    def error_type(self) -> str:
        """Class name of the contained exception."""
        return type(self.error).__name__

    def as_row(self) -> dict[str, object]:
        """Flat JSON-ready view (the exception rendered as strings)."""
        return {
            "index": self.index,
            "forest": self.forest,
            "phase": self.phase,
            "error_type": self.error_type,
            "error": str(self.error),
            "node": self.node,
            "roots_completed": self.roots_completed,
        }

    def __repr__(self) -> str:
        at = f" at {self.node}" if self.node else ""
        return (
            f"SelectionFailure(forest={self.forest!r}, phase={self.phase!r}, "
            f"{self.error_type}: {self.error}{at})"
        )


def new_resilience_counters() -> dict[str, Any]:
    """A fresh ``stats()["resilience"]`` counter block.

    * ``isolated_failures`` — forests contained by ``on_error="isolate"``;
    * ``failures_by_phase`` — the same, split by pipeline phase
      (``validate``, ``label``, ``reduce``);
    * ``deadline_overruns`` — selections aborted by a request
      deadline (:class:`~repro.errors.DeadlineExceededError`), which
      propagates even under ``on_error="isolate"``.
    """
    return {
        "isolated_failures": 0,
        "failures_by_phase": {"validate": 0, "label": 0, "reduce": 0},
        "deadline_overruns": 0,
    }
