"""Low-overhead span tracing for the selection pipeline and service.

A :class:`Span` is one named, nanosecond-bounded unit of work —
a pipeline phase (``pipeline.validate`` / ``pipeline.label`` /
``pipeline.tape_compile`` / ``pipeline.emit``) or a service request's
full lifecycle (``service.request``, with ``service.batch`` covering
dispatch → reply).  Spans carry ids and parent links so a dump reconstructs the
tree, and land in a bounded ring buffer (oldest spans drop first), so
a long-lived service traces its recent past at O(1) memory.

Two design rules keep the tracer honest about overhead:

* **The disabled path is one ``None`` check.**  Disabled observability
  is ``None`` rather than a tracer; hot code guards with ``if tracer
  is not None:``, so a selector built without observability pays one
  comparison per batch, not a call.
* **Recording is append-only.**  :meth:`Tracer.record` takes
  already-measured ``start_ns``/``end_ns`` boundaries (the pipeline
  already times its phases; the tracer never adds clock calls to a
  measured window) and appends one :class:`Span` to a
  :class:`collections.deque` — no locks, no allocation beyond the span
  itself.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Any, Iterable, Iterator

__all__ = [
    "Span",
    "Tracer",
]


class Span:
    """One completed, named unit of work with nanosecond bounds."""

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "end_ns", "attrs")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start_ns: int,
        end_ns: int,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view (one JSONL trace-dump line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "Span":
        return cls(
            row["name"],
            row["span_id"],
            row.get("parent_id"),
            row["start_ns"],
            row["end_ns"],
            dict(row.get("attrs") or {}),
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"duration={self.duration_ns} ns, attrs={self.attrs})"
        )


class Tracer:
    """Bounded-ring-buffer span recorder (disabled tracing holds ``None``)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._spans: deque[Span] = deque(maxlen=max(1, capacity))
        self._ids = count(1)
        #: Total spans ever recorded (``recorded - len(spans())`` were
        #: dropped by the ring buffer).
        self.recorded = 0

    @property
    def capacity(self) -> int:
        return self._spans.maxlen or 0

    def next_id(self) -> int:
        """Allocate a span id (for pre-linking children to a parent)."""
        return next(self._ids)

    def record(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        *,
        span_id: int | None = None,
        parent_id: int | None = None,
        **attrs: Any,
    ) -> int:
        """Append one already-measured span; returns its id."""
        if span_id is None:
            span_id = next(self._ids)
        self._spans.append(Span(name, span_id, parent_id, start_ns, end_ns, attrs))
        self.recorded += 1
        return span_id

    def spans(self) -> list[Span]:
        """Snapshot of the ring buffer, oldest first."""
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self._spans)}, capacity={self.capacity})"


def spans_by_name(spans: Iterable[Span]) -> dict[str, list[Span]]:
    """Group *spans* by name, preserving order (render/summary helper)."""
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    return groups
