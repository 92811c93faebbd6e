"""Exception hierarchy shared by all repro subsystems."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed intermediate representation (bad arity, cycles, ...)."""


class GrammarError(ReproError):
    """Malformed tree grammar or grammar-text parse error."""


class CoverError(ReproError):
    """No derivation of the requested nonterminal exists for a tree."""


class SelectorError(ReproError):
    """Selector facade error (bad mode, unusable or mismatched AOT artifact)."""


class ArtifactError(SelectorError):
    """Base class for AOT-artifact problems (see the concrete subclasses).

    All artifact failures remain :class:`SelectorError`\\ s, so existing
    ``except SelectorError`` callers are unaffected; the subclasses let
    callers tell *transient* failures (worth a retry) from *persistent*
    ones (worth a rebuild).
    """


class ArtifactIOError(ArtifactError):
    """Artifact could not be read or written (OS-level failure).

    Possibly transient — a concurrent writer, a flaky filesystem — so
    a retry may succeed.
    """


class ArtifactCorruptError(ArtifactError):
    """Artifact bytes are structurally bad (magic, truncation, checksum).

    Never transient: re-reading returns the same bytes, so a retry
    cannot help; only a rebuild can.
    """


class ArtifactStaleError(ArtifactError):
    """Artifact is well-formed but compiled for a different grammar.

    The fingerprint does not match the grammar supplied to ``load`` —
    rebuild (and overwrite) rather than retry.
    """


class ResilienceError(ReproError):
    """Resilience-layer error (retry budget exhausted, bad policy value)."""


class DeadlineExceededError(ResilienceError):
    """A request's deadline passed mid-selection.

    Raised by the cooperative cancellation checks threaded through the
    label and reduce hot loops when the absolute ``deadline_at_ns``
    (a ``time.monotonic_ns()`` instant) passes.  Deliberately *not* absorbed by
    ``on_error="isolate"``: the deadline covers the whole batch, so the
    overrun must propagate to the caller (the service front door) which
    owns per-request accounting.
    """


class ServiceError(ReproError):
    """Selection-service error (supervisor, front door, worker protocol)."""


class CircuitOpenError(ServiceError):
    """Fast-fail: the tenant's circuit breaker is open.

    Returned (not raised) to callers of the service front door while a
    tenant accumulates consecutive failures; half-open probes close the
    breaker again once the tenant recovers.
    """


class OverloadError(ServiceError):
    """Load shed: the service admission queue is full.

    Bounded queues convert overload into an immediate typed rejection
    instead of unbounded latency; callers may retry later.
    """


class RequestLostError(ServiceError):
    """A request was abandoned after exhausting its re-dispatch budget.

    Only produced for "poison pill" requests that repeatedly crash the
    worker assigned to them; ordinary worker deaths re-dispatch
    transparently.
    """


class RequestEncodeError(ServiceError):
    """A request's forest could not be pickled for the worker pipe.

    The encoding is deterministic — an unpicklable payload, or a forest
    nested deeper than the pickler's recursion limit, fails every time —
    so the request fails at once, without retries, and the rest of its
    batch is dispatched as if it had never been there.
    """


class AnalysisError(ReproError):
    """Static-analysis error (unanalyzable grammar, failed differential check)."""

