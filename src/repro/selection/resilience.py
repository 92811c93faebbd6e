"""Resilience primitives: fault isolation, degradation ladder, artifact cache.

The paper's pitch is instruction selection robust enough to run *inside*
a JIT: it must never take down the host compiler, even on hostile
grammars, forests, or artifact caches.  This module holds the runtime
side of that story — the static side is the PR 6 completeness
certifier — as three small, composable pieces:

* :class:`SelectionFailure` — the structured record a fault-isolated
  batch (``select_many(on_error="isolate")``) returns *in place of* a
  faulted forest's values: which forest, which phase (validate / label
  / reduce / cover), the exception, and the IR node being processed when the
  fault fired.  The rest of the batch completes normally.
* :class:`BuildBudget` — a resource budget for the eager (offline)
  table build: a state-pool cap plus a wall-clock deadline.  A build
  that exceeds either is *demoted* to on-demand mode instead of
  shipping silently-incomplete "eager" tables.
* :class:`ArtifactCache` — a fingerprint-keyed, compile-on-miss AOT
  artifact cache implementing the full graceful-degradation ladder:
  load → (retry transient IO with exponential backoff + jitter) →
  quarantine corrupt/stale files (``.bad`` rename, so a poisoned cache
  entry is rebuilt once instead of re-read forever) → in-process
  compile under a budget → atomic save.

Every demotion, isolation, retry, and quarantine is counted; selectors
surface their counters under ``stats()["resilience"]`` and the cache
under :meth:`ArtifactCache.stats`, so operators can observe a degraded
deployment instead of discovering it from latency graphs.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import (
    ArtifactIOError,
    DeadlineExceededError,
    ResilienceError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (selector imports us)
    from repro.grammar.grammar import Grammar
    from repro.ir.node import Node
    from repro.selection.selector import Selector, SelectorConfig

__all__ = [
    "DEADLINE_CHECK_EVERY",
    "ArtifactCache",
    "BuildBudget",
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
    the label walks, the reducer frame loop, the emission tape's
    compile walk and sweep, and the eager build's inner fill loop call
    this every :data:`DEADLINE_CHECK_EVERY` steps when a deadline is
    set.
    """
    if time.monotonic_ns() > deadline_at_ns:
        raise DeadlineExceededError(f"request deadline exceeded during {phase}")

#: Attribute used to carry IR-node provenance on in-flight exceptions.
_PROVENANCE_ATTR = "_repro_fault_node"


def attach_node_provenance(exc: BaseException, node: "Node") -> None:
    """Record the IR node being processed when *exc* was raised.

    First attachment wins: the deepest frame that knows the node tags
    the exception, outer wrappers leave it alone.  Attachment is best
    effort — exotic exception objects that reject attributes are left
    untagged rather than masking the original error.
    """
    if getattr(exc, _PROVENANCE_ATTR, None) is None:
        try:
            setattr(exc, _PROVENANCE_ATTR, f"{node.op.name}(nid={node.nid})")
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


@dataclass(frozen=True)
class BuildBudget:
    """Resource budget for the eager (offline) table build.

    Attributes:
        max_states: State-pool cap; construction interning more states
            stops the build.
        deadline_ns: Wall-clock budget in nanoseconds; a build still
            running past it stops between construction steps.

    A budgeted :meth:`~repro.selection.selector.Selector.compile` that
    trips either limit *demotes* the selector to on-demand mode (the
    partial tables stay warm, labeling falls back to on-demand
    construction for whatever is missing) and counts the demotion under
    ``stats()["resilience"]["demotions"]["build_budget"]`` — the
    middle rung of the degradation ladder.
    """

    max_states: int | None = None
    deadline_ns: int | None = None


def new_resilience_counters() -> dict[str, Any]:
    """A fresh ``stats()["resilience"]`` counter block.

    * ``isolated_failures`` — forests contained by ``on_error="isolate"``;
    * ``failures_by_phase`` — the same, split by pipeline phase
      (``validate``, ``label``, ``reduce``);
    * ``demotions`` — degradation-ladder steps taken, by cause
      (``load_failed`` artifact → in-process compile, ``build_budget``
      eager → on-demand);
    * ``retries`` / ``quarantined`` — artifact-cache recovery actions
      attributed to this selector's cache interactions;
    * ``deadline_overruns`` — selections aborted by a request-budget
      deadline (:class:`~repro.errors.DeadlineExceededError`), which
      propagates even under ``on_error="isolate"``.
    """
    return {
        "isolated_failures": 0,
        "failures_by_phase": {"validate": 0, "label": 0, "reduce": 0},
        "demotions": {"load_failed": 0, "build_budget": 0},
        "retries": 0,
        "quarantined": 0,
        "deadline_overruns": 0,
    }


# ----------------------------------------------------------------------
# Fingerprint-keyed artifact cache (compile-on-miss, quarantine, retry)


@dataclass
class _CacheStats:
    hits: int = 0
    misses: int = 0
    compiles: int = 0
    loads_failed: int = 0
    retries: int = 0
    quarantined: int = 0
    saves_failed: int = 0
    events: list[str] = field(default_factory=list)


class ArtifactCache:
    """A fingerprint-keyed AOT artifact cache with compile-on-miss.

    One directory holds one artifact per grammar fingerprint
    (``<fingerprint>.rsel``) — exactly a code cache.  ``selector_for``
    returns a ready selector for a grammar, walking the degradation
    ladder as far as it must:

    1. **Load** the cached artifact (cold start ≈ load, not build).
    2. **Retry** transient IO failures (:class:`ArtifactIOError`) with
       exponential backoff plus deterministic jitter, bounded by
       *retries* — a concurrent writer or flaky filesystem gets a
       second chance instead of forcing a rebuild.
    3. **Quarantine** corrupt or stale artifacts: the file is renamed
       to ``<name>.bad`` (best effort) so the poisoned entry is rebuilt
       once instead of being re-read — and failing — forever.
    4. **Compile in-process** (under *budget*, when given) and save the
       artifact back **atomically**; a save failure degrades to serving
       the in-process selector without a cache entry.

    Every step is counted in :meth:`stats`, and the counters of the
    returned selector (``stats()["resilience"]``) absorb the retries
    and quarantines its construction caused.

    The jitter RNG is seedable (*seed*) so chaos tests reproduce exact
    retry schedules; *base_delay* of ``0`` disables sleeping entirely.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        retries: int = 4,
        base_delay: float = 0.005,
        max_delay: float = 0.25,
        seed: int | None = None,
        obs: "object | None" = None,
    ) -> None:
        if retries < 0:
            raise ResilienceError(f"ArtifactCache retries must be >= 0, got {retries}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retries = retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._rng = random.Random(seed)
        self._stats = _CacheStats()
        #: Observability bundle: cache operations record
        #: ``artifact.*`` spans and ``artifact_cache_ops_total{op=...}``
        #: counters, and selectors built or loaded through this cache
        #: inherit the bundle (unless their config already carries one).
        from repro.obs import resolve_obs

        self._obs = resolve_obs(obs)

    # ------------------------------------------------------------------

    def path_for(self, grammar: "Grammar") -> Path:
        """The cache path of *grammar*'s artifact (fingerprint-keyed)."""
        from repro.selection.selector import grammar_fingerprint

        return self.directory / f"{grammar_fingerprint(grammar)}.rsel"

    def _backoff(self, attempt: int) -> None:
        """Sleep ``base * 2^attempt`` capped at *max_delay*, with jitter."""
        if self.base_delay <= 0:
            return
        delay = min(self.base_delay * (2**attempt), self.max_delay)
        time.sleep(delay * (0.5 + self._rng.random()))

    def _quarantine(self, path: Path) -> Path | None:
        """Rename a poisoned artifact to ``<name>.bad`` (best effort)."""
        target = path.with_name(path.name + ".bad")
        start_ns = time.monotonic_ns() if self._obs.tracer.enabled else None
        try:
            os.replace(path, target)
        except OSError:
            # A concurrent reader may have quarantined it first; either
            # way the cache slot is clear for the rebuild.
            return None
        self._stats.quarantined += 1
        self._stats.events.append(f"quarantined {target.name}")
        if start_ns is not None:
            self._obs.tracer.record(
                "artifact.quarantine", start_ns, time.monotonic_ns(), path=path.name
            )
        if self._obs.enabled:
            self._obs.metrics.counter("artifact_cache_ops_total", op="quarantine").inc()
        return target

    def selector_for(
        self,
        grammar: "Grammar",
        config: "SelectorConfig | None" = None,
        *,
        budget: "BuildBudget | None" = None,
    ) -> "Selector":
        """A ready selector for *grammar*: load from cache or compile on miss.

        Never raises on a bad cache entry — the ladder bottoms out at
        an in-process on-demand selector.  Only programming errors
        (bad arguments) and exceptions from the grammar itself escape.
        """
        from repro.selection.selector import Selector, SelectorConfig

        obs = self._obs
        tracer = obs.tracer
        if obs.enabled:
            # Selectors served by this cache share its bundle, unless
            # the caller's config already wired its own.
            if config is None:
                config = SelectorConfig(observe=obs)
            elif config.observe is None:
                config = dataclasses.replace(config, observe=obs)

        path = self.path_for(grammar)
        load_error: Exception | None = None
        attempt = 0
        quarantined_now = 0
        while path.exists():
            load_start = time.monotonic_ns() if tracer.enabled else None
            try:
                selector = Selector.load(path, grammar, config)
            except ArtifactIOError as exc:
                if attempt >= self.retries:
                    load_error = exc
                    self._stats.loads_failed += 1
                    break
                self._stats.retries += 1
                if obs.enabled:
                    obs.metrics.counter("artifact_cache_ops_total", op="retry").inc()
                self._backoff(attempt)
                attempt += 1
                continue
            except Exception as exc:  # corrupt, stale, or unexpected
                load_error = exc
                self._stats.loads_failed += 1
                if self._quarantine(path) is not None:
                    quarantined_now = 1
                break
            else:
                self._stats.hits += 1
                if load_start is not None:
                    tracer.record(
                        "artifact.load",
                        load_start,
                        time.monotonic_ns(),
                        path=path.name,
                        attempts=attempt + 1,
                    )
                if obs.enabled:
                    obs.metrics.counter("artifact_cache_ops_total", op="load").inc()
                selector._resilience["retries"] += attempt
                return selector
        else:
            self._stats.misses += 1

        # Compile-on-miss (or after a failed load): in-process build.
        self._stats.compiles += 1
        compile_start = time.monotonic_ns() if tracer.enabled else None
        selector = Selector(grammar, mode="ondemand", config=config)
        if load_error is not None:
            selector._resilience["demotions"]["load_failed"] += 1
            selector._resilience["retries"] += attempt
            selector._resilience["quarantined"] += quarantined_now
            selector._last_degradation = (
                f"load_failed: {type(load_error).__name__}: {load_error}; "
                f"compiled in-process"
            )
        selector.compile(budget=budget)
        self._save_back(selector, path)
        if compile_start is not None:
            tracer.record(
                "artifact.compile",
                compile_start,
                time.monotonic_ns(),
                path=path.name,
                after_load_failure=load_error is not None,
            )
        if obs.enabled:
            obs.metrics.counter("artifact_cache_ops_total", op="compile").inc()
        return selector

    def _save_back(self, selector: "Selector", path: Path) -> None:
        """Atomically publish a freshly compiled artifact (best effort).

        Save failures are retried with backoff, then absorbed: the
        in-process selector is perfectly serviceable without a cache
        entry, so a read-only or full cache directory degrades
        throughput (every cold start compiles), not correctness.
        """
        for attempt in range(self.retries + 1):
            try:
                selector.save(path)
                return
            except (ArtifactIOError, OSError):
                if attempt >= self.retries:
                    self._stats.saves_failed += 1
                    self._stats.events.append(f"save failed for {path.name}")
                    return
                self._stats.retries += 1
                self._backoff(attempt)

    def stats(self) -> dict[str, object]:
        """Counter snapshot: hits, misses, compiles, retries, quarantines."""
        stats = self._stats
        return {
            "directory": str(self.directory),
            "hits": stats.hits,
            "misses": stats.misses,
            "compiles": stats.compiles,
            "loads_failed": stats.loads_failed,
            "retries": stats.retries,
            "quarantined": stats.quarantined,
            "saves_failed": stats.saves_failed,
            "events": list(stats.events),
        }

    def __repr__(self) -> str:
        stats = self._stats
        return (
            f"ArtifactCache({str(self.directory)!r}, hits={stats.hits}, "
            f"misses={stats.misses}, quarantined={stats.quarantined})"
        )
