"""Deterministic, seedable fault injectors for the resilience layer.

Error-localization tooling is only credible when validated by
*systematically injecting* the faults it claims to survive (the
CERTPLC / Bekkouche et al. methodology — see PAPERS.md): this module is
that harness.  Three injector families, all deterministic so a chaos
seed reproduces a failure exactly:

* :class:`FaultyCallable` — wraps a dynamic-cost, constraint, or
  emission callable and raises :class:`InjectedFault` on the Nth call
  or whenever a node predicate matches (the
  :func:`poison_action`/:func:`poison_constraint`/
  :func:`poison_dynamic_cost` helpers install and uninstall it on a
  :class:`~repro.grammar.rule.Rule` in place);
* :func:`corrupt_bytes` / :func:`truncate_bytes` — flip or cut artifact
  bytes at chosen (or seeded-random) offsets;
* :func:`artifact_io_faults` — a context manager that patches the
  selector's syscall indirection hooks to fail reads, inject latency,
  and simulate a **mid-write crash** after any chosen write-syscall
  boundary (:class:`SimulatedCrash` deliberately subclasses
  ``BaseException`` so no resilience machinery can swallow it — it
  models process death, not a recoverable error).

None of this imports ``pytest``; the injectors are plain library code
usable from benchmarks (the ``faults`` bench family) as well as tests.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.selection import selector as _selector_module

__all__ = [
    "ArtifactIOFaults",
    "FaultyCallable",
    "IOCounters",
    "InjectedFault",
    "SimulatedCrash",
    "artifact_io_faults",
    "corrupt_bytes",
    "kill_process",
    "poison_action",
    "poison_constraint",
    "poison_dynamic_cost",
    "truncate_bytes",
]


class InjectedFault(Exception):
    """The exception raised by injectors that model *recoverable* faults.

    A plain ``Exception`` subclass: the resilience layer is expected to
    isolate or demote it like any user-code failure.
    """


class SimulatedCrash(BaseException):
    """Models sudden process death (power loss, ``kill -9``).

    Deliberately a ``BaseException`` subclass — like
    ``KeyboardInterrupt`` — so it can never be swallowed by the
    resilience layer's ``except Exception`` handlers: crash simulations
    must observe what a *real* crash would leave on disk, not what a
    cleanup handler would tidy up.
    """


# ----------------------------------------------------------------------
# Callable faults (dynamic rules, constraints, emission actions)


class FaultyCallable:
    """A deterministic raising wrapper around any callable.

    Args:
        fn: The callable to wrap (its return value is forwarded on
            non-faulting calls).
        on_call: Raise on the Nth invocation, 1-based.  With *sticky*
            true, every invocation from the Nth on raises (use sticky
            faults to model a persistently broken callback —
            ``on_error="isolate"`` may re-invoke callables when it
            re-labels a faulted batch forest by forest).
        predicate: Raise whenever ``predicate(*args)`` is true (e.g. a
            check on the IR node's ``nid``).  Composable with
            *on_call*; either trigger fires the fault.
        sticky: See *on_call*.
        exc_factory: Builds the exception to raise (defaults to
            :class:`InjectedFault` with a descriptive message).
        max_faults: Stop faulting after this many raises — the wrapper
            behaves normally from then on.  Models a *transient* tenant
            poisoning that heals (e.g. for circuit-breaker recovery:
            the breaker opens while faults flow, then half-open probes
            find the callable healthy again).  ``None`` = unlimited.
        latency_s: Sleep this long before every invocation (faulting or
            not) — models a persistently *slow* callable (a slow tenant
            burning its deadline budget) without changing results.

    The wrapper impersonates ``fn``'s ``__module__``/``__qualname__``/
    ``__name__`` so grammar fingerprints (which identify dynamic
    callables by qualified name) are unchanged by the wrapping — a
    poisoned grammar still matches its artifacts.

    Attributes:
        calls: Total invocations observed.
        faults: Invocations that raised.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        *,
        on_call: int | None = None,
        predicate: Callable[..., bool] | None = None,
        sticky: bool = False,
        exc_factory: Callable[[], BaseException] | None = None,
        max_faults: int | None = None,
        latency_s: float = 0.0,
    ) -> None:
        if on_call is None and predicate is None and latency_s <= 0:
            raise ValueError("FaultyCallable needs on_call, predicate, and/or latency_s")
        self.fn = fn
        self.on_call = on_call
        self.predicate = predicate
        self.sticky = sticky
        self.exc_factory = exc_factory
        self.max_faults = max_faults
        self.latency_s = latency_s
        self.calls = 0
        self.faults = 0
        for attr in ("__module__", "__qualname__", "__name__"):
            try:
                setattr(self, attr, getattr(fn, attr))
            except AttributeError:
                pass

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.calls += 1
        if self.latency_s > 0:
            time.sleep(self.latency_s)
        trigger = False
        if self.on_call is not None:
            trigger = (
                self.calls >= self.on_call if self.sticky else self.calls == self.on_call
            )
        if not trigger and self.predicate is not None:
            trigger = bool(self.predicate(*args, **kwargs))
        if trigger and self.max_faults is not None and self.faults >= self.max_faults:
            trigger = False
        if trigger:
            self.faults += 1
            if self.exc_factory is not None:
                raise self.exc_factory()
            raise InjectedFault(
                f"injected fault in {getattr(self, '__name__', 'callable')} "
                f"(call #{self.calls})"
            )
        return self.fn(*args, **kwargs)

    def __repr__(self) -> str:
        return (
            f"FaultyCallable({getattr(self, '__name__', '?')}, calls={self.calls}, "
            f"faults={self.faults})"
        )


def _poison(rule: Any, attr: str, fault: FaultyCallable) -> Callable[[], None]:
    """Install *fault* on ``rule.<attr>`` in place; returns an undo."""
    original = getattr(rule, attr)
    setattr(rule, attr, fault)

    def restore() -> None:
        setattr(rule, attr, original)

    return restore


def poison_action(rule: Any, **kwargs: Any) -> tuple[FaultyCallable, Callable[[], None]]:
    """Wrap *rule*'s emission action in a :class:`FaultyCallable`.

    Returns ``(fault, restore)``: the installed wrapper (for call/fault
    counts) and a zero-argument undo.  Keyword arguments go to
    :class:`FaultyCallable`.  A rule without an action gets a
    pass-through action installed (operands forwarded like the default
    reducer behavior), so any rule can be poisoned.
    """
    fn = rule.action
    if fn is None:
        from repro.selection.reducer import flatten_operands

        def fn(context: Any, node: Any, operands: list[Any]) -> Any:  # noqa: ARG001
            return flatten_operands(operands)

        fn.__name__ = f"passthrough_{rule.lhs}"
    fault = FaultyCallable(fn, **kwargs)
    return fault, _poison(rule, "action", fault)


def poison_constraint(
    rule: Any, **kwargs: Any
) -> tuple[FaultyCallable, Callable[[], None]]:
    """Wrap *rule*'s constraint predicate in a :class:`FaultyCallable`."""
    if rule.constraint is None:
        raise ValueError(f"rule {rule.lhs}: {rule.pattern} has no constraint to poison")
    fault = FaultyCallable(rule.constraint, **kwargs)
    return fault, _poison(rule, "constraint", fault)


def poison_dynamic_cost(
    rule: Any, **kwargs: Any
) -> tuple[FaultyCallable, Callable[[], None]]:
    """Wrap *rule*'s dynamic-cost callable in a :class:`FaultyCallable`."""
    if rule.dynamic_cost is None:
        raise ValueError(f"rule {rule.lhs}: {rule.pattern} has no dynamic cost to poison")
    fault = FaultyCallable(rule.dynamic_cost, **kwargs)
    return fault, _poison(rule, "dynamic_cost", fault)


# ----------------------------------------------------------------------
# Artifact byte faults


def corrupt_bytes(
    path: str | Path,
    offset: int | None = None,
    *,
    xor_mask: int = 0xFF,
    seed: int | None = None,
) -> int:
    """Flip one byte of the file at *path* (XOR with *xor_mask*).

    *offset* picks the byte; ``None`` draws one deterministically from
    ``random.Random(seed)``.  Negative offsets index from the end.
    Returns the absolute offset corrupted.
    """
    target = Path(path)
    blob = bytearray(target.read_bytes())
    if not blob:
        raise ValueError(f"{target}: cannot corrupt an empty file")
    if offset is None:
        offset = random.Random(seed).randrange(len(blob))
    if offset < 0:
        offset += len(blob)
    if not 0 <= offset < len(blob):
        raise ValueError(f"{target}: offset {offset} outside {len(blob)} bytes")
    blob[offset] ^= xor_mask & 0xFF
    target.write_bytes(bytes(blob))
    return offset


def truncate_bytes(
    path: str | Path,
    keep: int | None = None,
    *,
    fraction: float | None = None,
) -> int:
    """Truncate the file at *path*, keeping *keep* bytes (or *fraction*).

    Exactly one of *keep* / *fraction* must be given.  Returns the new
    size.  ``keep=0`` produces the zero-length-file case.
    """
    target = Path(path)
    size = target.stat().st_size
    if (keep is None) == (fraction is None):
        raise ValueError("pass exactly one of keep= or fraction=")
    if keep is None:
        keep = int(size * fraction)
    if not 0 <= keep <= size:
        raise ValueError(f"{target}: cannot keep {keep} of {size} bytes")
    target.write_bytes(target.read_bytes()[:keep])
    return keep


# ----------------------------------------------------------------------
# Syscall-level IO faults (patch the selector's IO hooks)


@dataclass
class IOCounters:
    """Syscalls observed through the patched hooks.

    ``write_steps`` numbers the write-path syscall boundaries
    (open, each chunk write, fsync, rename) — run :meth:`Selector.save`
    once under a no-fault :func:`artifact_io_faults` to learn the total,
    then crash after each step ``1..total`` in turn.
    """

    read: int = 0
    open: int = 0
    write: int = 0
    fsync: int = 0
    replace: int = 0

    @property
    def write_steps(self) -> int:
        return self.open + self.write + self.fsync + self.replace


class ArtifactIOFaults:
    """Context manager simulating IO faults at the selector's syscall hooks.

    Args:
        fail_reads: The first N artifact reads raise ``OSError``
            (transient-failure model: the artifact cache should retry
            these with backoff and succeed on read N+1).
        crash_after_step: Raise :class:`SimulatedCrash` immediately
            *after* the Nth write-path syscall completes (1-based over
            open/write/fsync/rename, see :class:`IOCounters`) — the
            bytes that syscall wrote are on "disk", nothing later is.
            ``None`` disables crashing (counting still happens).
        latency_s: Sleep this long before every hooked syscall
            (slow-filesystem model).

    Yields its :class:`IOCounters`; hooks are restored on exit, even
    after a crash.
    """

    def __init__(
        self,
        *,
        fail_reads: int = 0,
        crash_after_step: int | None = None,
        latency_s: float = 0.0,
    ) -> None:
        self.fail_reads = fail_reads
        self.crash_after_step = crash_after_step
        self.latency_s = latency_s
        self.counters = IOCounters()
        self._saved: dict[str, Callable[..., Any]] = {}

    # -- hook implementations -----------------------------------------

    def _lag(self) -> None:
        if self.latency_s > 0:
            time.sleep(self.latency_s)

    def _crash_check(self) -> None:
        if (
            self.crash_after_step is not None
            and self.counters.write_steps >= self.crash_after_step
        ):
            raise SimulatedCrash(
                f"simulated crash after write step {self.counters.write_steps}"
            )

    def _read_bytes(self, path: Path) -> bytes:
        self._lag()
        self.counters.read += 1
        if self.counters.read <= self.fail_reads:
            raise OSError(f"injected IO failure reading {path} (#{self.counters.read})")
        return path.read_bytes()

    def _open(self, path: str, flags: int) -> int:
        self._lag()
        fd = os.open(path, flags, 0o644)
        self.counters.open += 1
        self._crash_check()
        return fd

    def _write(self, fd: int, data: bytes) -> int:
        self._lag()
        written = os.write(fd, data)
        self.counters.write += 1
        self._crash_check()
        return written

    def _fsync(self, fd: int) -> None:
        self._lag()
        os.fsync(fd)
        self.counters.fsync += 1
        self._crash_check()

    def _replace(self, src: str, dst: str) -> None:
        self._lag()
        os.replace(src, dst)
        self.counters.replace += 1
        self._crash_check()

    # -- context management -------------------------------------------

    def __enter__(self) -> IOCounters:
        module = _selector_module
        self._saved = {
            "_io_read_bytes": module._io_read_bytes,
            "_io_open": module._io_open,
            "_io_write": module._io_write,
            "_io_fsync": module._io_fsync,
            "_io_replace": module._io_replace,
        }
        module._io_read_bytes = self._read_bytes
        module._io_open = self._open
        module._io_write = self._write
        module._io_fsync = self._fsync
        module._io_replace = self._replace
        return self.counters

    def __exit__(self, *exc_info: Any) -> None:
        for name, fn in self._saved.items():
            setattr(_selector_module, name, fn)
        self._saved = {}


def artifact_io_faults(
    *,
    fail_reads: int = 0,
    crash_after_step: int | None = None,
    latency_s: float = 0.0,
) -> ArtifactIOFaults:
    """Sugar for ``with ArtifactIOFaults(...) as counters:`` (see there)."""
    return ArtifactIOFaults(
        fail_reads=fail_reads,
        crash_after_step=crash_after_step,
        latency_s=latency_s,
    )


# ----------------------------------------------------------------------
# Process faults (the service chaos harness)


def kill_process(pid: int, sig: int | None = None) -> bool:
    """SIGKILL (by default) a process — the real ``kill -9``, not a
    simulation.

    The chaos counterpart of :class:`SimulatedCrash` for multi-process
    targets: the service soak harness uses it to murder a live worker
    mid-batch and assert that the supervisor re-dispatches every
    in-flight request.  Returns ``False`` (instead of raising) when the
    process is already gone — chaos injection races with natural exits
    by design.
    """
    import signal as _signal

    try:
        os.kill(pid, _signal.SIGKILL if sig is None else sig)
    except ProcessLookupError:
        return False
    return True
