"""Tests for the supervised selection service and its building blocks.

Layered like the package: the :class:`CircuitBreaker` state machine
first, deadlines (absolute ``monotonic_ns`` integers) and cooperative
cancellation inside the selection hot loops next, then the full
:class:`SelectionService` — including the chaos contracts (a SIGKILLed
worker's in-flight requests are transparently re-dispatched, a
crash-looping poison pill fails typed instead of wedging the pool) and
the on-demand start-up contract: the service builds nothing before a
tenant's first request, and that request's deadline bounds the labeling
that builds its states.  Last comes the wire: how forests cross the
worker pipe (DAG sharing, node ids, payloads, message size) and what
happens to a forest that cannot cross it.
"""

from __future__ import annotations

import importlib.util
import multiprocessing.connection as mpconnection
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import build_flat_forest
from repro.bench.workloads import (
    EmitContext,
    bench_grammar,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    random_forests,
)
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadError,
    RequestEncodeError,
    RequestLostError,
    ServiceError,
)
from repro.ir import DEFAULT_OPERATORS, Forest, Node, NodeBuilder
from repro.selection import OnDemandAutomaton, Selector, SelectorConfig
from repro.selection import selector as selector_module
from repro.selection.resilience import SelectionFailure, new_resilience_counters
from repro.service import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    SelectionService,
    ServiceConfig,
    frontdoor,
    supervisor,
)
from repro.service.frontdoor import MAX_BATCH
from repro.service.supervisor import Batch, encode_batch
from repro.service.worker import _snapshot
from repro.testing import poison_action


def _stmt_rule(grammar):
    """The ``stmt: EXPR(reg)`` rule — every expr statement reduces it."""
    return next(
        r for r in grammar.rules if r.lhs == "stmt" and r.pattern.symbol == "EXPR"
    )


def _forests(seed: int = 11, n: int = 4):
    return random_forests(seed, forests=n, statements=4, max_depth=3)


# ----------------------------------------------------------------------
# CircuitBreaker


def test_breaker_opens_after_consecutive_failures_only():
    breaker = CircuitBreaker("t", failure_threshold=3, cooldown_s=60.0)
    now = time.monotonic_ns()
    breaker.record_failure(now)
    breaker.record_failure(now)
    breaker.record_success()  # a success resets the streak
    breaker.record_failure(now)
    breaker.record_failure(now)
    assert breaker.state == CLOSED and breaker.allows(now)
    breaker.record_failure(now)
    assert breaker.state == OPEN
    assert not breaker.allows(now)
    assert ("t", CLOSED, OPEN) in breaker.transitions


def test_breaker_half_open_probe_recovers():
    breaker = CircuitBreaker("t", failure_threshold=1, cooldown_s=0.01)
    now = time.monotonic_ns()
    breaker.record_failure(now)
    assert breaker.state == OPEN
    later = now + int(0.02 * 1e9)
    assert breaker.allows(later)  # cooldown elapsed: half-open probe
    assert breaker.state == HALF_OPEN
    breaker.mark_dispatched()
    assert not breaker.allows(later)  # one probe at a time
    breaker.record_success()
    assert breaker.state == CLOSED
    states = [(frm, to) for _, frm, to in breaker.transitions]
    assert states == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]


def test_breaker_half_open_probe_failure_reopens():
    breaker = CircuitBreaker("t", failure_threshold=1, cooldown_s=0.01)
    now = time.monotonic_ns()
    breaker.record_failure(now)
    later = now + int(0.02 * 1e9)
    assert breaker.allows(later)
    breaker.mark_dispatched()
    breaker.record_failure(later)
    assert breaker.state == OPEN
    assert not breaker.allows(later)


def test_breaker_keeps_only_its_latest_transitions():
    breaker = CircuitBreaker("t", failure_threshold=1, cooldown_s=0.0)
    now = time.monotonic_ns()
    for cycle in range(40):  # 120 transitions: open, half-open, closed
        breaker.record_failure(now + cycle)
        assert breaker.allows(now + cycle)
        breaker.record_success()
    arc = [("t", CLOSED, OPEN), ("t", OPEN, HALF_OPEN), ("t", HALF_OPEN, CLOSED)]
    assert len(breaker.transitions) == 32
    assert list(breaker.transitions) == (arc * 40)[-32:]
    assert breaker.snapshot()["transitions"][-1] == ["t", HALF_OPEN, CLOSED]


# ----------------------------------------------------------------------
# Deadlines inside the selection pipeline (satellite: inner-loop checks)


def test_select_many_expired_budget_raises_and_counts():
    selector = Selector(bench_grammar(), mode="eager")
    with pytest.raises(DeadlineExceededError):
        selector.select_many(_forests(n=1), deadline_at_ns=time.monotonic_ns() - 1)
    assert selector.stats()["resilience"]["deadline_overruns"] == 1


def test_isolate_does_not_absorb_deadline_errors():
    # A deadline is a whole-batch verdict, not a per-forest fault:
    # on_error="isolate" must re-raise it, never convert it into
    # SelectionFailure rows.
    selector = Selector(bench_grammar(), mode="eager")
    with pytest.raises(DeadlineExceededError):
        selector.select_many(
            _forests(n=2), on_error="isolate", deadline_at_ns=time.monotonic_ns() - 1
        )


def test_generous_budget_changes_nothing():
    selector = Selector(bench_grammar(), mode="eager")
    forests = _forests(n=2)
    budgeted = selector.select_many(
        forests, deadline_at_ns=time.monotonic_ns() + 30 * 10**9
    )
    plain = selector.select_many(forests)
    assert budgeted.values == plain.values
    assert selector.stats()["resilience"]["deadline_overruns"] == 0


def test_select_many_rejects_a_budget_that_is_not_a_request_budget():
    # A deadline that is not an int must not silently arm no
    # deadline: it is a caller bug, reported before any work.
    selector = Selector(bench_grammar())
    with pytest.raises(TypeError, match="object"):
        selector.select_many(_forests(n=1), deadline_at_ns=object())
    with pytest.raises(TypeError, match="SimpleNamespace"):
        selector.select_many(
            _forests(n=1),
            deadline_at_ns=SimpleNamespace(deadline_at_ns=time.monotonic_ns() - 1),
        )
    assert selector.stats()["selection"]["calls"] == 0


# ----------------------------------------------------------------------
# Satellite: single-forest select() shares the isolate contract


def test_single_select_isolate_returns_failure_not_raise():
    grammar = bench_grammar()
    fault, _restore = poison_action(_stmt_rule(grammar), on_call=1, sticky=True)
    selector = Selector(grammar, mode="eager")
    result = selector.select(build_flat_forest(), on_error="isolate")
    assert not result.ok
    [failure] = result.failures
    assert isinstance(failure, SelectionFailure)
    assert failure.phase == "reduce"
    assert fault.faults >= 1


def test_single_select_isolate_on_healthy_forest_is_ok():
    selector = Selector(bench_grammar(), mode="eager")
    result = selector.select(build_flat_forest(), on_error="isolate")
    assert result.ok and result.failures == []


# ----------------------------------------------------------------------
# Worker snapshot: resilience counters only


def test_worker_snapshot_sums_resilience_without_building_stats(monkeypatch):
    poisoned = bench_grammar()
    poison_action(_stmt_rule(poisoned), on_call=1, sticky=True)
    selectors = {
        "bench": Selector(bench_grammar(), mode="eager"),
        "poisoned": Selector(poisoned, mode="eager"),
    }
    for selector in selectors.values():
        selector.select_many(_forests(), on_error="isolate")
    assert selectors["poisoned"].stats()["resilience"]["isolated_failures"] > 0

    expected = new_resilience_counters()
    for selector in selectors.values():
        for key, value in selector.stats()["resilience"].items():
            if isinstance(value, dict):
                for inner, count in value.items():
                    expected[key][inner] += count
            elif isinstance(value, int):
                expected[key] += value

    calls = []
    fingerprint = selector_module.grammar_fingerprint

    def counting_fingerprint(grammar):
        calls.append(grammar)
        return fingerprint(grammar)

    monkeypatch.setattr(selector_module, "grammar_fingerprint", counting_fingerprint)
    snapshot = _snapshot(selectors)
    assert calls == []
    assert snapshot["resilience"] == expected
    assert set(snapshot) == {"pid", "resilience"}


# ----------------------------------------------------------------------
# SelectionService end to end


@pytest.fixture(autouse=True)
def _fast_supervision(monkeypatch):
    """Quick restarts and heartbeats, so the service tests run fast."""
    monkeypatch.setattr(supervisor, "RESTART_BACKOFF_BASE_S", 0.01)
    monkeypatch.setattr(supervisor, "RESTART_BACKOFF_MAX_S", 0.05)
    monkeypatch.setattr(frontdoor, "HEARTBEAT_INTERVAL_S", 0.1)


def _config(**overrides) -> ServiceConfig:
    base = dict(workers=1, seed=7)
    base.update(overrides)
    return ServiceConfig(**base)


def _breaker_policy(monkeypatch) -> None:
    """No retries, and a breaker that opens after two failures and
    admits its half-open probe 0.3 s later."""
    monkeypatch.setattr(frontdoor, "RETRIES", 0)
    monkeypatch.setattr(frontdoor, "BREAKER_THRESHOLD", 2)
    monkeypatch.setattr(frontdoor, "BREAKER_COOLDOWN_S", 0.3)


def test_service_serves_batches_and_reports_stats(tmp_path):
    with SelectionService({"bench": bench_grammar()}, tmp_path, _config()) as svc:
        forests = _forests(n=6)
        responses = [f.result(15.0) for f in [svc.submit("bench", x) for x in forests]]
        assert all(r.ok for r in responses)
        assert all(r.latency_ns > 0 for r in responses)
        stats = svc.stats()
        service = stats["service"]
        assert service["submitted"] == 6
        assert service["completed_ok"] == 6
        assert service["outstanding"] == 0
        assert service["batches"] >= 1
        assert service["batched_requests"] == 6
        assert service["per_tenant"]["bench"]["ok"] == 6
        assert service["loop_errors"] == []
        # Each block appears once: the worker rows live under the
        # supervisor, and the resilience block holds only worker counters.
        assert set(stats) == {"resilience", "service", "obs"}
        assert "service" not in stats["resilience"]
        assert "breaker_transitions" not in service
        [worker] = service["supervisor"]["workers"]
        assert worker["alive"] and worker["completed"] >= 1


def test_a_service_that_never_starts_holds_no_descriptors(tmp_path):
    """The wake pipe and the selector open at ``start()``, so a service
    that is built and dropped leaves no descriptor behind."""
    before = sorted(os.listdir("/proc/self/fd"))
    SelectionService({"bench": bench_grammar()}, tmp_path, _config())
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_service_rejects_unknown_tenants_and_stopped_submits(tmp_path):
    svc = SelectionService({"bench": bench_grammar()}, tmp_path, _config()).start()
    try:
        with pytest.raises(ServiceError, match="unknown tenant"):
            svc.submit("nope", build_flat_forest())
    finally:
        svc.stop()
    with pytest.raises(ServiceError, match="not running"):
        svc.submit("bench", build_flat_forest())


def test_service_sheds_on_a_full_admission_queue(tmp_path):
    with SelectionService(
        {"bench": bench_grammar()}, tmp_path, _config(queue_limit=0)
    ) as svc:
        response = svc.select("bench", build_flat_forest(), wait_s=5.0)
        assert response.status == "shed"
        assert isinstance(response.error, OverloadError)
        service = svc.stats()["service"]
        assert service["shed"] == 1
        assert service["per_tenant"]["bench"]["shed"] == 1


def test_service_expires_requests_typed(tmp_path):
    with SelectionService({"bench": bench_grammar()}, tmp_path, _config()) as svc:
        response = svc.select(
            "bench", build_flat_forest(), timeout_s=0.0, wait_s=10.0
        )
        assert response.status == "deadline"
        assert isinstance(response.error, DeadlineExceededError)
        assert svc.stats()["service"]["deadline_failures"] == 1


def test_service_retries_a_transient_fault(tmp_path, monkeypatch):
    grammar = bench_grammar()
    # The first action invocation in the worker faults; the retry heals.
    poison_action(_stmt_rule(grammar), on_call=1, max_faults=1)
    monkeypatch.setattr(frontdoor, "RETRIES", 2)
    with SelectionService({"bench": grammar}, tmp_path, _config()) as svc:
        response = svc.select("bench", build_flat_forest(), wait_s=20.0)
        assert response.ok
        assert response.attempts == 1
        service = svc.stats()["service"]
        assert service["retries"] == 1
        assert service["per_tenant"]["bench"]["retries"] == 1


def test_service_breaker_opens_fast_fails_then_recovers(tmp_path, monkeypatch):
    grammar = bench_grammar()
    # Two faults, then healed: enough to open a threshold-2 breaker,
    # and the half-open probe after cooldown finds the tenant healthy.
    poison_action(_stmt_rule(grammar), on_call=1, sticky=True, max_faults=2)
    _breaker_policy(monkeypatch)
    with SelectionService({"bench": grammar}, tmp_path, _config()) as svc:
        first = svc.select("bench", build_flat_forest(), wait_s=20.0)
        second = svc.select("bench", build_flat_forest(), wait_s=20.0)
        assert first.status == "failure" and second.status == "failure"
        assert isinstance(first.error, SelectionFailure)

        fast = svc.select("bench", build_flat_forest(), wait_s=5.0)
        assert fast.status == "circuit_open"
        assert isinstance(fast.error, CircuitOpenError)

        time.sleep(0.35)  # cooldown: next request is the half-open probe
        probe = svc.select("bench", build_flat_forest(), wait_s=20.0)
        assert probe.ok

        service = svc.stats()["service"]
        assert service["breaker_fastfail"] == 1
        assert service["breakers"]["bench"]["state"] == CLOSED
        states = [(frm, to) for _, frm, to in service["breakers"]["bench"]["transitions"]]
        assert states == [(CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)]


def _flaky_tenant():
    """A bench grammar whose ``EXPR`` statements take 10 ms each and fail
    on a ``REG("fail")`` operand — in every process alike, since the
    trigger is the forest, not a call count a restarted worker forgets."""
    grammar = bench_grammar()
    poison_action(
        _stmt_rule(grammar),
        predicate=lambda _context, node, _operands: node.kids[0].value == "fail",
        latency_s=0.01,
    )
    return grammar


def _statements(values) -> Forest:
    b = NodeBuilder()
    return Forest([b.expr(b.reg(value)) for value in values], name="statements")


def _open_the_breaker(svc) -> None:
    """Two failures open the threshold-2 breaker; once its 0.3 s
    cooldown has passed, the next request is the half-open probe."""
    for _ in range(2):
        response = svc.select("bench", _statements(["fail"]), wait_s=20.0)
        assert response.status == "failure", response.as_row()
    assert svc.stats()["service"]["breakers"]["bench"]["state"] == OPEN
    time.sleep(0.35)


def test_breaker_probe_ending_in_a_deadline_frees_the_probe_slot(tmp_path, monkeypatch):
    """A half-open probe that ends ``deadline`` is no verdict on the
    tenant: the next request probes instead of fast-failing for good."""
    _breaker_policy(monkeypatch)
    with SelectionService({"bench": _flaky_tenant()}, tmp_path, _config()) as svc:
        _open_the_breaker(svc)
        # 80 statements at 10 ms each overrun the probe's 0.2 s deadline.
        probe = svc.select("bench", _statements(range(80)), timeout_s=0.2, wait_s=20.0)
        assert probe.status == "deadline", probe.as_row()
        healthy = [svc.select("bench", build_flat_forest(), wait_s=20.0) for _ in range(3)]
        assert [r.status for r in healthy] == ["ok"] * 3
        assert svc.stats()["service"]["breakers"]["bench"]["state"] == CLOSED


def test_breaker_probe_whose_worker_dies_frees_the_probe_slot(tmp_path, monkeypatch):
    """A half-open probe whose worker dies is requeued, and the requeued
    probe dispatches again: a death is no verdict on the tenant."""
    _breaker_policy(monkeypatch)
    with SelectionService({"bench": _flaky_tenant()}, tmp_path, _config()) as svc:
        _open_the_breaker(svc)
        probe = svc.submit("bench", _statements(range(80)), timeout_s=5.0)
        deadline = time.monotonic() + 5.0
        while not any(h.batch is not None for h in svc.supervisor.handles):
            assert time.monotonic() < deadline, "the probe never went in flight"
            time.sleep(0.002)
        assert svc.supervisor.kill_worker(svc.supervisor.handles[0])
        response = probe.result(30.0)
        assert response.ok and response.re_dispatches == 1, response.as_row()
        assert svc.select("bench", build_flat_forest(), wait_s=20.0).ok
        service = svc.stats()["service"]
        assert service["breakers"]["bench"]["state"] == CLOSED
        assert service["supervisor"]["restarts_total"] == 1


def test_service_redispatches_after_worker_kill_zero_loss(tmp_path):
    grammar = bench_grammar()
    # ~0.15 s per action call keeps the batch in flight long enough to
    # murder its worker mid-run.
    poison_action(_stmt_rule(grammar), latency_s=0.15)
    with SelectionService({"bench": grammar}, tmp_path, _config(workers=2)) as svc:
        futures = [svc.submit("bench", f) for f in _forests(n=4)]
        victim = None
        deadline = time.monotonic() + 5.0
        while victim is None and time.monotonic() < deadline:
            victim = next(
                (h for h in svc.supervisor.handles if h.alive and h.batch is not None), None
            )
            time.sleep(0.005)
        assert victim is not None, "no batch went in flight"
        assert svc.supervisor.kill_worker(victim)

        responses = [f.result(30.0) for f in futures]
        assert all(r.ok for r in responses), [r.as_row() for r in responses]
        assert any(r.re_dispatches >= 1 for r in responses)
        service = svc.stats()["service"]
        assert service["re_dispatches"] >= 1
        assert service["supervisor"]["restarts_total"] >= 1
        assert service["supervisor"]["kills_total"] == 1
        assert service["loop_errors"] == []


def _exit_violently(context, node, operands):
    """A worker-killing action: models a native-extension segfault."""
    os._exit(23)


def test_service_poison_pill_fails_typed_not_forever(tmp_path, monkeypatch):
    grammar = bench_grammar()
    rule = _stmt_rule(grammar)
    rule.action = _exit_violently
    monkeypatch.setattr(frontdoor, "RETRIES", 0)
    monkeypatch.setattr(frontdoor, "MAX_REDISPATCHES", 1)
    with SelectionService({"bench": grammar}, tmp_path, _config()) as svc:
        response = svc.select("bench", build_flat_forest(), wait_s=30.0)
        assert response.status == "failure"
        assert isinstance(response.error, RequestLostError)
        assert response.re_dispatches == 2  # initial + 1 allowed re-dispatch
        service = svc.stats()["service"]
        assert service["poison_pills"] == 1
        assert service["supervisor"]["restarts_total"] >= 1
        # The pool recovers: the slot restarts and the service lives on.
        assert svc.drain(10.0)


def test_service_soak_mixed_tenants_with_kill_zero_lost(tmp_path):
    """Seeded short soak: sustained mixed-tenant traffic, one worker
    SIGKILLed mid-run — every request resolves ok or typed (CI job)."""
    slow = bench_grammar()
    poison_action(_stmt_rule(slow), latency_s=0.02)
    tenants = {"bench": bench_grammar(), "slow": slow}
    with SelectionService(tenants, tmp_path, _config(workers=2, seed=1234)) as svc:
        forests = _forests(seed=1234, n=8)
        futures = []
        for i in range(36):
            tenant = "slow" if i % 3 == 0 else "bench"
            futures.append(svc.submit(tenant, forests[i % len(forests)]))
            if i == 12:
                victim = next(h for h in svc.supervisor.handles if h.alive)
                svc.supervisor.kill_worker(victim)
            time.sleep(0.002)
        responses = [f.result(60.0) for f in futures]
        # Zero lost: every request resolved, successes or typed failures.
        assert len(responses) == 36
        assert all(r.response is not None for r in (f._request for f in futures))
        assert all(r.ok for r in responses), [
            r.as_row() for r in responses if not r.ok
        ]
        service = svc.stats()["service"]
        assert service["outstanding"] == 0
        assert service["supervisor"]["kills_total"] == 1
        assert service["supervisor"]["restarts_total"] >= 1
        assert service["loop_errors"] == []


def test_loop_errors_keep_the_latest_32(tmp_path, monkeypatch):
    """A long-lived service reports its event loop's newest errors,
    not the first 32 it ever hit."""
    raised = []

    def failing_heartbeat(self, now):
        if len(raised) < 40:
            raised.append(len(raised) + 1)
            raise RuntimeError(f"loop error {len(raised)}")

    monkeypatch.setattr(SelectionService, "_heartbeat", failing_heartbeat)
    with SelectionService({"bench": bench_grammar()}, tmp_path, _config()) as svc:
        deadline = time.monotonic() + 10.0
        while len(raised) < 40:
            assert time.monotonic() < deadline, f"only {len(raised)} loop errors"
            time.sleep(0.01)
        assert svc.select("bench", build_flat_forest(), wait_s=30.0).ok
        errors = svc.stats()["service"]["loop_errors"]
    assert len(errors) == 32
    assert errors[0] == "RuntimeError: loop error 9"
    assert errors[-1] == "RuntimeError: loop error 40"


def test_the_event_loop_builds_no_selector_per_tick(tmp_path, monkeypatch):
    """The loop waits on the service's one selector and reads a ready
    pipe once: a burst runs without ``multiprocessing.connection.wait``
    and without ``Connection.poll``, each of which builds a selector
    per call.  Both come back before ``stop()``: ``Process.join`` waits
    through ``wait``."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the event loop built a selector")

    with SelectionService({"bench": bench_grammar()}, tmp_path, _config()) as svc:
        with monkeypatch.context() as patch:
            patch.setattr(mpconnection, "wait", forbidden)
            patch.setattr(mpconnection.Connection, "poll", forbidden)
            futures = [svc.submit("bench", f) for f in _forests(seed=5, n=24)]
            responses = [f.result(10.0) for f in futures]
            service = svc.stats()["service"]
    assert all(r.ok for r in responses), [r.as_row() for r in responses if not r.ok]
    assert service["loop_errors"] == []


# ----------------------------------------------------------------------
# On-demand start-up: nothing is built before a tenant's first request


def _start_up_tenants():
    return {
        "bench": (bench_grammar, random_forests(17, forests=1, statements=6)[0]),
        "dyn": (dynamic_bench_grammar, dynamic_constraint_forests(17, forests=1)[0]),
    }


def test_started_service_builds_nothing_up_front(tmp_path, monkeypatch):
    """Neither the parent nor a worker compiles tables or writes the
    cache directory; workers label each tenant's first batch on demand
    and answer exactly what an in-process on-demand selector does."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    builds = tmp_path / "eager-builds.txt"
    build_eager = OnDemandAutomaton.build_eager

    def counted_build_eager(self, *args, **kwargs):
        # Appended by whichever process builds: workers inherit the
        # patch at fork and share the file.
        with open(builds, "a", encoding="ascii") as out:
            out.write(f"{os.getpid()}\n")
        return build_eager(self, *args, **kwargs)

    monkeypatch.setattr(OnDemandAutomaton, "build_eager", counted_build_eager)
    tenants = _start_up_tenants()
    grammars = {name: factory() for name, (factory, _) in tenants.items()}
    with SelectionService(
        grammars, str(cache_dir), _config(), context_factory=EmitContext
    ) as svc:
        responses = {
            name: svc.select(name, forest, wait_s=30.0)
            for name, (_, forest) in tenants.items()
        }
    for name, (factory, forest) in tenants.items():
        assert responses[name].ok, responses[name].as_row()
        expected = Selector(factory()).select(forest, context=EmitContext())
        assert responses[name].value == expected.values
    assert list(cache_dir.iterdir()) == []  # no .rsel, no .bad, no temp file
    assert not builds.exists()
    # The counter does see a build when one runs.
    Selector(bench_grammar(), mode="eager")
    assert builds.read_text().splitlines() == [str(os.getpid())]


class _SlowFirstCall:
    """A constraint that sleeps before its first call in each process."""

    def __init__(self, inner, sleep_s: float) -> None:
        self.inner = inner
        self.sleep_s = sleep_s
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.sleep_s)
        return self.inner(*args)


def test_deadline_bounds_a_cold_tenants_first_batch(tmp_path):
    """A cold tenant's first batch builds its states inside the label
    walk, so the request deadline bounds it: the walk's strided check
    resolves the request as a typed ``deadline`` response, and the
    worker serves the tenant's next request ``ok``."""
    grammar = dynamic_bench_grammar()
    rule = next(r for r in grammar.rules if r.constraint is not None)
    rule.constraint = _SlowFirstCall(rule.constraint, sleep_s=0.4)
    [forest] = dynamic_constraint_forests(23, forests=1, statements=40)
    assert forest.node_count() > 4 * 64  # many strided checks follow the sleep
    with SelectionService({"dyn": grammar}, tmp_path, _config()) as svc:
        first = svc.select("dyn", forest, timeout_s=0.1, wait_s=30.0)
        assert first.status == "deadline", first.as_row()
        assert isinstance(first.error, DeadlineExceededError)
        assert "during label" in str(first.error)
        second = svc.select("dyn", forest, wait_s=30.0)
        assert second.ok, second.as_row()
        service = svc.stats()["service"]
        assert service["deadline_failures"] == 1
        assert service["outstanding"] == 0
        assert service["supervisor"]["kills_total"] == 0
    expected = Selector(dynamic_bench_grammar()).select(forest)
    assert second.value == expected.values


# ----------------------------------------------------------------------
# The wire: forests cross the worker pipe as pickled batch messages

CALLERBENCH = Path(__file__).resolve().parents[1] / "callerbench"


def _across_the_pipe(obj):
    """*obj* after the trip a batch makes: encoded, then ``recv``'s loads."""
    [(_, copy)] = pickle.loads(
        encode_batch(Batch("t", [SimpleNamespace(request_id=1, forest=obj)], None))
    )[2]
    return copy


def _twins(originals: list[Forest], copies: list[Forest]) -> dict[int, Node]:
    """Map every original node (by ``id``) to its copy, checking as it
    goes that each copy matches its original and that an original
    reached twice maps to the same copy both times."""
    twin: dict[int, Node] = {}
    stack = [
        (a, b)
        for orig, copy in zip(originals, copies, strict=True)
        for a, b in zip(orig.roots, copy.roots, strict=True)
    ]
    while stack:
        a, b = stack.pop()
        if id(a) in twin:
            assert twin[id(a)] is b
            continue
        assert a is not b and b.op == a.op
        assert (b.nid, b.value, len(b.kids)) == (a.nid, a.value, len(a.kids))
        twin[id(a)] = b
        stack.extend(zip(a.kids, b.kids))
    return twin


def _hand_built_dag() -> Forest:
    """A DAG of hand-built nodes: every nid is ``-1``, so only object
    identity tells the shared address from a copy of it."""
    ops = DEFAULT_OPERATORS
    shared = Node(ops["ADD"], (Node(ops["REG"], value=1), Node(ops["CNST"], value=4)))
    load = Node(ops["LOAD"], (shared,))
    return Forest(
        [
            Node(ops["EXPR"], (load,)),
            Node(ops["STORE"], (shared, Node(ops["ADD"], (load, Node(ops["REG"], value=2))))),
        ],
        name="hand-built dag",
    )


def test_pickled_forests_keep_sharing_nids_payloads_and_operators():
    b = NodeBuilder()
    shared = b.add(b.reg(1), b.cnst(4))
    first = Forest([b.expr(b.load(shared)), b.store(shared, b.reg(("r", 7)))], name="first")
    second = Forest([b.expr(shared)], name="second")  # shares `shared` with first
    originals = [first, second, _hand_built_dag()]

    copies = _across_the_pipe(originals)

    assert [f.name for f in copies] == [f.name for f in originals]
    twin = _twins(originals, copies)
    # One copy per distinct node: sharing inside a forest and across
    # the forests of one message survives, and nothing else is merged.
    distinct = {id(n) for f in originals for n in f.nodes()}
    assert len(twin) == len(distinct) == len({id(n) for n in twin.values()})
    assert copies[0].roots[0].kids[0].kids[0] is copies[0].roots[1].kids[0]
    assert copies[1].roots[0].kids[0] is copies[0].roots[1].kids[0]
    assert copies[0].roots[1].kids[1].value == ("r", 7)
    assert {n.nid for n in copies[2].nodes()} == {-1}
    assert all(n.nid >= 0 for f in copies[:2] for n in f.nodes())


def test_service_matches_the_oracle_on_a_hand_built_dag(tmp_path):
    """The shared address is emitted once only if it arrives as one
    object: a copy per parent would cost its own register."""
    oracle = Selector(
        bench_grammar(), mode="dp", config=SelectorConfig(emitter="reducer")
    ).select(_hand_built_dag(), context=EmitContext())
    with SelectionService(
        {"bench": bench_grammar()}, tmp_path, _config(), context_factory=EmitContext
    ) as svc:
        response = svc.select("bench", _hand_built_dag(), wait_s=30.0)
    assert response.ok, response.as_row()
    assert response.value == oracle.values


def _too_deep_forest(depth: int = 1000) -> Forest:
    b = NodeBuilder()
    value = b.reg(0)
    for _ in range(depth):
        value = b.neg(value)
    return Forest([b.expr(value)], name="too deep")


def _locked_forest() -> Forest:
    b = NodeBuilder()
    return Forest([b.expr(b.cnst(threading.Lock()))], name="locked")


def _refuse_to_load():
    raise ValueError("this payload cannot be unpickled")


class _Unloadable:
    """A payload that pickles, but whose unpickling raises."""

    def __reduce__(self):
        return _refuse_to_load, ()


def _unloadable_forest() -> Forest:
    b = NodeBuilder()
    return Forest([b.expr(b.cnst(_Unloadable()))], name="unloadable")


@pytest.mark.parametrize("build_bad", [_locked_forest, _too_deep_forest, _unloadable_forest])
def test_unencodable_forest_fails_alone(tmp_path, build_bad):
    """One forest that cannot cross the pipe (it fails to pickle here,
    or to unpickle in the worker), coalesced with three good ones, fails
    typed on its own; the worker lives and serves the rest."""
    slow = bench_grammar()
    poison_action(_stmt_rule(slow), latency_s=0.2)
    tenants = {"bench": bench_grammar(), "slow": slow}
    with SelectionService(tenants, tmp_path, _config()) as svc:
        assert svc.select("bench", build_flat_forest(), wait_s=30.0).ok  # warm
        # Occupy the one worker so the next four coalesce into one batch.
        blocker = svc.submit("slow", build_flat_forest())
        deadline = time.monotonic() + 10.0
        while not any(h.batch is not None for h in svc.supervisor.handles):
            assert time.monotonic() < deadline, "the blocker never went in flight"
            time.sleep(0.002)
        futures = [svc.submit("bench", build_flat_forest()) for _ in range(3)]
        futures.insert(2, svc.submit("bench", build_bad()))
        assert blocker.result(30.0).ok
        released = time.monotonic()
        responses = [f.result(30.0) for f in futures]
        stall_s = time.monotonic() - released
        service = svc.stats()["service"]

    assert [r.status for r in responses] == ["ok", "ok", "failure", "ok"]
    assert isinstance(responses[2].error, RequestEncodeError)
    assert responses[2].attempts == 0 and responses[2].re_dispatches == 0
    assert all(r.re_dispatches == 0 for r in responses)
    assert service["batches"] == 4  # warm, blocker, the four, the three again
    assert service["re_dispatches"] == 0
    assert service["supervisor"]["restarts_total"] == 0
    assert service["loop_errors"] == []
    # A fake death would join the live worker for 0.5 s each round.
    assert stall_s < 0.4, stall_s


def test_a_coalesced_request_never_ends_on_a_neighbours_deadline(tmp_path):
    """A coalesced batch runs under its earliest request deadline.  When
    that one passes mid-batch, the request whose own deadline has not
    passed goes back to the queue and runs again: it ends ``ok``, not
    ``deadline`` on its neighbour's."""
    slow = bench_grammar()
    poison_action(_stmt_rule(slow), latency_s=0.01)
    with SelectionService({"slow": slow}, tmp_path, _config()) as svc:
        assert svc.select("slow", _statements(range(1)), wait_s=30.0).ok  # warm
        # Occupy the one worker so the next two coalesce into one batch.
        blocker = svc.submit("slow", _statements(range(20)))
        deadline = time.monotonic() + 10.0
        while not any(h.batch is not None for h in svc.supervisor.handles):
            assert time.monotonic() < deadline, "the blocker never went in flight"
            time.sleep(0.002)
        short = svc.submit("slow", _statements(range(80)), timeout_s=0.3)
        long = svc.submit("slow", _statements(range(2)), timeout_s=30.0)
        responses = [f.result(30.0) for f in (blocker, short, long)]
        service = svc.stats()["service"]

    assert [r.status for r in responses] == ["ok", "deadline", "ok"], [
        r.as_row() for r in responses
    ]
    assert responses[2].attempts == 0 and responses[2].re_dispatches == 0
    assert service["batches"] == 4  # warm, blocker, the pair, the long one again
    assert service["retries"] == service["re_dispatches"] == 0
    assert service["loop_errors"] == []


def test_batch_messages_of_the_service_pool_stay_compact(monkeypatch):
    """Size gate: a batch message of ``service_pool(1)``'s forests costs
    at most 20 bytes per node (30 with the default slot pickling, about
    16 with the node reduction).  Bytes, not time: deterministic."""
    spec = importlib.util.spec_from_file_location(
        "callerbench_inputs", CALLERBENCH / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)

    size = nodes = 0
    for tenant, forests in inputs.service_pool(1).items():
        for start in range(0, len(forests), MAX_BATCH):
            chunk = forests[start : start + MAX_BATCH]
            requests = [SimpleNamespace(request_id=i, forest=f) for i, f in enumerate(chunk)]
            size += len(encode_batch(Batch(tenant, requests, None)))
            nodes += sum(f.node_count() for f in chunk)
    assert size / nodes <= 20, f"{size / nodes:.1f} bytes per node"
