"""The chaos suite: systematic fault injection against the resilience layer.

Three contracts are exercised, each differentially against a clean run:

* **Isolation** — ``select_many(on_error="isolate")`` contains a
  faulted forest as a structured :class:`SelectionFailure` (correct
  phase, node provenance) while every non-faulted forest produces
  *exactly* the values a clean batch would, and the resilience
  counters match the injected fault counts.
* **Typed artifact failures** — every artifact failure (missing,
  unreadable, truncated, corrupted, malformed header, stale) makes
  ``load()`` raise its :class:`ArtifactError` subclass, never a
  ``KeyError``/``TypeError``, and leaves the file as it is.
* **Crash safety** — ``save()`` killed after *every* write-syscall
  boundary never leaves a partial artifact at the target path, and
  strictly-partial temp files are rejected by ``load()``.

The seed honors ``REPRO_CHAOS_SEED`` so CI can run a seed matrix.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from conftest import DYNAMIC_TEXT, echo_batch, mul_cost, small_const
from repro.bench.workloads import (
    EmitContext,
    bench_grammar,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    recurring_shape_stream,
    reduce_heavy_forests,
    shared_reduction_forests,
)
from repro.errors import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactIOError,
    ArtifactStaleError,
    SelectorError,
)
from repro.grammar import parse_grammar
from repro.ir import Forest, ForestValidationError, Node, NodeBuilder, OperatorSet
from repro.selection import (
    EMITTERS,
    ON_ERROR_POLICIES,
    SelectionFailure,
    Selector,
    SelectorConfig,
    extract_cover,
)
from repro.selection import selector as selector_module
from repro.selection.selector import read_artifact_header
from repro.testing import (
    FaultyCallable,
    InjectedFault,
    SimulatedCrash,
    artifact_io_faults,
    corrupt_bytes,
    poison_action,
    poison_constraint,
    truncate_bytes,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "42"))

# A normal-form-only grammar: the automaton's normalized grammar copies
# these rule objects' callables verbatim, so poisoning a rule before the
# selector is built poisons exactly the rule the engine runs.
CHAOS_TEXT = """
%grammar chaos
%start stmt

stmt: EXPR(reg)      (0)
reg:  REG            (0)
reg:  con            (1)
reg:  ADD(reg, reg)  (1)
reg:  SUB(reg, reg)  (2)
reg:  MUL(reg, reg)  (3)
con:  CNST           (0)
"""


def _pure_action(lhs: str, pattern: str):
    """A deterministic, context-free emission action.

    Values depend only on the rule and the node's shape — never on nids
    or emit-context state — so values from independently built
    selectors compare equal (the differential-testing invariant).
    """

    def action(context, node, operands):
        return (lhs, pattern, node.op.name, node.value, tuple(operands))

    return action


def _chaos_grammar():
    grammar = parse_grammar(CHAOS_TEXT)
    for rule in grammar.rules:
        rule.action = _pure_action(rule.lhs, str(rule.pattern))
    return grammar


def _rule(grammar, lhs: str, fragment: str):
    return next(
        r for r in grammar.rules if r.lhs == lhs and fragment in str(r.pattern)
    )


def _chaos_forests() -> list[Forest]:
    b = NodeBuilder()
    f0 = Forest(name="f0")
    f0.add(b.expr(b.add(b.reg(1), b.cnst(4))))
    f1 = Forest(name="f1")
    f1.add(b.expr(b.mul(b.reg(1), b.reg(2))))
    f2 = Forest(name="f2")  # the only forest containing SUB
    f2.add(b.expr(b.sub(b.reg(3), b.cnst(7))))
    f3 = Forest(name="f3")
    f3.add(b.expr(b.add(b.add(b.reg(1), b.reg(2)), b.cnst(3))))
    return [f0, f1, f2, f3]


def _chaos_dag_forests() -> list[Forest]:
    """The chaos forests with DAG sharing, seeded by ``REPRO_CHAOS_SEED``:
    f2's SUB and f3's ADD take operands f0 and f1 already hold, so the
    batch is no tree and emits through the tape's slot walk (the tree
    forests above take its tree walk)."""
    rng = random.Random(CHAOS_SEED)
    b = NodeBuilder()
    pool = [b.add(b.reg(1), b.cnst(4)), b.mul(b.reg(1), b.reg(2))]
    f0 = Forest(name="f0")
    f0.add(b.expr(pool[0]))
    f1 = Forest(name="f1")
    f1.add(b.expr(pool[1]))
    f2 = Forest(name="f2")  # the only forest containing SUB
    f2.add(b.expr(b.sub(rng.choice(pool), b.cnst(7))))
    f3 = Forest(name="f3")
    f3.add(b.expr(b.add(rng.choice(pool), rng.choice([pool[0], b.cnst(3)]))))
    return [f0, f1, f2, f3]


def _dynamic_grammar():
    grammar = parse_grammar(
        DYNAMIC_TEXT, bindings={"small": small_const, "mulcost": mul_cost}
    )
    for rule in grammar.rules:
        rule.action = _pure_action(rule.lhs, str(rule.pattern))
    return grammar


def _dynamic_forests() -> list[Forest]:
    b = NodeBuilder()
    g0 = Forest(name="g0")
    g0.add(b.expr(b.add(b.cnst(3), b.cnst(200))))
    g1 = Forest(name="g1")  # the only forest containing CNST 13
    g1.add(b.expr(b.add(b.cnst(13), b.reg(1))))
    g2 = Forest(name="g2")
    g2.add(b.expr(b.mul(b.reg(1), b.cnst(4))))
    return [g0, g1, g2]


def _imm4_wrapped_grammar(wrap):
    """``dynamic_bench_grammar`` with its ``imm4`` constraint replaced
    by ``wrap(constraint)``, shared by every ``imm4`` rule."""
    grammar = dynamic_bench_grammar()
    imm4 = [r for r in grammar.rules if r.constraint_name == "imm4"]
    shared = wrap(imm4[0].constraint)
    for rule in imm4:
        rule.constraint = shared
    return grammar, shared


def _phase_fault(phase: str):
    """A fresh selector and batch with one fault that fires in *phase*.

    Returns ``(selector, forests, exception type, fault)``; *fault*
    counts firings (``None`` for the validator's structural error).
    """
    if phase == "validate":
        sel = Selector(_chaos_grammar(), config=SelectorConfig(validate=True))
        foreign = OperatorSet(name="foreign")
        vec = foreign.define("VECADD", 2)
        b = NodeBuilder()
        bad = Forest(name="bad")
        bad.add(b.expr(Node(vec, [b.reg(1), b.reg(2)])))
        return sel, [_chaos_forests()[0], bad], ForestValidationError, None
    if phase == "label":
        grammar = _dynamic_grammar()
        constrained = next(r for r in grammar.rules if r.constraint is not None)
        fault, _ = poison_constraint(constrained, predicate=lambda node: node.value == 13)
        return Selector(grammar), _dynamic_forests(), InjectedFault, fault
    assert phase == "reduce"
    grammar = _chaos_grammar()
    fault, _ = poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
    return Selector(grammar), _chaos_forests(), InjectedFault, fault


# ----------------------------------------------------------------------
# Fault isolation: on_error="isolate"


class TestIsolation:
    def test_unknown_policy_is_rejected(self):
        sel = Selector(_chaos_grammar())
        with pytest.raises(ValueError, match="unknown on_error policy"):
            sel.select_many(_chaos_forests(), on_error="retry")

    @pytest.mark.parametrize("phase", ["validate", "label", "reduce"])
    def test_raise_policy_propagates(self, phase):
        sel, forests, error, fault = _phase_fault(phase)
        with pytest.raises(error):
            sel.select_many(forests)
        if fault is not None:
            assert fault.faults == 1
        resilience = sel.stats()["resilience"]
        assert resilience["isolated_failures"] == 0
        assert sum(resilience["failures_by_phase"].values()) == 0

    @pytest.mark.parametrize("mode", ["ondemand", "dp", "eager"])
    def test_reduce_fault_is_isolated_differentially(self, mode):
        clean_values = (
            Selector(_chaos_grammar(), mode="ondemand")
            .select_many(_chaos_forests())
            .values
        )

        grammar = _chaos_grammar()
        fault, _ = poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
        sel = Selector(grammar, mode="ondemand" if mode == "eager" else mode)
        if mode == "eager":
            sel.compile()
        result = sel.select_many(_chaos_forests(), on_error="isolate")

        failure = result.values[2]
        assert isinstance(failure, SelectionFailure)
        assert failure.phase == "reduce"
        assert failure.index == 2
        assert failure.forest == "f2"
        assert failure.error_type == "InjectedFault"
        assert failure.node is not None and failure.node.startswith("SUB(")
        assert failure.roots_completed == 0
        assert "SUB(" in repr(failure)
        assert failure.as_row()["phase"] == "reduce"
        # Every non-faulted forest matches the clean batch exactly.
        for index in (0, 1, 3):
            assert result.values[index] == clean_values[index]
        assert result.failures == [failure]
        # Counters match the injected fault counts exactly.
        assert fault.faults == 1
        assert result.report.failures == 1
        resilience = sel.stats()["resilience"]
        assert resilience["isolated_failures"] == 1
        assert resilience["failures_by_phase"] == {
            "validate": 0, "label": 0, "reduce": 1,
        }

    @pytest.mark.parametrize("mode", ["ondemand", "dp", "eager"])
    def test_reduce_fault_in_a_dag_batch_is_isolated_differentially(self, mode):
        """The contract above over the DAG-sharing chaos forests: the tape
        emits them through its slot walk, and the tree forests above
        through its tree walk, so every chaos seed runs both."""
        assert Selector(_chaos_grammar()).label_many(_chaos_forests()).tree
        clean_values = Selector(_chaos_grammar()).select_many(_chaos_dag_forests()).values

        grammar = _chaos_grammar()
        fault, _ = poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
        sel = Selector(grammar, mode="ondemand" if mode == "eager" else mode)
        if mode == "eager":
            sel.compile()
        result = sel.select_many(_chaos_dag_forests(), on_error="isolate")
        if mode != "dp":
            assert not result.labeling.tree
        [failure] = result.failures
        assert (failure.index, failure.phase, failure.roots_completed) == (2, "reduce", 0)
        assert failure.node is not None and failure.node.startswith("SUB(")
        for index in (0, 1, 3):
            assert result.values[index] == clean_values[index]
        assert fault.faults == 1
        assert sel.stats()["resilience"]["failures_by_phase"] == {
            "validate": 0, "label": 0, "reduce": 1,
        }

    def test_reduce_fault_rolls_back_shared_memo(self):
        # fB reuses a subtree that the faulted fA already reduced; its
        # memo entries were rolled back, so fB must recompute them and
        # land on exactly the values of a standalone clean run.
        def shared_forests():
            b = NodeBuilder()
            shared = b.add(b.reg(1), b.cnst(4))
            fa = Forest(name="fA")
            fa.add(b.expr(shared))
            fa.add(b.expr(b.sub(shared, b.reg(2))))
            fb = Forest(name="fB")
            fb.add(b.expr(b.add(shared, b.reg(3))))
            return [fa, fb]

        for emitter in EMITTERS:
            grammar = _chaos_grammar()
            fault, _ = poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
            sel = Selector(grammar, config=SelectorConfig(emitter=emitter))
            result = sel.select_many(shared_forests(), on_error="isolate")

            failure = result.values[0]
            assert isinstance(failure, SelectionFailure)
            assert failure.phase == "reduce"
            assert failure.roots_completed == 1  # first root finished before the fault
            clean = Selector(_chaos_grammar()).select_many([shared_forests()[1]])
            assert result.values[1] == clean.values[0]
            # fB re-lays the rolled-back shared entries, so it pays for them.
            assert result.report.cover_cost == clean.report.cover_cost
            assert fault.faults == 1

    def test_label_fault_is_isolated_differentially(self):
        clean_values = Selector(_dynamic_grammar()).select_many(_dynamic_forests()).values

        grammar = _dynamic_grammar()
        constrained = next(r for r in grammar.rules if r.constraint is not None)
        fault, _ = poison_constraint(
            constrained, predicate=lambda node: node.value == 13
        )
        sel = Selector(grammar)
        forests = _dynamic_forests()
        result = sel.select_many(forests, on_error="isolate")

        failure = result.values[1]
        assert isinstance(failure, SelectionFailure)
        assert failure.phase == "label"
        assert failure.forest == "g1"
        assert failure.error_type == "InjectedFault"
        assert failure.node is not None and failure.node.startswith("CNST(")
        for index in (0, 2):
            assert result.values[index] == clean_values[index]
        # The survivors are labeled again in one batch: one labeling
        # covers them all, and the report counts it like a clean batch.
        clean = Selector(_dynamic_grammar()).select_many(_dynamic_forests()[0::2])
        for forest in (forests[0], forests[2]):
            extract_cover(result.labeling, forest)  # raises on a missing node
        assert result.report.nodes == clean.report.nodes
        assert result.report.cover_cost == clean.report.cover_cost
        # The batch label faults once, then the per-forest probe of g1
        # faults again; the survivors' re-label never reaches g1.
        assert fault.faults == 2
        resilience = sel.stats()["resilience"]
        assert resilience["isolated_failures"] == 1
        assert resilience["failures_by_phase"]["label"] == 1

    def test_validate_fault_is_isolated(self):
        grammar = _chaos_grammar()
        sel = Selector(grammar, config=SelectorConfig(validate=True))
        foreign = OperatorSet(name="foreign")
        vec = foreign.define("VECADD", 2)
        b = NodeBuilder()
        good = Forest(name="good")
        good.add(b.expr(b.add(b.reg(1), b.cnst(4))))
        bad = Forest(name="bad")
        bad.add(b.expr(Node(vec, [b.reg(1), b.reg(2)])))

        with pytest.raises(ForestValidationError):
            sel.select_many([good, bad])

        result = sel.select_many([good, bad], on_error="isolate")
        failure = result.values[1]
        assert isinstance(failure, SelectionFailure)
        assert failure.phase == "validate"
        assert failure.error_type == "ForestValidationError"
        clean = Selector(_chaos_grammar()).select_many([_chaos_forests()[0]])
        assert result.values[0] == clean.values[0]
        assert sel.stats()["resilience"]["failures_by_phase"]["validate"] == 1

    def test_single_forest_select_isolates(self):
        grammar = _chaos_grammar()
        fault, _ = poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
        sel = Selector(grammar)
        b = NodeBuilder()
        forest = Forest(name="solo")
        forest.add(b.expr(b.sub(b.reg(1), b.reg(2))))
        result = sel.select(forest, on_error="isolate")
        assert isinstance(result.values, SelectionFailure)
        assert result.values.phase == "reduce"
        assert fault.faults == 1

    def test_isolate_policy_without_cover_collection(self):
        grammar = _chaos_grammar()
        poison_action(_rule(grammar, "reg", "SUB"), on_call=1)
        result = Selector(grammar).select_many(
            _chaos_forests(), on_error="isolate", collect_cover=False
        )
        assert isinstance(result.values[2], SelectionFailure)
        assert [i for i, v in enumerate(result.values) if isinstance(v, SelectionFailure)] == [2]

    def test_simulated_crash_is_never_isolated(self):
        grammar = _chaos_grammar()
        poison_action(
            _rule(grammar, "reg", "SUB"),
            on_call=1,
            exc_factory=lambda: SimulatedCrash("process death"),
        )
        sel = Selector(grammar)
        with pytest.raises(SimulatedCrash):
            sel.select_many(_chaos_forests(), on_error="isolate")
        assert sel.stats()["resilience"]["isolated_failures"] == 0

    def test_label_fault_survivors_sharing_a_node_emit_it_once(self):
        """Two survivors sharing a subtree emit it once, as on the happy
        path: same values, ``memo_hits`` and ``cover_cost`` as a clean
        batch of the survivors alone."""

        def batch():
            b = NodeBuilder()
            shared = b.mul(b.reg(1), b.cnst(4))
            g0 = Forest(name="g0")
            g0.add(b.expr(shared))
            g1 = Forest(name="g1")  # the only forest containing CNST 13
            g1.add(b.expr(b.add(b.cnst(13), b.reg(1))))
            g2 = Forest(name="g2")
            g2.add(b.expr(b.add(shared, b.reg(2))))
            return [g0, g1, g2]

        forests = batch()
        for emitter in EMITTERS:
            grammar = _dynamic_grammar()
            constrained = next(r for r in grammar.rules if r.constraint is not None)
            poison_constraint(constrained, predicate=lambda node: node.value == 13)
            sel = Selector(grammar, config=SelectorConfig(emitter=emitter))
            result = sel.select_many(forests, on_error="isolate")
            assert [failure.index for failure in result.failures] == [1]
            clean = Selector(
                _dynamic_grammar(), config=SelectorConfig(emitter=emitter)
            ).select_many(batch()[0::2])
            assert [result.values[0], result.values[2]] == clean.values
            assert result.report.memo_hits == clean.report.memo_hits > 0
            assert result.report.reductions == clean.report.reductions
            assert result.report.cover_cost == clean.report.cover_cost
            for forest in (forests[0], forests[2]):
                extract_cover(result.labeling, forest)

    def test_a_second_label_fault_fails_every_survivor(self, monkeypatch):
        """A fault in the survivors' fused re-label (here: a labeler
        that faults on the batch and again on the re-label, whatever the
        forests) blames no single forest: every survivor fails with it
        under ``phase="label"``, and the batch still returns."""
        sel = Selector(_dynamic_grammar())
        forests = _dynamic_forests()
        real = sel.engine.label_many
        calls: list[int] = []

        def flaky(batch, metrics=None, *, deadline_at_ns=None):
            calls.append(len(batch))
            # Call 1: the fused batch; 2..n+1: the probes; n+2: the re-label.
            if len(calls) in (1, len(forests) + 2):
                raise InjectedFault(f"label_many call {len(calls)}")
            return real(batch, metrics, deadline_at_ns=deadline_at_ns)

        monkeypatch.setattr(sel.engine, "label_many", flaky)
        result = sel.select_many(forests, on_error="isolate")
        assert calls[: len(forests) + 2] == [3, 1, 1, 1, 3]
        assert [failure.index for failure in result.failures] == [0, 1, 2]
        assert all(failure.phase == "label" for failure in result.failures)
        assert all(
            str(failure.error) == f"label_many call {len(forests) + 2}"
            for failure in result.failures
        )
        assert result.report.nodes == 0
        assert result.report.cover_cost == 0
        assert sel.stats()["resilience"]["failures_by_phase"]["label"] == 3

    def test_costing_calls_no_constraint_again(self):
        """The cover cost comes from the emitting walk, which adds a
        constraint rule's fixed cost: ``select_many`` calls the ``imm4``
        constraint exactly as often as labeling the batch does, even
        when a forest shares nodes with an earlier one."""
        counts = {}
        for run in ("select", "label"):
            grammar, counter = _imm4_wrapped_grammar(
                lambda fn: FaultyCallable(fn, predicate=lambda node: False)
            )
            sel = Selector(grammar)
            if run == "select":
                result = sel.select_many(echo_batch())
            else:
                sel.label_many(echo_batch())
            counts[run] = counter.calls
        assert counts["select"] == counts["label"] > 0
        assert result.report.cover_cost == 350


#: The recurring, fresh (reduce-heavy and shared-reduction) and dynamic
#: workload families, as ``(name, grammar factory, forest factory)``.
POLICY_FAMILIES = [
    ("recurring", bench_grammar, lambda: recurring_shape_stream(81, shapes=3, length=10, statements=5, max_depth=4)),
    ("reduce_heavy", emit_bench_grammar, lambda: reduce_heavy_forests(82, forests=4, statements=6, max_depth=4)),
    ("shared_reduction", emit_bench_grammar, lambda: shared_reduction_forests(83, forests=4, statements=8, shared=4, max_depth=4)),
    ("dynamic", dynamic_bench_grammar, lambda: dynamic_constraint_forests(84, forests=4, statements=6, max_depth=4)),
]


@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize(
    "name,make_grammar,make_forests", POLICY_FAMILIES, ids=[f[0] for f in POLICY_FAMILIES]
)
def test_policies_agree_on_the_happy_path(name, make_grammar, make_forests, emitter):
    """With nothing raising, ``"raise"`` and ``"isolate"`` are one
    pipeline: same values, instructions and report counters."""
    runs = {}
    for policy in ON_ERROR_POLICIES:
        sel = Selector(make_grammar(), config=SelectorConfig(emitter=emitter))
        context = EmitContext()
        result = sel.select_many(make_forests(), context=context, on_error=policy)
        runs[policy] = (result, context)
    (raised, raise_ctx), (isolated, isolate_ctx) = runs["raise"], runs["isolate"]
    assert isolated.values == raised.values
    assert isolate_ctx.instructions == raise_ctx.instructions
    fields = ("nodes", "cover_cost", "reductions", "memo_hits", "tapes_compiled", "tape_cache_hits")
    for field in fields:
        assert getattr(isolated.report, field) == getattr(raised.report, field), field
    assert raised.report.failures == isolated.report.failures == 0


# ----------------------------------------------------------------------
# Artifact failures: load() error taxonomy (the PR's load() bugfix)


class TestArtifactFailures:
    def test_roundtrip_sanity(self, tmp_path):
        grammar = _chaos_grammar()
        sel = Selector(grammar)
        sel.compile()
        path = sel.save(tmp_path / "chaos.rsel")
        loaded = Selector.load(path, grammar)
        assert loaded.mode == "eager"
        assert loaded.stats()["tables"]["eager"]["loaded_from"] == str(path)
        clean = sel.select_many(_chaos_forests())
        assert loaded.select_many(_chaos_forests()).values == clean.values

    def test_zero_length_artifact_is_a_selector_error(self, tmp_path):
        path = tmp_path / "empty.rsel"
        path.write_bytes(b"")
        with pytest.raises(ArtifactCorruptError, match="empty") as excinfo:
            Selector.load(path, _chaos_grammar())
        assert isinstance(excinfo.value, SelectorError)
        assert str(path) in str(excinfo.value)
        with pytest.raises(ArtifactCorruptError):
            read_artifact_header(path)

    def test_missing_artifact_is_io_error_with_cause(self, tmp_path):
        path = tmp_path / "nope.rsel"
        with pytest.raises(ArtifactIOError) as excinfo:
            Selector.load(path, _chaos_grammar())
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_unreadable_artifact_is_io_error_with_cause(self, tmp_path):
        grammar = _chaos_grammar()
        sel = Selector(grammar)
        path = sel.save(tmp_path / "chaos.rsel")
        with artifact_io_faults(fail_reads=1):
            with pytest.raises(ArtifactIOError) as excinfo:
                Selector.load(path, grammar)
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_truncated_artifact_is_corrupt(self, tmp_path):
        grammar = _chaos_grammar()
        path = Selector(grammar).save(tmp_path / "chaos.rsel")
        truncate_bytes(path, fraction=0.5)
        with pytest.raises(ArtifactCorruptError):
            Selector.load(path, grammar)

    def test_seeded_byte_flip_never_loads(self, tmp_path):
        grammar = _chaos_grammar()
        path = Selector(grammar).save(tmp_path / "chaos.rsel")
        offset = corrupt_bytes(path, seed=CHAOS_SEED)
        assert offset >= 0
        # Depending on where the flip lands (magic, header, fingerprint,
        # payload) a different subclass fires — but always ArtifactError.
        with pytest.raises(ArtifactError):
            Selector.load(path, grammar)

    def test_stale_fingerprint_is_rejected(self, tmp_path):
        grammar = _chaos_grammar()
        path = Selector(grammar).save(tmp_path / "chaos.rsel")
        other = parse_grammar(CHAOS_TEXT.replace("(3)", "(4)"))
        with pytest.raises(ArtifactStaleError, match="different grammar"):
            Selector.load(path, other)


def _malformed(case: str, header: dict) -> object:
    """A valid artifact header with one structural defect *case*."""
    sections = header["sections"]
    if case == "no_operators":
        del header["operators"]
    elif case == "no_section_items":
        del sections[0]["items"]
    elif case == "null_nonterminals":
        header["nonterminals"] = None
    elif case == "int_fingerprint":
        header["fingerprint"] = 7
    elif case == "negative_offset":
        sections[0]["offset"] = -8
    elif case == "offset_past_payload":
        sections[0]["offset"] = header["payload_len"]
    elif case == "foreign_state_index":
        header["operators"][0]["nullary"] = header["states"] + 5
    elif case == "not_an_object":
        return [header]
    return header


MALFORMED_CASES = [
    "no_operators",
    "no_section_items",
    "null_nonterminals",
    "int_fingerprint",
    "negative_offset",
    "offset_past_payload",
    "foreign_state_index",
    "not_an_object",
]


@pytest.mark.parametrize("case", MALFORMED_CASES)
def test_malformed_header_is_corrupt(tmp_path, case):
    """A header re-framed under valid magic, length and payload checksum
    but with a missing or ill-typed field, or a section or state index
    outside the payload, is corrupt: ``load`` raises
    :class:`ArtifactCorruptError` (never ``KeyError``/``TypeError``)."""
    grammar = _chaos_grammar()
    blob = Selector(grammar, mode="eager").save(tmp_path / "good.rsel").read_bytes()
    prefix = len(selector_module._MAGIC) + selector_module._HEADER_LEN_STRUCT.size
    (header_len,) = selector_module._HEADER_LEN_STRUCT.unpack_from(
        blob, len(selector_module._MAGIC)
    )
    header = _malformed(case, json.loads(blob[prefix : prefix + header_len]))
    data = json.dumps(header).encode("utf-8")
    path = tmp_path / f"{case}.rsel"
    path.write_bytes(
        selector_module._MAGIC
        + selector_module._HEADER_LEN_STRUCT.pack(len(data))
        + data
        + blob[prefix + header_len :]
    )

    with pytest.raises(ArtifactCorruptError):
        Selector.load(path, grammar)


# ----------------------------------------------------------------------
# Crash-safe atomic save: kill after every write-syscall boundary


class TestAtomicSaveCrashMatrix:
    def test_crash_after_every_write_step(self, tmp_path, monkeypatch):
        # Small chunks → several write boundaries even for a small blob.
        monkeypatch.setattr(selector_module, "_IO_CHUNK", 512)
        grammar = _chaos_grammar()
        sel = Selector(grammar)
        sel.compile()

        clean_target = tmp_path / "clean.rsel"
        with artifact_io_faults() as counters:
            sel.save(clean_target)
        total = counters.write_steps
        chunk_writes = counters.write
        blob_len = clean_target.stat().st_size
        assert total == chunk_writes + 3  # open + writes + fsync + rename
        assert chunk_writes >= 2

        for step in range(1, total + 1):
            target = tmp_path / f"crash_{step}.rsel"
            with pytest.raises(SimulatedCrash):
                with artifact_io_faults(crash_after_step=step):
                    sel.save(target)

            if step == total:
                # Crash after the rename: the artifact is fully published.
                assert target.exists()
                assert target.stat().st_size == blob_len
                Selector.load(target, grammar)
            else:
                # Atomicity: a reader can never observe a partial target.
                assert not target.exists()

            partials = sorted(tmp_path.glob(target.name + ".tmp.*"))
            if step < total:
                # Crash before the rename leaves the temp file behind,
                # exactly like real process death (no cleanup handler).
                assert len(partials) == 1
            for partial in partials:
                if partial.stat().st_size < blob_len:
                    # Strictly-partial bytes must be rejected by load().
                    assert step <= chunk_writes
                    with pytest.raises((ArtifactCorruptError, ArtifactIOError)):
                        Selector.load(partial, grammar)
                else:
                    # Crash between the last write and the rename: the
                    # temp file is complete and loads fine.
                    assert step > chunk_writes
                    Selector.load(partial, grammar)
                partial.unlink()

    def test_torn_legacy_write_is_corrupt(self, tmp_path):
        # A non-atomic writer dies mid-write, leaving partial bytes at
        # the artifact path itself: load must raise the typed error and
        # leave the bytes alone.
        grammar = _chaos_grammar()
        path = Selector(grammar).save(tmp_path / "chaos.rsel")
        truncate_bytes(path, fraction=0.3)
        partial = path.read_bytes()

        with pytest.raises(ArtifactCorruptError):
            Selector.load(path, grammar)
        assert path.read_bytes() == partial  # left as it is
