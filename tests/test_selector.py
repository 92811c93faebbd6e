"""The Selector facade: modes, AOT compile/save/load, wire format, CLI."""

from __future__ import annotations

import json
import sys

import pytest

from repro.bench import (
    EmitContext,
    bench_grammar,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    recurring_shape_stream,
)
from repro.errors import SelectorError
from repro.grammar import parse_grammar
from repro.metrics import LabelMetrics
from repro.selection import (
    DPLabeler,
    OnDemandAutomaton,
    Selector,
    extract_cover,
    grammar_fingerprint,
    label_dp,
)
from repro.selection.selector import main as selector_main
from repro.selection.selector import read_artifact_header


def _mixed_forests(seed: int):
    return (
        random_forests(seed, forests=2, statements=5, max_depth=4)
        + dag_heavy_forests(seed + 50, forests=2, statements=5, shared=4)
        + recurring_shape_stream(seed + 90, shapes=2, length=3, statements=4, max_depth=4)
    )


# ----------------------------------------------------------------------
# Modes and facade basics


def test_selector_modes_label_identically():
    grammar = bench_grammar()
    forests = _mixed_forests(3)
    selectors = {
        "dp": Selector(grammar, mode="dp"),
        "ondemand": Selector(grammar, mode="ondemand"),
        "eager": Selector(grammar, mode="eager"),
    }
    assert selectors["dp"].mode == "dp"
    assert selectors["ondemand"].mode == "ondemand"
    assert selectors["eager"].mode == "eager"
    assert isinstance(selectors["dp"].engine, DPLabeler)
    assert isinstance(selectors["eager"].engine, OnDemandAutomaton)
    for forest in forests:
        reference = extract_cover(label_dp(grammar, forest), forest).total_cost()
        for name, selector in selectors.items():
            labeling = selector.label(forest)
            assert extract_cover(labeling, forest).total_cost() == reference, name


def test_selector_select_and_select_many():
    grammar = emit_bench_grammar()
    forests = random_forests(11, forests=3, statements=4, max_depth=4)
    selector = Selector(grammar, mode="ondemand")

    context = EmitContext()
    batch = selector.select_many(forests, context=context)
    assert len(batch.values) == len(forests)
    assert batch.report.labeler == "ondemand"
    assert batch.report.cover_cost > 0
    assert context.instructions

    single = selector.select(forests[0], context=EmitContext())
    assert len(single.values) == len(forests[0].roots)

    skipped = selector.select(forests[0], context=EmitContext(), collect_cover=False)
    assert skipped.report.cover_cost is None


def test_selector_mode_errors_and_wrap():
    grammar = bench_grammar()
    with pytest.raises(ValueError, match="unknown selector mode"):
        Selector(grammar, mode="offline")
    with pytest.raises(SelectorError, match="needs a grammar"):
        Selector()
    with pytest.raises(TypeError, match="label_many"):
        Selector.wrap(object())
    with pytest.raises(SelectorError, match="only automaton modes"):
        Selector(grammar, mode="dp").compile()
    with pytest.raises(SelectorError, match="only automaton modes"):
        Selector(grammar, mode="dp").save("/tmp/never-written.rsel")

    automaton = OnDemandAutomaton(grammar)
    wrapped = Selector.wrap(automaton)
    assert wrapped.engine is automaton
    assert Selector.wrap(wrapped) is wrapped  # selector pass-through
    assert wrapped.grammar is grammar


def test_wrapped_label_many_only_engine_serves_label_and_select():
    """``wrap`` accepts any engine with ``label_many``; ``label`` must
    then work too, not only ``select_many``."""

    class BatchOnlyEngine:
        def __init__(self, grammar):
            self._automaton = OnDemandAutomaton(grammar)
            self.grammar = self._automaton.grammar
            self.source_grammar = grammar

        def label_many(self, forests, metrics=None, *, deadline_at_ns=None):
            return self._automaton.label_many(
                forests, metrics, deadline_at_ns=deadline_at_ns
            )

    grammar = emit_bench_grammar()
    forest = random_forests(5, forests=1, statements=4, max_depth=4)[0]
    selector = Selector.wrap(BatchOnlyEngine(grammar))
    metrics = LabelMetrics()
    labeling = selector.label(forest, metrics)
    reference = extract_cover(label_dp(grammar, forest), forest).total_cost()
    assert extract_cover(labeling, forest).total_cost() == reference
    assert metrics.nodes_labeled == forest.node_count()
    assert selector.select(forest, context=EmitContext()).report.cover_cost == reference


def test_compile_switches_mode_and_stats_unify_the_views():
    grammar = bench_grammar()
    selector = Selector(grammar)
    assert selector.mode == "ondemand"
    build = selector.compile()
    assert selector.mode == "eager"
    assert build["transitions"] > 0

    forests = random_forests(5, forests=2, statements=4, max_depth=4)
    metrics = LabelMetrics()
    selector.label_many(forests, metrics)
    selector.select_many(forests)

    stats = selector.stats()
    # Table sizes (automaton view) ...
    assert stats["tables"]["states"] > 0
    assert stats["tables"]["eager"]["transitions"] == build["transitions"]
    # ... AOT story ...
    assert stats["aot"]["compiled"] is True
    assert stats["aot"]["valid"] is True
    assert stats["aot"]["build_ns"] > 0
    assert stats["aot"]["fingerprint"] == grammar_fingerprint(grammar)
    # ... hit/warm rates from the metered labeling ...
    assert stats["labeling"]["hit_rate"] == 1.0
    assert stats["labeling"]["warm_fraction"] == 1.0
    assert stats["labeling"]["table_misses"] == 0
    # ... and per-phase selection nanoseconds.
    assert stats["selection"]["calls"] == 1
    assert stats["selection"]["label_ns"] >= 0
    assert stats["selection"]["reduce_ns"] > 0
    assert stats["selection"]["total_ns"] > 0
    assert stats["selection"]["last"]["labeler"] == "eager"

    dp_stats = Selector(grammar, mode="dp").stats()
    assert dp_stats["tables"] is None
    assert dp_stats["aot"]["compiled"] is False
    assert dp_stats["labeling"] is None


# ----------------------------------------------------------------------
# Save / load round trip


def test_save_load_roundtrip_randomized_differential_sweep(tmp_path):
    grammar = emit_bench_grammar()
    compiled = Selector(grammar, mode="eager")
    artifact = compiled.save(tmp_path / "emit.rsel")
    assert artifact.exists()

    loaded = Selector.load(artifact, emit_bench_grammar())
    assert loaded.mode == "eager"
    for seed in range(4):
        forests = _mixed_forests(seed)
        ctx_eager, ctx_loaded = EmitContext(), EmitContext()
        expected = compiled.select_many(forests, context=ctx_eager)
        observed = loaded.select_many(forests, context=ctx_loaded)
        assert observed.values == expected.values, seed
        assert ctx_loaded.instructions == ctx_eager.instructions, seed
        assert ctx_loaded.trace == ctx_eager.trace, seed
        assert observed.report.cover_cost == expected.report.cover_cost, seed
        for forest in forests:
            a = extract_cover(compiled.label(forest), forest)
            b = extract_cover(loaded.label(forest), forest)
            assert [e.rule.number for e in a.entries] == [e.rule.number for e in b.entries]


def test_loaded_selector_zero_misses_from_first_contact(tmp_path):
    grammar = bench_grammar()
    artifact = Selector(grammar, mode="eager").save(tmp_path / "bench.rsel")
    loaded = Selector.load(artifact, bench_grammar())
    metrics = LabelMetrics()
    loaded.label_many(_mixed_forests(7), metrics)
    assert metrics.table_lookups > 0
    assert metrics.table_misses == 0
    assert metrics.states_created == 0
    assert loaded.stats()["aot"]["loaded_from"] == str(artifact)
    assert loaded.stats()["aot"]["load_ns"] > 0


def test_save_load_constraint_grammar_signatures(tmp_path):
    """Constraint (restricted-dynamic) rules round-trip their enumerated
    signature tables: zero misses and DP-equal covers after load."""
    grammar = dynamic_bench_grammar()
    artifact = Selector(grammar, mode="eager").save(tmp_path / "dyn.rsel")
    loaded = Selector.load(artifact, dynamic_bench_grammar())
    forests = dynamic_constraint_forests(9, forests=3, statements=5, max_depth=4)
    metrics = LabelMetrics()
    labeling = loaded.label_many(forests, metrics)
    assert metrics.table_misses == 0
    for forest in forests:
        assert (
            extract_cover(labeling, forest).total_cost()
            == extract_cover(label_dp(grammar, forest), forest).total_cost()
        )


def test_load_rejects_mismatched_and_stale_grammars(tmp_path):
    artifact = Selector(bench_grammar(), mode="eager").save(tmp_path / "bench.rsel")
    # A different grammar is rejected outright.
    with pytest.raises(SelectorError, match="different grammar"):
        Selector.load(artifact, dynamic_bench_grammar())
    # A since-extended ("stale") grammar no longer fingerprints the same.
    extended = bench_grammar()
    extended.op_rule("reg", "LOAD", ["addr"], 0)
    with pytest.raises(SelectorError, match="different grammar"):
        Selector.load(artifact, extended)


def test_load_rejects_truncated_and_corrupt_artifacts(tmp_path):
    grammar = bench_grammar()
    artifact = Selector(grammar, mode="eager").save(tmp_path / "bench.rsel")
    blob = artifact.read_bytes()

    bad_magic = tmp_path / "magic.rsel"
    bad_magic.write_bytes(b"NOTSELXX" + blob[8:])
    with pytest.raises(SelectorError, match="bad magic"):
        Selector.load(bad_magic, grammar)

    for cut, message in ((10, "header"), (len(blob) // 2, "truncated"), (len(blob) - 7, "truncated")):
        truncated = tmp_path / f"cut{cut}.rsel"
        truncated.write_bytes(blob[:cut])
        with pytest.raises(SelectorError, match=message):
            Selector.load(truncated, grammar)

    corrupt = bytearray(blob)
    corrupt[-100] ^= 0xFF  # flip a payload byte: checksum must catch it
    corrupted = tmp_path / "corrupt.rsel"
    corrupted.write_bytes(bytes(corrupt))
    with pytest.raises(SelectorError, match="checksum"):
        Selector.load(corrupted, grammar)

    with pytest.raises(SelectorError, match="cannot read"):
        Selector.load(tmp_path / "missing.rsel", grammar)


def test_load_then_extend_invalidates_tables_and_stays_optimal(tmp_path):
    grammar = bench_grammar()
    artifact = Selector(grammar, mode="eager").save(tmp_path / "bench.rsel")
    live = bench_grammar()
    loaded = Selector.load(artifact, live)
    forests = random_forests(13, forests=3, statements=5, max_depth=4)

    cost_before = sum(
        extract_cover(loaded.label(forest), forest).total_cost() for forest in forests
    )
    assert loaded.stats()["aot"]["valid"] is True

    # JIT-style extension on the live grammar: free loads. The loaded
    # tables must be dropped, results must track
    # DP on the extended grammar, and covers must get cheaper.
    live.op_rule("reg", "LOAD", ["addr"], 0)
    assert loaded.stats()["aot"]["valid"] is False
    cost_after = 0
    for forest in forests:
        cover = extract_cover(loaded.label(forest), forest)
        assert (
            cover.total_cost()
            == extract_cover(label_dp(live, forest), forest).total_cost()
        )
        cost_after += cover.total_cost()
    assert cost_after < cost_before
    assert loaded.mode == "ondemand"  # eager tables died with the extension


def test_compiled_and_loaded_selectors_agree_with_dp(tmp_path):
    grammar = bench_grammar()
    compiled = Selector(grammar, mode="eager")
    artifact = compiled.save(tmp_path / "bench.rsel")
    loaded = Selector.load(artifact, bench_grammar())
    dp = Selector(grammar, mode="dp")

    for seed in range(3):
        for forest in _mixed_forests(seed + 30):
            reference = extract_cover(label_dp(grammar, forest), forest).total_cost()
            assert extract_cover(compiled.label(forest), forest).total_cost() == reference
            assert extract_cover(loaded.label(forest), forest).total_cost() == reference
    batch_forests = _mixed_forests(77)
    for selector in (compiled, loaded):
        batch = selector.label_many(batch_forests)
        for forest in batch_forests:
            assert (
                extract_cover(batch, forest).total_cost()
                == extract_cover(label_dp(grammar, forest), forest).total_cost()
            )
    select_forests = _mixed_forests(78)
    expected = dp.select_many(select_forests).report.cover_cost
    assert expected > 0
    assert compiled.select_many(select_forests).report.cover_cost == expected
    assert loaded.select_many(select_forests).report.cover_cost == expected


def test_eager_selector_labels_foreign_operator_to_no_derivation():
    """A dialect operator the grammar never mentions labels to the error
    state (no derivation) instead of crashing the eager selector."""
    from repro.ir import Forest, NodeBuilder

    grammar = parse_grammar(
        """
        %grammar tiny
        %start stmt
        stmt: EXPR(reg) (0)
        reg:  REG       (0)
        reg:  ADD(reg, reg) (1)
        reg:  CNST      (1)
        """
    )
    selector = Selector(grammar, mode="eager")
    b = NodeBuilder()
    # SUB appears in the default dialect but not in the grammar.
    forest = Forest([b.expr(b.sub(b.reg(1), b.cnst(2)))])
    labeling = selector.label(forest)
    assert labeling.rule_for(forest.roots[0], "stmt") is None  # no derivation
    good = Forest([b.expr(b.add(b.reg(1), b.cnst(2)))])
    cover = extract_cover(selector.label(good), good)
    assert cover.total_cost() == extract_cover(label_dp(grammar, good), good).total_cost()


def test_arity3_operators_roundtrip_nary_tables(tmp_path):
    """Arity ≥ 3 transitions have no dense-matrix shape: they ride the
    tuple-keyed nary tables through the artifact's flat-run encoding."""
    from repro.grammar import Grammar
    from repro.ir import Forest, NodeBuilder
    from repro.ir.ops import OperatorSet

    ops = OperatorSet(name="ternary")
    ops.define("TOP", 1, is_statement=True)
    ops.define("SEL", 3)
    ops.define("LEAF", 0, has_payload=True)
    grammar = Grammar("ternary", operators=ops, start="top")
    grammar.op_rule("top", "TOP", ["v"], 0)
    grammar.op_rule("v", "LEAF", [], 0)
    grammar.op_rule("v", "SEL", ["v", "v", "v"], 1)

    b = NodeBuilder(ops)
    forest = Forest(
        [
            b.node("TOP", b.node("SEL", b.leaf("LEAF", 1), b.leaf("LEAF", 2), b.leaf("LEAF", 3))),
            b.node(
                "TOP",
                b.node(
                    "SEL",
                    b.node("SEL", b.leaf("LEAF", 4), b.leaf("LEAF", 5), b.leaf("LEAF", 6)),
                    b.leaf("LEAF", 7),
                    b.leaf("LEAF", 8),
                ),
            ),
        ]
    )
    reference = extract_cover(label_dp(grammar, forest), forest).total_cost()

    compiled = Selector(grammar, mode="eager")
    assert extract_cover(compiled.label(forest), forest).total_cost() == reference

    artifact = compiled.save(tmp_path / "ternary.rsel")
    loaded = Selector.load(artifact, grammar)
    metrics = LabelMetrics()
    labeling = loaded.label_many([forest], metrics)
    assert metrics.table_misses == 0
    assert extract_cover(labeling, forest).total_cost() == reference


# ----------------------------------------------------------------------
# Wire format

#: ``payload_sha256`` of ``Selector(g, mode="eager").save(...)`` for the
#: bench grammars on a little-endian host.  The payload encoding is the
#: AOT format's compatibility contract: any change here must bump
#: ``_FORMAT_VERSION``.
PINNED_PAYLOAD_SHA256 = {
    "bench_grammar": "5b563f55db1577453255bbbfb299dc50925e404b5c05ea8e556ba7ae61dcc3b5",
    "dynamic_bench_grammar": "40f3c59a3647e32f0d95c943c3f8bc00f79339dcaf12f30d275727fd0993ff12",
}


@pytest.mark.skipif(sys.byteorder != "little", reason="pinned hashes are little-endian")
@pytest.mark.parametrize("factory", [bench_grammar, dynamic_bench_grammar])
def test_artifact_payload_is_byte_stable(tmp_path, factory):
    first = Selector(factory(), mode="eager").save(tmp_path / "first.rsel")
    sha = read_artifact_header(first)["payload_sha256"]
    assert sha == PINNED_PAYLOAD_SHA256[factory.__name__]
    # save -> load -> save reproduces the identical payload.
    again = Selector.load(first, factory()).save(tmp_path / "again.rsel")
    assert read_artifact_header(again)["payload_sha256"] == sha


# ----------------------------------------------------------------------
# Fingerprint


def test_fingerprint_is_structural_and_sensitive():
    assert grammar_fingerprint(bench_grammar()) == grammar_fingerprint(bench_grammar())
    assert grammar_fingerprint(bench_grammar()) != grammar_fingerprint(dynamic_bench_grammar())
    extended = bench_grammar()
    fingerprint_before = grammar_fingerprint(extended)
    extended.op_rule("reg", "LOAD", ["addr"], 0)
    assert grammar_fingerprint(extended) != fingerprint_before
    # Emit actions are reduction-time-only: attaching them keeps AOT
    # artifacts valid (emit_bench_grammar differs from bench only by
    # actions and its %grammar name).
    renamed = bench_grammar()
    renamed.name = "bench_emit"
    assert grammar_fingerprint(renamed) == grammar_fingerprint(emit_bench_grammar())


# ----------------------------------------------------------------------
# Command-line interface


def test_cli_compile_from_module_spec_and_inspect(tmp_path, capsys):
    out = tmp_path / "bench.rsel"
    assert selector_main(["compile", "repro.bench.workloads:bench_grammar", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "compiled 'bench'" in printed and "fingerprint" in printed
    header = read_artifact_header(out)
    assert header["fingerprint"] == grammar_fingerprint(bench_grammar())
    loaded = Selector.load(out, bench_grammar())
    [forest] = random_forests(2, forests=1, statements=4, max_depth=4)
    assert loaded.select(forest).report.cover_cost > 0

    assert selector_main(["inspect", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["grammar"] == "bench"
    assert summary["states"] == header["states"]


def test_cli_compiled_artifact_loads_faster_than_an_eager_build(tmp_path):
    """The AOT payoff: a deploy pipeline compiles the tables once, and a
    server loading them skips the eager build with no behaviour change."""
    out = tmp_path / "bench.rsel"
    assert selector_main(["compile", "repro.bench.workloads:bench_grammar", str(out)]) == 0
    inprocess = Selector(bench_grammar(), mode="eager")
    loads = [Selector.load(out, bench_grammar()) for _ in range(3)]
    loaded = loads[0]

    forests = random_forests(5, forests=4, statements=6, max_depth=5)
    contact = LabelMetrics()
    loaded.label_many(forests, contact)
    assert contact.table_misses == 0
    expected = inprocess.select_many(forests, context=EmitContext())
    observed = loaded.select_many(forests, context=EmitContext())
    assert observed.values == expected.values
    assert observed.report.cover_cost == expected.report.cover_cost

    load_ns = min(selector.stats()["aot"]["load_ns"] for selector in loads)
    assert load_ns < inprocess.stats()["aot"]["build_ns"]


def test_cli_compile_from_grammar_text_file(tmp_path, capsys):
    source = tmp_path / "demo.g"
    source.write_text(
        """
        %grammar demo
        %start stmt
        stmt: EXPR(reg)     (0)
        reg:  REG           (0)
        reg:  ADD(reg, reg) (1)
        reg:  CNST          (1)
        """
    )
    out = tmp_path / "demo.rsel"
    assert selector_main(["compile", str(source), str(out)]) == 0
    header = read_artifact_header(out)
    assert header["grammar"] == "demo"
    capsys.readouterr()


def test_cli_reports_errors_cleanly(tmp_path, capsys):
    assert selector_main(["compile", "no.such.module:grammar", str(tmp_path / "x.rsel")]) == 1
    assert "error:" in capsys.readouterr().err
    assert selector_main(["compile", "repro.bench.workloads:EmitContext", str(tmp_path / "x.rsel")]) == 1
    assert "not a Grammar" in capsys.readouterr().err
    missing = tmp_path / "missing.g"
    assert selector_main(["compile", str(missing), str(tmp_path / "x.rsel")]) == 1
    capsys.readouterr()
    assert selector_main(["inspect", str(tmp_path / "nothing.rsel")]) == 1
    capsys.readouterr()
