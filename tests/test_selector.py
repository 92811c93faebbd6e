"""The Selector facade: modes, AOT compile/save/load, wire format."""

from __future__ import annotations

import json
import sys
from collections import Counter

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
from repro.errors import ArtifactCorruptError, SelectorError
from repro.grammar import parse_grammar
from repro.ir import Forest, NodeBuilder
from repro.metrics import LabelMetrics
from repro.selection import (
    DPLabeler,
    OnDemandAutomaton,
    Selector,
    extract_cover,
    grammar_fingerprint,
    label_dp,
)
from repro.selection import selector as selector_module
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


def test_selector_mode_errors(tmp_path):
    grammar = bench_grammar()
    with pytest.raises(ValueError, match="unknown selector mode"):
        Selector(grammar, mode="offline")
    with pytest.raises(SelectorError, match="needs a grammar"):
        Selector()
    with pytest.raises(SelectorError, match="only automaton modes"):
        Selector(grammar, mode="dp").compile()
    with pytest.raises(SelectorError, match="only automaton modes"):
        Selector(grammar, mode="dp").save(tmp_path / "never-written.rsel")
    assert not (tmp_path / "never-written.rsel").exists()


STATS_KEYS = {"grammar", "mode", "tables", "selection", "resilience", "obs"}


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
    result = selector.select_many(forests)

    stats = selector.stats()
    assert set(stats) == STATS_KEYS
    assert stats["mode"] == "eager"
    # Table sizes and the build (automaton view) ...
    assert stats["tables"]["states"] > 0
    assert stats["tables"]["eager"]["transitions"] == build["transitions"]
    assert stats["tables"]["eager"]["build_seconds"] > 0
    # ... cumulative per-phase selection nanoseconds ...
    assert stats["selection"]["calls"] == 1
    assert stats["selection"]["label_ns"] >= 0
    assert stats["selection"]["reduce_ns"] > 0
    assert stats["selection"]["total_ns"] > 0
    # ... while per-call work stays with the caller.
    assert metrics.hit_rate == 1.0
    assert metrics.table_misses == 0
    assert result.report.labeler == "eager"

    dp_stats = Selector(grammar, mode="dp").stats()
    assert set(dp_stats) == STATS_KEYS
    assert dp_stats["mode"] == "dp"
    assert dp_stats["tables"] is None


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
    assert loaded.stats()["tables"]["eager"]["loaded_from"] == str(artifact)


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


def test_eager_constraint_tables_cover_the_pool_and_survive_a_round_trip(tmp_path):
    """An eager build enumerates the dynamic tables: one row per projected
    key, one state per outcome of the rules the key leaves open.  A
    dynamic-constraint pool then labels with zero misses, before and
    after a save/load round trip that keeps every transition."""
    compiled = Selector(dynamic_bench_grammar(), mode="eager")
    automaton = compiled.engine
    build = automaton.stats()["eager"]
    assert build["skipped"] == [] and not build["capped"]
    rows = [
        row
        for table in automaton._tables.values()
        if table.dynamic
        for slot in table.slots
        for _, row in slot.entries()
    ]
    assert rows and all(len(row) == 2 ** len(row.candidates) for row in rows)
    forests = dynamic_constraint_forests(21, forests=64, statements=10)
    contact = LabelMetrics()
    compiled.label_many(forests, contact)
    assert contact.table_misses == 0 and contact.states_created == 0

    artifact = compiled.save(tmp_path / "dyn.rsel")
    loaded = Selector.load(artifact, dynamic_bench_grammar())
    assert loaded.engine.transition_count() == automaton.transition_count()
    first_contact = LabelMetrics()
    loaded.label_many(forests, first_contact)
    assert first_contact.table_misses == 0 and first_contact.states_created == 0
    assert first_contact.dynamic_evals == contact.dynamic_evals > 0


def test_dynamic_chain_outcomes_round_trip(tmp_path):
    """Under a dynamic chain rule every operator keys its dynamic table
    by the candidates' outcomes followed by the chain outcomes, unreached
    ones included; a saved on-demand table reloads to zero misses."""
    text = """
    %grammar chainmd
    %start stmt
    stmt: EXPR(reg)        (0)
    stmt: STORE(addr, reg) (1)
    addr: reg              (0)
    addr: con              (addrc)
    reg:  REG              (0)
    reg:  ADD(reg, reg)    (1)
    reg:  con              (1)
    con:  CNST             (0)
    """

    def make():
        return parse_grammar(text, bindings={"addrc": lambda node: node.value % 4})

    b = NodeBuilder()
    forests = [
        Forest(
            [
                b.store(b.cnst(payload), b.add(b.reg(1), b.cnst(payload))),
                b.store(b.add(b.reg(2), b.reg(3)), b.reg(payload)),
                b.expr(b.add(b.cnst(payload), b.reg(4))),
            ]
        )
        for payload in range(8)
    ]
    warm = Selector(make())
    warm.label_many(forests)
    assert warm.engine.transition_count() > 0
    loaded = Selector.load(warm.save(tmp_path / "chain.rsel"), make())
    assert loaded.engine.transition_count() == warm.engine.transition_count()
    metrics = LabelMetrics()
    loaded.label_many(forests, metrics)
    assert metrics.table_misses == 0 and metrics.dynamic_evals > 0


def _reframed(blob: bytes, edit) -> bytes:
    """*blob* with its JSON header replaced by ``edit(header)``."""
    prefix = len(selector_module._MAGIC) + selector_module._HEADER_LEN_STRUCT.size
    (header_len,) = selector_module._HEADER_LEN_STRUCT.unpack_from(
        blob, len(selector_module._MAGIC)
    )
    header = edit(json.loads(blob[prefix : prefix + header_len]))
    data = json.dumps(header).encode("utf-8")
    return (
        selector_module._MAGIC
        + selector_module._HEADER_LEN_STRUCT.pack(len(data))
        + data
        + blob[prefix + header_len :]
    )


def test_load_rejects_old_format_and_mismatched_dynamic_outcomes(tmp_path):
    """Format 1 keyed dynamic transitions by every dynamic rule's
    outcome; this build refuses it with the typed corruption error, and
    refuses a dynamic run whose outcome count is not its key's."""
    grammar = dynamic_bench_grammar()
    blob = Selector(grammar, mode="eager").save(tmp_path / "dyn.rsel").read_bytes()

    def format_1(header):
        header["format"] = 1
        return header

    old = tmp_path / "old.rsel"
    old.write_bytes(_reframed(blob, format_1))
    with pytest.raises(ArtifactCorruptError, match="unsupported artifact format 1"):
        Selector.load(old, grammar)

    compiled = Selector(dynamic_bench_grammar(), mode="eager")
    slot = compiled.engine._tables["ADD"].slots[2]
    row = next(row for _, row in slot.entries() if row.candidates)
    row[(0,) * (len(row.candidates) + 1)] = next(iter(row.values()))
    bad = compiled.save(tmp_path / "bad.rsel")
    with pytest.raises(ArtifactCorruptError, match="outcomes"):
        Selector.load(bad, dynamic_bench_grammar())


def test_format_2_artifact_is_refused(tmp_path):
    """Format 2 wrote one transition per tuple of child states (dense
    unary and binary matrices); format 3 wrote one per projected key
    with INFINITE as the integer ``1 << 24``; format 4 writes INFINITE
    outcomes as a sentinel.  This build refuses a format-2 or format-3
    artifact with the typed corruption error, and leaves its bytes as
    they were."""
    grammar = bench_grammar()
    path = Selector(grammar, mode="eager").save(tmp_path / "bench.rsel")
    assert read_artifact_header(path)["format"] == 4
    assert {section["kind"] for section in read_artifact_header(path)["sections"]} == {
        "state_lens",
        "state_triples",
        "static",
    }

    for version in (2, 3):

        def downgrade(header):
            header["format"] = version
            return header

        old = tmp_path / f"format{version}.rsel"
        old.write_bytes(_reframed(path.read_bytes(), downgrade))
        before = old.read_bytes()
        with pytest.raises(ArtifactCorruptError, match=f"unsupported artifact format {version}"):
            Selector.load(old, grammar)
        assert old.read_bytes() == before


#: A constraint cost past a signed 64-bit integer: exact in memory, not
#: serializable.
WIDE_CONSTRAINT_GRAMMAR = """
%grammar widecon
%start stmt
stmt: EXPR(reg)  (0)
reg:  REG        (0)
reg:  NEG(reg)   (3)
reg:  NEG(reg)   (18446744073709551616) @constraint(odd)
"""


def test_a_cost_past_64_bits_is_not_serializable(tmp_path):
    def odd(node):
        return node.kids[0].value is not None and node.kids[0].value % 2 == 1

    grammar = parse_grammar(WIDE_CONSTRAINT_GRAMMAR, bindings={"odd": odd})
    with pytest.raises(SelectorError, match="not serializable"):
        Selector(grammar, mode="eager").save(tmp_path / "wide.rsel")
    assert not (tmp_path / "wide.rsel").exists()


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
    assert loaded.mode == "eager"

    # JIT-style extension on the live grammar: free loads. The loaded
    # tables must be dropped, results must track
    # DP on the extended grammar, and covers must get cheaper.
    live.op_rule("reg", "LOAD", ["addr"], 0)
    assert loaded.mode == "ondemand"
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
    "bench_grammar": "07aeae7beef17c58b318c294403f8d6c8bd069e5f1f84fe9dc2e05ad3245e845",
    "dynamic_bench_grammar": "65160a3fd6d8430677b6f17194c664d5497e98536934bf1cd5d2c75448c8d6bb",
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
# The AOT payoff


def test_mode_reads_ondemand_as_soon_as_the_grammar_moves_past_the_tables(tmp_path):
    """A grammar extension retires compiled and loaded tables at once:
    ``mode`` says so before any further call resyncs the automaton."""
    compiled_grammar, loaded_grammar = bench_grammar(), bench_grammar()
    compiled = Selector(compiled_grammar, mode="eager")
    artifact = compiled.save(tmp_path / "bench.rsel")
    loaded = Selector.load(artifact, loaded_grammar)
    for selector, grammar in ((compiled, compiled_grammar), (loaded, loaded_grammar)):
        assert selector.mode == "eager"
        grammar.op_rule("reg", "LOAD", ["addr"], 0)
        assert selector.mode == "ondemand"
        assert selector.stats()["mode"] == "ondemand"


def test_tables_describe_what_the_next_call_uses_once_the_grammar_moves(tmp_path):
    """After a grammar extension ``stats()["tables"]`` drops the compiled
    or loaded tables at once, as ``mode`` does: no ``eager`` entry, and
    no transitions until the next call builds some."""
    compiled_grammar, loaded_grammar = bench_grammar(), bench_grammar()
    compiled = Selector(compiled_grammar, mode="eager")
    artifact = compiled.save(tmp_path / "bench.rsel")
    loaded = Selector.load(artifact, loaded_grammar)
    for selector, grammar in ((compiled, compiled_grammar), (loaded, loaded_grammar)):
        assert selector.stats()["tables"]["transitions"] > 0
        grammar.op_rule("reg", "LOAD", ["addr"], 0)
        tables = selector.stats()["tables"]
        assert "eager" not in tables
        assert tables["transitions"] == 0


def test_saved_artifact_loads_faster_than_an_eager_build(tmp_path, monkeypatch):
    """A deploy step saves the eager tables once, and a server loading
    them skips the eager build with no behaviour change.

    "Faster" is checked as work, not wall clock: the eager build
    constructs states and checks rules, while the load, and every
    selection on the loaded tables, does neither."""
    work: Counter[str] = Counter()
    for name in ("_construct_state", "_base_costs", "_new_row"):
        original = getattr(OnDemandAutomaton, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            work[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(OnDemandAutomaton, name, counted)

    out = Selector(bench_grammar(), mode="eager").save(tmp_path / "bench.rsel")
    inprocess = Selector(bench_grammar(), mode="eager")
    assert work["_construct_state"] > 0 and work["_base_costs"] > 0
    work.clear()
    loaded = Selector.load(out, bench_grammar())
    assert loaded.mode == "eager"

    forests = random_forests(5, forests=4, statements=6, max_depth=5)
    contact = LabelMetrics()
    loaded.label_many(forests, contact)
    assert contact.table_misses == 0
    observed = loaded.select_many(forests, context=EmitContext())
    assert not work, f"the load or a loaded selection built tables: {dict(work)}"
    expected = inprocess.select_many(forests, context=EmitContext())
    assert observed.values == expected.values
    assert observed.report.cover_cost == expected.report.cover_cost
