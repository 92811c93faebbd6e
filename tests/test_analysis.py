"""Tests for the static-analysis subsystem (repro.analysis).

Covers: lint diagnostics over broken and clean grammars, completeness
certification (with counterexamples that really fail labeling),
dominated-rule pruning with a differential cover/cost/trace sweep
across the bench workload families, rule provenance, and the CLI.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    DIAGNOSTIC_CODES,
    analyze_dominance,
    differential_check,
    lint_grammar,
    prune,
    verify_completeness,
)
from repro.analysis.__main__ import main as analysis_main
from repro.bench.workloads import (
    EmitContext,
    bench_grammar,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    recurring_shape_stream,
    reduce_heavy_forests,
    shared_reduction_forests,
    synthetic_grammar,
)
from repro.errors import AnalysisError, CoverError
from repro.grammar import Grammar, normalize, parse_grammar
from repro.ir import DEFAULT_OPERATORS, Forest
from repro.selection import OnDemandAutomaton, Selector, extract_cover

INCOMPLETE_TEXT = """
%grammar holes
%start stmt

stmt: EXPR(reg)       (0)
reg:  ADD(reg, con)   (1)
reg:  REG             (0)
con:  CNST            (0)
"""
# No ``reg: con`` chain: a bare CNST only derives ``con``, so the tree
# EXPR(CNST) has no cover — the grammar is incomplete.


def broken_grammar() -> Grammar:
    """A deliberately broken grammar hitting many distinct lint codes."""
    g = Grammar("broken", start="stmt")
    g.op_rule("stmt", "EXPR", ["reg"], 0)
    g.op_rule("reg", "REG", [], 0)
    g.op_rule("reg", "REG", [], 0)  # GRM004: exact duplicate
    g.op_rule("reg", "REG", [], 2)  # GRM005: shadowed by the cost-0 rule
    g.chain("a", "b", 0)  # a/b: zero-cost cycle, unproductive, unreachable
    g.chain("b", "a", 0)
    g.chain("c", "c", 1)  # GRM007: self-referential chain rule
    g.op_rule("con", "CNST", [], 0)
    g.chain("reg", "con", 1, dynamic_cost=lambda node: 1)  # GRM008
    return g


# ----------------------------------------------------------------------
# Lints


def test_lint_broken_grammar_flags_many_distinct_codes():
    report = lint_grammar(broken_grammar())
    codes = report.codes()
    assert {"GRM001", "GRM002", "GRM004", "GRM005", "GRM006", "GRM007", "GRM008"} <= codes
    assert len(codes) >= 4
    assert report.has_errors
    # Every emitted code is registered, with its registered severity.
    for diagnostic in report:
        severity, _title = DIAGNOSTIC_CODES[diagnostic.code]
        assert diagnostic.severity == severity


def test_lint_missing_start_and_underivable_start():
    g = Grammar("nostart")
    assert "GRM003" in lint_grammar(g).codes()
    g2 = Grammar("badstart", start="ghost")
    g2.op_rule("stmt", "EXPR", ["reg"], 0)
    g2.op_rule("reg", "REG", [], 0)
    report = lint_grammar(g2)
    assert "GRM003" in report.codes()
    assert report.has_errors


def test_lint_cross_dialect_operator_conflicts():
    grammar = bench_grammar()
    # A dialect lacking MUL and disagreeing about NEG's arity.
    dialect = DEFAULT_OPERATORS.subset(
        [op.name for op in DEFAULT_OPERATORS if op.name not in ("MUL", "NEG")]
    )
    dialect.define("NEG", 2)
    report = lint_grammar(grammar, operators=dialect)
    messages = [d.message for d in report if d.code == "GRM010"]
    assert any("MUL" in m for m in messages)
    assert any("NEG" in m for m in messages)
    assert report.has_errors


def test_lint_bench_grammars_have_no_errors():
    for factory in (bench_grammar, dynamic_bench_grammar, emit_bench_grammar):
        report = lint_grammar(factory())
        assert not report.has_errors, report.format()


def test_lint_diagnostics_carry_rule_provenance():
    grammar = parse_grammar(
        "%grammar p\n%start stmt\nstmt: EXPR(reg) (0)\nreg: REG (0)\nreg: REG (1)\n"
    )
    report = lint_grammar(grammar)
    shadowed = [d for d in report if d.code == "GRM005"]
    assert len(shadowed) == 1
    assert shadowed[0].line == 5
    assert shadowed[0].column == 1
    assert ":5:1:" in shadowed[0].format()


# ----------------------------------------------------------------------
# Rule provenance (parser satellite)


def test_parsed_rules_record_line_and_column():
    grammar = bench_grammar()
    lines = {rule.number: rule.line for rule in grammar.rules}
    # Rules are numbered in order of appearance; lines strictly increase.
    numbers = sorted(lines)
    assert all(lines[a] < lines[b] for a, b in zip(numbers, numbers[1:]))
    assert all(rule.column == 1 for rule in grammar.rules)
    assert grammar.rules[0].location == f"{grammar.rules[0].line}:1"


def test_normalization_inherits_source_positions():
    grammar = bench_grammar()
    normalized = normalize(grammar)
    for rule in normalized.rules:
        assert rule.line == rule.original.line
        assert rule.column == rule.original.column


# ----------------------------------------------------------------------
# Completeness certification


def test_bench_grammars_certify_complete():
    for factory in (bench_grammar, dynamic_bench_grammar, emit_bench_grammar):
        report = verify_completeness(factory())
        assert report.certified, report.describe()
        assert report.transitions_checked > 0
        assert report.value_states > 0
        assert report.counterexample is None
    dyn = verify_completeness(dynamic_bench_grammar())
    assert dyn.dynamic_rules_assumed == 3


def test_incomplete_grammar_yields_minimal_counterexample():
    grammar = parse_grammar(INCOMPLETE_TEXT)
    report = verify_completeness(grammar)
    assert not report.certified
    assert report.counterexample is not None
    assert report.counterexample_operator == "EXPR"
    # Minimal tree: EXPR over a bare constant (2 nodes).
    assert report.counterexample.size() == 2
    assert report.counterexample.kids[0].op.name == "CNST"


def test_counterexample_actually_fails_labeling():
    grammar = parse_grammar(INCOMPLETE_TEXT)
    report = verify_completeness(grammar)
    forest = Forest([report.counterexample])
    labeling = OnDemandAutomaton(grammar).label(forest)
    with pytest.raises(CoverError):
        extract_cover(labeling, forest)


def test_synthetic_counterexamples_fail_labeling_when_incomplete():
    for seed in range(4):
        grammar = synthetic_grammar(12, 5, seed=seed)
        report = verify_completeness(grammar)
        if report.certified:
            continue
        forest = Forest([report.counterexample])
        labeling = OnDemandAutomaton(grammar).label(forest)
        with pytest.raises(CoverError):
            extract_cover(labeling, forest)


def test_verify_reports_capped_builds_as_inconclusive():
    report = verify_completeness(bench_grammar(), max_states=2)
    assert report.capped
    assert not report.certified


# ----------------------------------------------------------------------
# Dominance analysis and pruning


def test_bench_grammar_has_exactly_the_seeded_dominated_rules():
    grammar = bench_grammar()
    report = analyze_dominance(grammar)
    assert report.analyzable
    dominated = {rule.describe() for rule in report.dominated}
    assert dominated == {
        "reg: MUL(reg,con) = 19 (4)",
        "addr: LOAD(addr) = 20 (4)",
    }
    assert len(report.used) + len(report.dominated) == len(grammar.rules)


def test_prune_removes_dominated_rules_and_validates():
    grammar = bench_grammar()
    result = prune(grammar)
    assert len(result.removed) == 2
    assert len(result.grammar.rules) == len(grammar.rules) - 2
    result.grammar.validate()
    # Surviving rules keep provenance and link back to their originals.
    for rule in result.grammar.rules:
        assert rule.source in grammar.rules
        assert rule.line == rule.source.line
    # The pruned grammar itself has no dominated rules left.
    assert analyze_dominance(result.grammar).dominated == []


def test_prune_refuses_unanalyzable_grammars():
    grammar = parse_grammar(
        "%grammar dynchain\n%start stmt\nstmt: EXPR(reg) (0)\nreg: REG (0)\n"
        "reg: con (c)\ncon: CNST (0)\n",
        bindings={"c": lambda node: 1},
    )
    report = analyze_dominance(grammar)
    assert not report.analyzable
    with pytest.raises(AnalysisError):
        prune(grammar)


def test_differential_sweep_across_workload_families():
    grammar = bench_grammar()
    result = prune(grammar)
    forests = (
        random_forests(11, forests=4)
        + dag_heavy_forests(12, forests=4)
        + recurring_shape_stream(13, shapes=3, length=6)
        + reduce_heavy_forests(14, forests=4)
        + shared_reduction_forests(15, forests=4)
    )
    outcome = differential_check(grammar, result.grammar, forests)
    assert outcome["forests"] == len(forests)
    assert outcome["entries"] > 0


def test_differential_sweep_dynamic_grammar():
    grammar = dynamic_bench_grammar()
    result = prune(grammar)
    assert len(result.removed) >= 1
    forests = dynamic_constraint_forests(16, forests=6)
    outcome = differential_check(grammar, result.grammar, forests)
    assert outcome["forests"] == len(forests)


def test_differential_check_detects_a_real_mismatch():
    grammar = bench_grammar()
    # A wrong "pruned" grammar: same rules, but reg: ADD(reg, reg) got
    # more expensive — covers stay extractable, totals change.
    broken = Grammar("bench-wrong", grammar.operators, grammar.start)
    for rule in grammar.rules:
        cost = 3 if rule.describe().startswith("reg: ADD(reg,reg)") else rule.cost
        broken.add_rule(
            rule.lhs, rule.pattern, cost,
            template=rule.template, source=rule,
        )
    with pytest.raises(AnalysisError):
        differential_check(grammar, broken, random_forests(17, forests=3))


def test_pruned_emit_grammar_produces_identical_traces():
    grammar = emit_bench_grammar()
    result = prune(grammar)
    assert len(result.removed) == 2
    forests = reduce_heavy_forests(18, forests=4)

    original = Selector(grammar)
    pruned = Selector(result.grammar)
    ctx_a, ctx_b = EmitContext(), EmitContext()
    out_a = original.select_many(forests, context=ctx_a)
    out_b = pruned.select_many(forests, context=ctx_b)
    assert ctx_a.instructions == ctx_b.instructions
    assert ctx_a.trace == ctx_b.trace
    assert out_a.report.cover_cost == out_b.report.cover_cost


# ----------------------------------------------------------------------
# CLI


def test_analysis_cli_lint_verify_prune(capsys, tmp_path):
    spec = "repro.bench.workloads:bench_grammar"
    assert analysis_main(["lint", spec]) == 0
    # The certification gate CI runs over both bench grammars.
    assert analysis_main(["verify", spec, "repro.bench.workloads:dynamic_bench_grammar"]) == 0
    out = capsys.readouterr().out
    assert "grammar 'bench' (start 'stmt'): COMPLETE" in out
    assert "grammar 'bench_dyn' (start 'stmt'): COMPLETE" in out
    assert analysis_main(["prune", spec]) == 0
    assert "2 of 20 rule(s) dominated" in capsys.readouterr().out

    unproductive = tmp_path / "bad.g"
    unproductive.write_text(
        "%grammar bad\n%start stmt\nstmt: EXPR(reg) (0)\nreg: LOAD(reg) (1)\n"
    )
    assert analysis_main(["lint", str(unproductive)]) == 1

    incomplete = tmp_path / "holes.g"
    incomplete.write_text(INCOMPLETE_TEXT)
    assert analysis_main(["verify", str(incomplete)]) == 1
    out = capsys.readouterr().out
    assert "INCOMPLETE" in out
    assert "counterexample: EXPR(CNST)" in out

    # A spec that names no grammar, or a grammar file that does not
    # exist, is one error line and exit 1, never a traceback.
    missing = str(tmp_path / "missing.g")
    for spec, message in (
        ("no.such.module:grammar", "cannot resolve 'no.such.module:grammar'"),
        ("repro.bench.workloads:", "bad module spec"),
        ("repro.bench.workloads:EmitContext", "not a Grammar"),
        (missing, "cannot read grammar"),
    ):
        assert analysis_main(["verify", spec]) == 1
        err = capsys.readouterr().err
        assert f"error: {spec}: " in err and message in err
