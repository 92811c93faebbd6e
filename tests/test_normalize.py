"""Normalisation and rule copying: structure, cover-cost preservation,
and the one copy path (``Grammar.add_copy``) every derived grammar uses."""

from __future__ import annotations

import dataclasses

from repro.analysis import prune
from repro.bench import EmitContext, emit_bench_grammar
from repro.grammar import Grammar, Rule, normalize, nt_pattern, op_pattern
from repro.ir import Forest, NodeBuilder
from repro.selection import Selector, extract_cover, label_dp


def test_normalize_demo_structure(demo_grammar):
    normalized = normalize(demo_grammar)
    assert not demo_grammar.is_normal_form
    assert normalized.is_normal_form
    # The add-to-memory rule has two inner operator nodes (ADD, LOAD).
    assert sum(rule.is_helper for rule in normalized.rules) == 2
    # Every original rule has one top rule carrying its cost.
    for rule in demo_grammar.rules:
        [top] = [r for r in normalized.rules if r.source is rule and not r.is_helper]
        assert top.lhs == rule.lhs
        assert top.cost == rule.cost
        assert top.original is rule
    assert normalized.start == demo_grammar.start


def test_normalize_preserves_cover_costs(demo_grammar, benchmark_forests):
    normalized = normalize(demo_grammar)
    for forest in benchmark_forests:
        original_cover = extract_cover(label_dp(demo_grammar, forest), forest)
        normalized_cover = extract_cover(label_dp(normalized, forest), forest)
        assert original_cover.total_cost() == normalized_cover.total_cost(), forest.name


def test_normalized_cover_maps_back_to_user_rules(demo_grammar, benchmark_forests):
    normalized = normalize(demo_grammar)
    user_rules = set(map(id, demo_grammar.rules))
    for forest in benchmark_forests:
        cover = extract_cover(label_dp(normalized, forest), forest)
        for rule in cover.original_rules_used():
            assert id(rule) in user_rules


def test_renormalized_helpers_keep_splicing(demo_grammar):
    """A normalized grammar extended with a multi-node rule is normalized
    again inside the automaton; its helper rules must stay helpers, so
    every mode passes the add-to-memory rule the same three operands."""
    grammar = normalize(demo_grammar)
    double_neg = op_pattern("NEG", op_pattern("NEG", nt_pattern("reg")))
    grammar.add_rule("reg", double_neg, template="mov %0")
    helpers = [rule for rule in normalize(grammar).rules if rule.lhs.startswith("__h")]
    assert len(helpers) == 3
    assert all(rule.is_helper for rule in helpers)

    runs = {}
    for mode in ("dp", "ondemand", "eager"):
        b = NodeBuilder()
        forest = Forest([b.store(b.reg(0), b.add(b.load(b.reg(1)), b.reg(2)))])
        context = EmitContext()
        result = Selector(grammar, mode=mode).select(forest, context=context)
        runs[mode] = (result.values, context.instructions, result.report.cover_cost)
    assert runs["ondemand"] == runs["dp"], runs
    assert runs["eager"] == runs["dp"], runs


def _is_even(node) -> bool:
    return node.value % 2 == 0


def _emit(context, node, operands):
    return operands


def test_add_copy_carries_every_rule_field():
    pattern = op_pattern("ADD", nt_pattern("reg"), nt_pattern("reg"))
    common = dict(
        lhs="reg",
        pattern=pattern,
        cost=3,
        name="add",
        template="add %0, %1",
        action=_emit,
        is_helper=True,
        line=7,
        column=5,
    )
    originals = [
        Rule(number=4, constraint=_is_even, constraint_name="even", **common),
        Rule(number=5, dynamic_cost=len, **common),
    ]
    copied = [f.name for f in dataclasses.fields(Rule) if f.name not in ("number", "source")]
    # Each field is off its default in some original, so a dropped field shows.
    default = Rule(lhs="x", pattern=nt_pattern("y"))
    for name in copied:
        assert any(getattr(rule, name) != getattr(default, name) for rule in originals), name

    grammar = Grammar("copies")
    for rule in originals:
        clone = grammar.add_copy(rule)
        assert clone.source is rule
        assert clone.number == len(grammar.rules)
        for name in copied:
            assert getattr(clone, name) == getattr(rule, name), name
    changed = grammar.add_copy(originals[0], cost=9)
    assert (changed.cost, changed.constraint_name) == (9, "even")


def test_derived_grammars_keep_each_copied_rule_field():
    grammar = emit_bench_grammar()
    derived = {
        "normalize": normalize(grammar),
        "subset": grammar.subset(lambda rule: rule.number % 2 == 1, "odd"),
        "prune": prune(grammar).grammar,
    }
    for how, result in derived.items():
        copies = [rule for rule in result.rules if not rule.is_helper]
        assert copies, how
        for rule in copies:
            source = rule.source
            assert source in grammar.rules, (how, rule)
            assert (rule.line, rule.column, rule.template, rule.action) == (
                source.line,
                source.column,
                source.template,
                source.action,
            ), (how, rule)
    assert not grammar.is_normal_form
    assert any(rule.action for rule in grammar.rules)
    assert any(rule.template for rule in grammar.rules)
    assert all(rule.line > 0 for rule in grammar.rules)
    assert derived["subset"].nonterminals == grammar.nonterminals
    assert len(derived["prune"].rules) == len(grammar.rules) - 2
