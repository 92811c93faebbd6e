"""LabelMetrics derived properties, merge/copy semantics."""

from __future__ import annotations

from repro.metrics import LabelMetrics


def test_hit_rate_is_zero_without_work():
    metrics = LabelMetrics()
    assert metrics.hit_rate == 0.0


def test_hit_rate_reflects_lookup_misses():
    metrics = LabelMetrics(table_lookups=10, table_misses=3)
    assert metrics.hit_rate == 0.7
    all_hits = LabelMetrics(table_lookups=5, table_misses=0)
    assert all_hits.hit_rate == 1.0
    all_misses = LabelMetrics(table_lookups=4, table_misses=4)
    assert all_misses.hit_rate == 0.0


def test_merge_accumulates_every_counter_and_derived_properties_follow():
    a = LabelMetrics(nodes_labeled=4, table_lookups=4, table_misses=2, rule_checks=7)
    b = LabelMetrics(nodes_labeled=6, table_lookups=6, table_misses=0, chain_checks=3)
    result = a.merge(b)
    assert result is a
    assert a.nodes_labeled == 10
    assert a.table_lookups == 10
    assert a.table_misses == 2
    assert a.rule_checks == 7 and a.chain_checks == 3
    assert a.hit_rate == 0.8


def test_copy_is_independent_of_the_original():
    original = LabelMetrics(nodes_labeled=3, table_lookups=3, table_misses=1, seconds=0.5)
    clone = original.copy()
    assert clone is not original
    assert clone.as_row() == original.as_row()
    assert clone.hit_rate == original.hit_rate

    clone.table_misses += 2
    assert original.table_misses == 1


def test_as_row_includes_hit_rate():
    metrics = LabelMetrics(table_lookups=8, table_misses=2)
    row = metrics.as_row()
    assert row["hit rate"] == 0.75
