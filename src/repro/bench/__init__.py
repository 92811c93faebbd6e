"""Seeded benchmark workloads: grammars and forest generators.

The generators in :mod:`repro.bench.workloads` feed the tests and the
caller-view benchmark (``callerbench/``), which is the repository's one
performance harness.
"""

from repro.bench.workloads import (
    BENCH_GRAMMAR_TEXT,
    EmitContext,
    bench_grammar,
    clone_forest,
    dag_heavy_forest,
    dag_heavy_forests,
    dynamic_bench_grammar,
    dynamic_constraint_forests,
    emit_bench_grammar,
    random_forests,
    random_tree_forest,
    recurring_shape_stream,
    reduce_heavy_forests,
    shared_reduction_forests,
    synthetic_forests,
    synthetic_grammar,
)

__all__ = [
    "BENCH_GRAMMAR_TEXT",
    "EmitContext",
    "bench_grammar",
    "clone_forest",
    "dag_heavy_forest",
    "dag_heavy_forests",
    "dynamic_bench_grammar",
    "dynamic_constraint_forests",
    "emit_bench_grammar",
    "random_forests",
    "random_tree_forest",
    "recurring_shape_stream",
    "reduce_heavy_forests",
    "shared_reduction_forests",
    "synthetic_forests",
    "synthetic_grammar",
]
