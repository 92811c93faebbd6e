"""The library surface the callerbench harness imports still exists.

``callerbench/engine.py`` and ``callerbench/service.py`` drive the
benchmark from outside the package, so a library name they use that
the package dropped would otherwise fail only when the benchmark runs.
This imports both modules the way the harness runs them (``src/`` and
``callerbench/`` on the path), emits one forest through the harness's
own emitter factory, and starts the service through the harness's own
start-up code.  It also reads the harness's source for every attribute
it takes off a ``LabelMetrics`` or a ``SelectionReport``, so pruning a
field the harness still reads fails here.
"""

from __future__ import annotations

import ast
import importlib
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.bench.workloads import EmitContext, bench_grammar, random_forests
from repro.metrics import LabelMetrics
from repro.selection import Reducer, Selector, TapeCache

CALLERBENCH = Path(__file__).resolve().parents[1] / "callerbench"
#: The harness's top-level modules, imported by bare name.
HARNESS_MODULES = ("inputs", "measure", "engine", "service")
#: The names the harness binds a ``LabelMetrics`` and a
#: ``SelectionReport`` to (``report.x`` and ``result.report.x`` alike).
HARNESS_RECEIVERS = ("label_metrics", "report")


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(CALLERBENCH))
    for name in HARNESS_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield {name: importlib.import_module(name) for name in ("engine", "service")}
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_harness_emitter_factory_reduces_a_forest(harness):
    engine, service = harness["engine"], harness["service"]
    assert service.emitter_for is engine.emitter_for
    forests = random_forests(5, forests=1, statements=4, max_depth=4)
    sel = Selector(bench_grammar())
    labeling = sel.label_many(forests)

    context = EmitContext()
    [values] = engine.emit_all(engine.emitter_for(labeling, context, TapeCache()), forests)
    oracle_context = EmitContext()
    assert values == Reducer(labeling, oracle_context).reduce_forest(forests[0])
    assert context.instructions == oracle_context.instructions

    report = sel.select_many(forests, context=EmitContext()).report
    assert report.tapes_compiled == 1
    assert report.tape_cache_hits == 0  # read by both harness modules


def test_harness_service_start_matches_its_oracle_and_writes_nothing(harness, tmp_path):
    # ServiceRun.start passes SelectionService a directory positionally,
    # with ServiceConfig(workers=..., seed=...) and its probing context
    # factory; the service must accept it and leave only the harness's
    # own probe file there.
    service = harness["service"]
    run = service.ServiceRun(seed=3, seconds=1.0, pool_size=2)
    with ExitStack() as stack:
        run.start(stack, tmp_path)
        [directory] = list(tmp_path.iterdir())
        assert directory == run.probe_path.parent
        assert [p.name for p in directory.iterdir()] == [run.probe_path.name]
    # One first request per tenant, each equal to the harness's oracle.
    assert run.tally.attempted == len(service.SERVICE_TENANTS)
    assert run.tally.failed == 0, run.tally.first_error


def test_harness_aot_setup_times_an_eager_build_and_a_load(harness, tmp_path):
    # The traced service run times Selector(g, mode="eager"), .save()
    # and Selector.load() for every tenant grammar; its temporary
    # directory goes away with it, so nothing is left under *tmp_path*.
    compile_ms, load_ms = harness["service"]._aot_setup_ms(tmp_path)
    assert isinstance(compile_ms, float) and compile_ms > 0
    assert isinstance(load_ms, float) and load_ms > 0
    assert list(tmp_path.iterdir()) == []


def _harness_attribute_reads() -> dict[str, set[str]]:
    """Every ``label_metrics.<attr>`` / ``report.<attr>`` the harness reads."""
    reads: dict[str, set[str]] = {name: set() for name in HARNESS_RECEIVERS}
    for path in sorted(CALLERBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                name = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if name in reads:
                    reads[name].add(node.attr)
    return reads


def test_harness_reads_only_fields_the_metrics_and_report_have():
    reads = _harness_attribute_reads()
    assert reads["label_metrics"] and reads["report"], reads
    forests = random_forests(5, forests=2, statements=4, max_depth=4)
    sel = Selector(bench_grammar())
    label_metrics = LabelMetrics()
    sel.label_many(forests, label_metrics)
    assert label_metrics.nodes_labeled > 0
    report = sel.select_many(forests, context=EmitContext()).report
    for name, value in (("label_metrics", label_metrics), ("report", report)):
        missing = sorted(attr for attr in reads[name] if not hasattr(value, attr))
        assert not missing, f"the harness reads {name}.{missing}, which no longer exist"
