"""The library surface the callerbench harness imports still exists.

``callerbench/engine.py`` and ``callerbench/service.py`` drive the
benchmark from outside the package, so a library name they use that
the package dropped would otherwise fail only when the benchmark runs.
This imports both modules the way the harness runs them (``src/`` and
``callerbench/`` on the path) and emits one forest through the
harness's own emitter factory.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.bench.workloads import EmitContext, bench_grammar, random_forests
from repro.selection import Reducer, Selector, TapeCache

CALLERBENCH = Path(__file__).resolve().parents[1] / "callerbench"
#: The harness's top-level modules, imported by bare name.
HARNESS_MODULES = ("inputs", "measure", "engine", "service")


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
