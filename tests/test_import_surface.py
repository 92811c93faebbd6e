"""Importing the selection package loads only what selection needs.

The paper's reported gain is start-up time, and a fresh process pays
for every module ``import repro.selection`` drags in.  This test imports
the package in a clean subprocess and checks every ``repro`` module it
loaded against an explicit allowlist, so an eager import of the
service, the analysis tools, the fault-injection harness or the IR
interpreter fails here instead of slowing every start-up unnoticed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every ``repro`` module ``import repro.selection`` may load.
ALLOWED = {
    "repro",
    "repro.errors",
    "repro.grammar",
    "repro.grammar.analysis",
    "repro.grammar.closure",
    "repro.grammar.costs",
    "repro.grammar.grammar",
    "repro.grammar.normalize",
    "repro.grammar.parser",
    "repro.grammar.pattern",
    "repro.grammar.rule",
    "repro.ir",
    "repro.ir.node",
    "repro.ir.ops",
    "repro.ir.traversal",
    "repro.ir.validate",
    "repro.metrics",
    "repro.metrics.counters",
    "repro.metrics.tables",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.selection",
    "repro.selection.automaton",
    "repro.selection.cover",
    "repro.selection.label_dp",
    "repro.selection.reducer",
    "repro.selection.resilience",
    "repro.selection.selector",
    "repro.selection.states",
    "repro.selection.tape",
}

_PROBE = (
    "import json, sys\n"
    "import repro.selection\n"
    "print(json.dumps(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))))\n"
)


def test_importing_selection_loads_only_allowlisted_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout.splitlines()[-1]))
    assert "repro.selection.selector" in loaded
    assert loaded <= ALLOWED, sorted(loaded - ALLOWED)
