"""Static analysis of machine grammars and their automata.

Three tools, also available as ``python -m repro.analysis``:

* :func:`lint_grammar` — structural lints producing stable ``GRM00x``
  diagnostics with rule provenance (see
  :mod:`repro.analysis.diagnostics` for the code table);
* :func:`verify_completeness` — drives the eager fixed point to prove
  the grammar total over its covered operators (or produce a minimal
  counterexample tree), the *certified total* guarantee that
  selection over the covered operators never fails to find a cover;
* :func:`analyze_dominance` / :func:`prune` — find rules never selected
  in any optimal cover and produce a semantics-preserving reduced
  grammar, differentially validated by :func:`differential_check`.
"""

from repro.analysis.completeness import (
    CompletenessReport,
    render_tree,
    verify_completeness,
)
from repro.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    Diagnostic,
    DiagnosticReport,
)
from repro.analysis.dominance import (
    DominanceReport,
    PruneResult,
    analyze_dominance,
    differential_check,
    prune,
)
from repro.analysis.lints import lint_grammar

__all__ = [
    "DIAGNOSTIC_CODES",
    "CompletenessReport",
    "Diagnostic",
    "DiagnosticReport",
    "DominanceReport",
    "PruneResult",
    "analyze_dominance",
    "differential_check",
    "lint_grammar",
    "prune",
    "render_tree",
    "verify_completeness",
]
