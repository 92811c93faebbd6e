"""Command-line interface for the grammar static-analysis tools.

::

    python -m repro.analysis lint   <grammar>... [--operators SPEC]
    python -m repro.analysis verify <grammar>... [--max-states N]
    python -m repro.analysis prune  <grammar>... [--max-states N]

Each ``<grammar>`` is either a path to a burg-style grammar text file
or a ``module:attr`` spec naming a Grammar or a zero-argument factory
(e.g. ``repro.bench.workloads:bench_grammar``).  Exit status is 1 when
any grammar has an error-severity diagnostic (``lint``), is not
certified complete (``verify``), or cannot be analyzed (``prune``).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from repro.analysis.completeness import verify_completeness
from repro.analysis.dominance import analyze_dominance, prune
from repro.analysis.lints import lint_grammar
from repro.errors import AnalysisError, ReproError
from repro.grammar.grammar import Grammar
from repro.grammar.parser import parse_grammar


def _resolve_object(spec: str) -> object:
    """Import a ``module:attr`` spec; call it if callable."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise AnalysisError(f"bad module spec {spec!r}: expected module:attr")
    try:
        module = importlib.import_module(module_name)
        target = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise AnalysisError(f"cannot resolve {spec!r}: {exc}") from exc
    return target() if callable(target) and not isinstance(target, type) else target


def resolve_grammar(
    spec: str, operators_spec: str | None = None, bindings_spec: str | None = None
) -> Grammar:
    """A grammar from a ``module:attr`` spec or a grammar text file.

    A spec containing ``:`` that is not an existing path is imported
    (and called when it is a factory); anything else is read as
    burg-style grammar text, parsed with the optionally-specified
    operator set and bindings.
    """
    if ":" in spec and not Path(spec).exists():
        grammar = _resolve_object(spec)
        if not isinstance(grammar, Grammar):
            raise AnalysisError(f"{spec!r} resolved to {type(grammar).__name__}, not a Grammar")
        return grammar
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise AnalysisError(f"cannot read grammar {spec!r}: {exc}") from exc
    operators = _resolve_object(operators_spec) if operators_spec else None
    bindings = _resolve_object(bindings_spec) if bindings_spec else None
    return parse_grammar(text, operators=operators, bindings=bindings)


def _add_grammar_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "grammars",
        nargs="+",
        help="grammar text file or module:attr spec (Grammar or factory)",
    )
    parser.add_argument(
        "--operators", default=None, help="module:attr OperatorSet for text grammars"
    )
    parser.add_argument(
        "--bindings",
        default=None,
        help="module:attr mapping of dynamic-cost/constraint callables for text grammars",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of machine grammars: lint diagnostics, "
        "completeness certification, dominated-rule pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint_cmd = sub.add_parser("lint", help="report GRM00x diagnostics; exit 1 on errors")
    _add_grammar_arguments(lint_cmd)

    verify_cmd = sub.add_parser(
        "verify", help="certify completeness; exit 1 with a counterexample when not total"
    )
    _add_grammar_arguments(verify_cmd)
    verify_cmd.add_argument(
        "--max-states", type=int, default=None, help="eager-build state-pool cap"
    )

    prune_cmd = sub.add_parser(
        "prune", help="report rules never selected in any optimal cover"
    )
    _add_grammar_arguments(prune_cmd)
    prune_cmd.add_argument(
        "--max-states", type=int, default=None, help="eager-build state-pool cap"
    )

    args = parser.parse_args(argv)
    failed = False
    for spec in args.grammars:
        try:
            grammar = resolve_grammar(spec, args.operators, args.bindings)
            if args.command == "lint":
                report = lint_grammar(grammar)
                print(report.format())
                if report.has_errors:
                    failed = True
            elif args.command == "verify":
                completeness = verify_completeness(grammar, args.max_states)
                print(completeness.describe())
                if not completeness.certified:
                    failed = True
            else:
                dominance = analyze_dominance(grammar, args.max_states)
                print(dominance.describe())
                if not dominance.analyzable:
                    failed = True
                elif dominance.dominated:
                    result = prune(grammar, report=dominance)
                    print(
                        f"pruned grammar {result.grammar.name!r}: "
                        f"{len(result.grammar.rules)} rule(s) remain "
                        f"({len(result.removed)} removed)"
                    )
        except ReproError as exc:
            print(f"error: {spec}: {exc}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
