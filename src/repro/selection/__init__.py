"""Instruction selection: the :class:`Selector` facade and its engines.

The public API is :class:`Selector` (:mod:`repro.selection.selector`):
one object owning the grammar → tables → selection lifecycle.
``Selector(grammar, mode="dp" | "ondemand" | "eager")`` picks one of the
three labeling architectures behind the shared :class:`Labeling`
interface — the dynamic-programming baseline
(:mod:`repro.selection.label_dp`), the paper's on-demand tree-parsing
automaton (:mod:`repro.selection.automaton` over
:mod:`repro.selection.states`), or the offline (eager) mode of the same
automaton — and exposes ``label``/``label_many``,
``select``/``select_many`` (fused label + reduce + emit with a
:class:`SelectionReport`), a unified ``stats()``, and the
ahead-of-time path: ``compile()`` precomputes every reachable
transition, ``save(path)`` serializes the id spaces and per-operator
transition tables (one entry per projected key) into flat integer runs
keyed by a grammar fingerprint, and ``Selector.load(path, grammar)`` restores them so
labeling starts with zero table misses.

All labelers run a fused single-pass walk and offer batched
``label_many`` entry points sharing one node-state map across forests.
Emission runs through one of two engines that share a contract and
the reducer module's value helpers, not a class: the
:class:`TapeEmitter` (default) lowers each automaton labeling's cover
to a flat postorder instruction tape, built from the automaton's
state-indexed derivation fragments, and sweeps it; the frame-stack
:class:`Reducer` (``mode="dp"``, or ``SelectorConfig(emitter=
"reducer")``) is the plain reference engine and differential oracle,
and (like :func:`extract_cover`) consumes any labeling.  Both are
iterative explicit-stack engines, so deep trees and long chain-rule
sequences cannot overflow the interpreter stack.  Construct a
selector with ``Selector(grammar, mode=...)``; :func:`label_dp`
remains as the stateless DP oracle.
"""

from repro.selection.automaton import AutomatonLabeling, OnDemandAutomaton
from repro.selection.cover import Cover, CoverEntry, Labeling, extract_cover
from repro.selection.label_dp import DPLabeler, DPLabeling, label_dp, match_pattern
from repro.selection.reducer import Reducer, pass_through
from repro.selection.resilience import SelectionFailure
from repro.selection.selector import (
    EMITTERS,
    MODES,
    ON_ERROR_POLICIES,
    SelectionReport,
    SelectionResult,
    Selector,
    SelectorConfig,
    grammar_fingerprint,
)
from repro.selection.states import State, StatePool, state_signature
from repro.selection.tape import CompiledTape, TapeCache, TapeEmitter

__all__ = [
    "AutomatonLabeling",
    "CompiledTape",
    "Cover",
    "CoverEntry",
    "DPLabeler",
    "DPLabeling",
    "EMITTERS",
    "Labeling",
    "MODES",
    "ON_ERROR_POLICIES",
    "OnDemandAutomaton",
    "Reducer",
    "SelectionFailure",
    "SelectionReport",
    "SelectionResult",
    "Selector",
    "SelectorConfig",
    "State",
    "StatePool",
    "TapeCache",
    "TapeEmitter",
    "extract_cover",
    "grammar_fingerprint",
    "label_dp",
    "match_pattern",
    "pass_through",
    "state_signature",
]
