"""Cost arithmetic for tree-grammar rules.

Costs are non-negative Python integers, so every finite sum is exact
however large it grows; :data:`INFINITE` is the absorbing "cannot
match" value (``math.inf``): ``INFINITE + cost`` is ``INFINITE`` and
compares above every finite cost.  Dynamic costs (lburg-style) are
callables evaluated per IR node at instruction-selection time; they
return either a regular cost — any non-negative integer, however large
— or :data:`INFINITE` to signal that the rule does not apply to this
node.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.ir.node import Node

__all__ = ["INFINITE", "is_finite", "DynamicCost", "normalize_costs"]

#: Absorbing "rule does not apply" cost.
INFINITE = math.inf

#: Type of an lburg-style dynamic cost function.
DynamicCost = Callable[[Node], int]


def is_finite(cost: int) -> bool:
    """True if *cost* represents an applicable rule."""
    return cost < INFINITE


def normalize_costs(costs: dict[str, int]) -> dict[str, int]:
    """Shift a nonterminal→cost map so its finite minimum becomes zero.

    Infinite entries stay infinite.  Normalisation is what keeps the
    number of automaton states finite: two cost vectors that differ by a
    constant select the same rules everywhere above them, so they are
    the same state.
    """
    finite = [cost for cost in costs.values() if is_finite(cost)]
    if not finite:
        return dict(costs)
    delta = min(finite)
    return {
        nt: (cost - delta if is_finite(cost) else INFINITE)
        for nt, cost in costs.items()
    }
