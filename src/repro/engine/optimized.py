"""Optimized evaluation: jumping + memoization + information propagation.

The "Opt. Eval." series of Figure 4 -- all techniques of Section 4.4
enabled.  This is the engine the public API uses by default.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.asta.automaton import ASTA
from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.engine.registry import AstaStrategy, register_strategy
from repro.index.jumping import TreeIndex


def evaluate(
    asta: ASTA,
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
    *,
    ip: bool = True,
    tables=None,
) -> Tuple[bool, List[int]]:
    """Run the fully optimized engine; returns (accepted, selected ids).

    ``ip=False`` disables information propagation only (used by the
    technique-ablation benchmark).  ``tables`` carries warmed interned
    memo tables across calls (prepared queries pass their own).
    """
    return run_asta(
        asta, index, jumping=True, memo=True, ip=ip, stats=stats, tables=tables
    )


@register_strategy
class OptimizedStrategy(AstaStrategy):
    """Jumping + memoization + information propagation (Figure 4 "Opt.")."""

    name = "optimized"
    evaluator = staticmethod(evaluate)
