"""Mixed forward/backward evaluation (the Section 6 extension).

The paper's theory covers the *forward* fragment; its prototype supports
backward axes outside the theory ("up-moves ... are not part of the
theory", Section 6, with the caveat that one top-down+bottom-up pass is
no longer sufficient).  We follow the same pragmatic route:

1. the maximal *leading forward segment* of the query (steps and
   predicates inside the forward fragment) runs on the optimized ASTA
   engine with all its jumping machinery;
2. the remaining steps -- the first backward step and everything after
   it -- run step-at-a-time from the materialized context, using parent
   walks for ``parent::``/``ancestor::`` (the index has no upward jumps,
   exactly as the paper notes for its hybrid evaluator).

Semantically this equals the reference evaluation of the whole path; the
property tests check exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.asta.automaton import ASTA
from repro.baselines.stepwise import _eval_steps
from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.engine.registry import Strategy, register_strategy
from repro.index.jumping import TreeIndex
from repro.xpath.ast import Path, pred_has_backward


def forward_prefix_length(path: Path) -> int:
    """Number of leading steps fully inside the forward fragment."""
    n = 0
    for step in path.steps:
        if step.axis.is_backward or pred_has_backward(step.predicate):
            break
        n += 1
    return n


@dataclass(frozen=True)
class MixedPlan:
    """The prepared split of a query: forward prefix + step-wise rest."""

    k: int
    prefix_asta: Optional[ASTA]


def run_mixed(
    path: Path,
    mplan: MixedPlan,
    index: TreeIndex,
    stats: EvalStats,
) -> Tuple[bool, List[int]]:
    """Execute a prepared :class:`MixedPlan`; (accepted, selected ids).
    Both parts book into ``stats``; ``selected`` is the final answer's."""
    k = mplan.k
    if k == 0:
        # The very first step is backward: start step-wise from the
        # document node (parent/ancestor of it are empty, so this is
        # usually empty unless a later segment recovers -- XPath agrees).
        context: List[int] = [-1]
    else:
        _, context = run_asta(mplan.prefix_asta, index, stats=stats)
    rest = path.steps[k:]
    if rest and context:
        selected = _eval_steps(index, tuple(rest), context, stats)
    elif rest:
        selected = []
    else:
        selected = context
    stats.selected = len(selected)
    return bool(selected), selected


@register_strategy
class MixedStrategy(Strategy):
    """Forward prefix on the ASTA engine + step-wise rest (Section 6)."""

    name = "mixed"
    fallback = None  # terminal: accepts every query

    def supports(self, path: Path) -> bool:
        return True

    def prepare(self, plan) -> None:
        # Split the path and compile its forward prefix once, through
        # the engine's shared cache (and its wildcard-label inventory),
        # so a Workspace compiles each prefix once across documents.
        k = forward_prefix_length(plan.path)
        prefix = Path(plan.path.absolute, plan.path.steps[:k])
        plan.artifacts["mixed"] = MixedPlan(
            k, plan.compile(prefix) if k else None
        )

    def explain(self, plan):
        path, mplan = plan.path, plan.artifacts["mixed"]
        lines = []
        if path.has_backward_axes():
            lines += [
                "mixed pipeline (backward axes):",
                f"  forward segment: {mplan.k} step(s) on the optimized engine",
                f"  remainder: {len(path.steps) - mplan.k} step(s) step-at-a-time",
            ]
        if mplan.k:
            lines.append(mplan.prefix_asta.describe())
        return lines

    def execute(self, plan, index, stats):
        return run_mixed(plan.path, plan.artifacts["mixed"], index, stats)
