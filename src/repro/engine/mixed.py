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
from typing import List, Optional, Tuple, Union

from repro.asta.automaton import ASTA
from repro.baselines.stepwise import eval_steps_from
from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.engine.registry import Strategy, register_strategy
from repro.index.jumping import TreeIndex
from repro.xpath.ast import Path, pred_has_backward
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath


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


def plan_mixed(path: Path, compile=compile_xpath) -> MixedPlan:
    """Split ``path`` and compile its forward prefix (once).

    ``compile`` lets callers route the prefix through a shared cache
    (the registered strategy passes ``PreparedQuery.compile``).
    """
    if not path.absolute:
        raise ValueError("mixed_evaluate expects an absolute query")
    k = forward_prefix_length(path)
    prefix_asta = compile(Path(path.absolute, path.steps[:k])) if k else None
    return MixedPlan(k, prefix_asta)


def run_mixed(
    path: Path,
    mplan: MixedPlan,
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
) -> Tuple[bool, List[int]]:
    """Execute a prepared :class:`MixedPlan`; (accepted, selected ids)."""
    k = mplan.k
    if k == 0:
        # The very first step is backward: start step-wise from the
        # document node (parent/ancestor of it are empty, so this is
        # usually empty unless a later segment recovers -- XPath agrees).
        context: List[int] = [-1]
    else:
        prefix_stats = EvalStats()
        _, context = run_asta(mplan.prefix_asta, index, stats=prefix_stats)
        if stats is not None:
            stats.merge(prefix_stats)
    rest = path.steps[k:]
    if rest and context:
        selected = eval_steps_from(index, tuple(rest), context, stats)
    elif rest:
        selected = []
    else:
        selected = context
    if stats is not None:
        stats.selected = len(selected)
    return bool(selected), selected


def mixed_evaluate(
    query: Union[str, Path],
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
) -> Tuple[bool, List[int]]:
    """(accepted, selected ids) for queries with backward axes."""
    path = parse_xpath(query) if isinstance(query, str) else query
    return run_mixed(path, plan_mixed(path), index, stats)


@register_strategy
class MixedStrategy(Strategy):
    """Forward prefix on the ASTA engine + step-wise rest (Section 6)."""

    name = "mixed"
    fallback = None  # terminal: accepts every query

    def supports(self, path: Path) -> bool:
        return True

    def prepare(self, plan) -> None:
        # The prefix automaton goes through the engine's shared cache
        # (and its wildcard-label inventory) so a Workspace compiles
        # each prefix once across documents.
        plan.artifacts["mixed"] = plan_mixed(
            plan.path, compile=plan.compile
        )

    def execute(self, plan, index, stats):
        return run_mixed(plan.path, plan.artifacts["mixed"], index, stats)
