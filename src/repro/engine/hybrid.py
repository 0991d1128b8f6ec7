"""Hybrid (start-anywhere) evaluation (Section 4.4, Figure 5).

For a pure descendant chain ``//l1//l2//...//ln`` the evaluator:

1. reads the O(1) global label counts and picks the pivot step ``lk``
   with the fewest occurrences;
2. jumps directly to all ``lk``-labelled nodes;
3. checks the prefix ``//l1//...//l(k-1)`` *upwards* with parent moves
   (greedy nearest-ancestor matching -- exact for existence, and what the
   paper's implementation does since its index has no ancestor jumps);
4. collects the suffix ``//l(k+1)//...//ln`` *downwards* with staircase-
   pruned label-range scans.

Configurations A/B of Figure 5 (rare pivot) make this dramatically
cheaper than the regular top-down+bottom-up run; configuration D is its
worst case (pivot barely rarer than the top label).  For queries outside
the descendant-chain fragment, :func:`hybrid_evaluate` falls back to the
optimized engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.engine.registry import Strategy, register_strategy
from repro.index.jumping import TreeIndex
from repro.xpath.ast import Axis, Path, pred_has_backward
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath


def is_hybrid_applicable(path: Path) -> bool:
    """True for absolute descendant chains, optionally with one final
    forward predicate (the analogue of the paper's text predicates, which
    its hybrid strategy was designed for)."""
    if not path.absolute or not path.steps:
        return False
    for step in path.steps:
        # The chain is walked by label name: a wildcard has none, and
        # text() means the '#text' encoding, not a label "text()".
        if (
            step.axis is not Axis.DESCENDANT
            or step.test_matches_any()
            or step.test == "text()"
        ):
            return False
    if any(step.predicate is not None for step in path.steps[:-1]):
        return False
    return not pred_has_backward(path.steps[-1].predicate)


def plan_pivot(path: Path, index: TreeIndex) -> int:
    """Index of the rarest step label (the start-anywhere pivot)."""
    counts = [index.count(s.test) for s in path.steps]
    best = 0
    for i, c in enumerate(counts):
        if c < counts[best]:
            best = i
    return best


def hybrid_evaluate(
    query: "str | Path",
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
) -> Tuple[bool, List[int]]:
    """Evaluate with the start-anywhere strategy; returns (accepted, ids)."""
    path = parse_xpath(query) if isinstance(query, str) else query
    if not is_hybrid_applicable(path):
        asta = compile_xpath(path)
        return run_asta(asta, index, stats=stats)
    tree = index.tree
    labels = [s.test for s in path.steps]
    k = plan_pivot(path, index)

    starts = index.labels.nodes(labels[k])
    if stats is not None:
        stats.visited += len(starts)

    if k == 0:
        verified = starts
    else:
        prefix_ids = [tree.label_id(name) for name in labels[:k]]
        if any(lab is None for lab in prefix_ids):
            verified = []  # a prefix label absent from the document
        else:
            verified = _verify_prefix_batch(index, prefix_ids, starts, stats)

    selected = _collect_suffix(index, labels[k + 1 :], verified, stats)
    predicate = path.steps[-1].predicate
    if predicate is not None:
        from repro.baselines.stepwise import _eval_pred

        selected = [
            v for v in selected if _eval_pred(index, predicate, v, stats)
        ]
    if stats is not None:
        stats.selected = len(selected)
    return bool(selected), selected


def _verify_prefix_batch(
    index: TreeIndex,
    prefix_ids: List[int],
    starts: List[int],
    stats: Optional[EvalStats],
) -> List[int]:
    """Greedy upward prefix check for all pivots at once.

    One vectorized parent-step per tree level: every still-undecided
    pivot climbs one ancestor and compares its label id against the
    prefix position it currently awaits -- O(height) numpy passes
    instead of O(|pivots| * height) interpreted steps.
    """
    if not starts:
        return []
    parent = index.parent_array()
    label_of = index.label_of_array()
    pids = np.asarray(prefix_ids, dtype=np.int64)
    cur = parent[np.asarray(starts, dtype=np.int64)]
    j = np.full(len(starts), len(prefix_ids) - 1, dtype=np.int64)
    alive = cur >= 0
    walked = 0
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        walked += int(idx.size)
        nodes = cur[idx]
        match = label_of[nodes] == pids[j[idx]]
        j[idx] -= match
        cur[idx] = parent[nodes]
        alive[idx] = (cur[idx] >= 0) & (j[idx] >= 0)
    if stats is not None:
        stats.visited += walked
    ok = j < 0
    return [v for v, good in zip(starts, ok) if good]


def _collect_suffix(
    index: TreeIndex,
    suffix: List[str],
    current: List[int],
    stats: Optional[EvalStats],
) -> List[int]:
    """Descend //l(k+1)//...//ln from the verified pivots.

    Per level, the context is staircase-pruned to top-most nodes (nested
    subtree ranges are redundant for the descendant axis), then all
    context ranges are sliced out of the next label's sorted node array
    in one vectorized ``np.searchsorted`` pass.
    """
    if not suffix:
        # Pure bottom-up run: the pivots themselves are the answer, but
        # nested duplicates must be kept (each was verified separately) --
        # they are already distinct and sorted.
        return list(current)
    xml_end = index.xml_end_array()
    out = np.asarray(current, dtype=np.int64)
    for label in suffix:
        if out.size == 0:
            break
        arr = index.labels.nodes_array(label)
        if arr.size == 0:
            out = arr
            break
        ends = xml_end[out]
        # Staircase prune: drop contexts nested in an earlier subtree
        # (their ranges are sub-ranges; skipped ends never exceed the
        # enclosing end, so the running maximum matches the kept chain).
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        if out.size > 1:
            keep[1:] = out[1:] >= np.maximum.accumulate(ends)[:-1]
        ctx = out[keep]
        ctx_end = ends[keep]
        lo = np.searchsorted(arr, ctx, side="right")
        hi = np.searchsorted(arr, ctx_end, side="left")
        counts = hi - lo
        total = int(counts.sum())
        if stats is not None:
            stats.visited += total
            stats.index_probes += int(ctx.size)
        if total == 0:
            out = arr[:0]
            break
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(lo - offsets, counts) + np.arange(total)
        out = arr[positions]
    return [int(v) for v in out]


@register_strategy
class HybridStrategy(Strategy):
    """Start-anywhere evaluation for descendant chains (Section 4.4)."""

    name = "hybrid"
    fallback = "optimized"  # non-chain queries run the full ASTA machinery

    def supports(self, path: Path) -> bool:
        return is_hybrid_applicable(path)

    def explain(self, plan):
        k = plan_pivot(plan.path, plan.index)
        test = plan.path.steps[k].test
        return [
            f"hybrid plan: pivot step {k + 1} ({test}, "
            f"count {plan.index.count(test)})"
        ]

    def execute(self, plan, index, stats):
        return hybrid_evaluate(plan.path, index, stats)
