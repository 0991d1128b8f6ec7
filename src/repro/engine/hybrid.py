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
worst case (pivot barely rarer than the top label).  Queries outside
the descendant-chain fragment resolve to the strategy's fallback,
``optimized``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines.stepwise import _eval_pred
from repro.counters import EvalStats
from repro.engine.registry import Strategy, register_strategy
from repro.index.jumping import TreeIndex
from repro.tree.binary import ID_DTYPE
from repro.xpath.ast import Axis, Path, pred_has_backward


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


def _verify_prefix_batch(
    index: TreeIndex,
    prefix_ids: List[int],
    starts: np.ndarray,
    stats: EvalStats,
) -> np.ndarray:
    """Greedy upward prefix check for all pivots at once.

    One vectorized parent-step per tree level: every still-undecided
    pivot climbs one ancestor and compares its label id against the
    prefix position it currently awaits -- O(height) numpy passes
    instead of O(|pivots| * height) interpreted steps.
    """
    parent = index.parent_array()
    label_of = index.label_of_array()
    pids = np.asarray(prefix_ids, dtype=ID_DTYPE)
    cur = parent.take(starts)
    j = np.full(starts.size, len(prefix_ids) - 1, dtype=np.int64)
    alive = cur >= 0
    walked = 0
    while True:
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        walked += int(idx.size)
        nodes = cur[idx]
        match = label_of.take(nodes) == pids[j[idx]]
        j[idx] -= match
        cur[idx] = parent.take(nodes)
        alive[idx] = (cur[idx] >= 0) & (j[idx] >= 0)
    stats.visited += walked
    return starts.compress(j < 0)


def _collect_suffix(
    index: TreeIndex,
    suffix: List[str],
    current: np.ndarray,
    stats: EvalStats,
) -> np.ndarray:
    """Descend //l(k+1)//...//ln from the verified pivots.

    Per level, the context is staircase-pruned to top-most nodes (nested
    subtree ranges are redundant for the descendant axis), then all
    context ranges are sliced out of the next label's sorted node array
    in one vectorized ``np.searchsorted`` pass.
    """
    # With no suffix the pivots themselves are the answer, nested ones
    # included (each was verified separately): distinct and sorted.
    xml_end = index.xml_end_array()
    out = current
    for label in suffix:
        if out.size == 0:
            break
        arr = index.labels.nodes_array(label)
        if arr.size == 0:
            out = arr
            break
        ends = xml_end.take(out)
        # Staircase prune: drop contexts nested in an earlier subtree
        # (their ranges are sub-ranges; skipped ends never exceed the
        # enclosing end, so the running maximum matches the kept chain).
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        if out.size > 1:
            keep[1:] = out[1:] >= np.maximum.accumulate(ends)[:-1]
        ctx = out.compress(keep)
        ctx_end = ends.compress(keep)
        lo = np.searchsorted(arr, ctx, side="right")
        hi = np.searchsorted(arr, ctx_end, side="left")
        counts = hi - lo
        total = int(counts.sum())
        stats.visited += total
        stats.index_probes += int(ctx.size)
        if total == 0:
            out = arr[:0]
            break
        offsets = np.cumsum(counts) - counts
        positions = np.repeat(lo - offsets, counts) + np.arange(total)
        out = arr.take(positions)
    return out


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
        path = plan.path
        tree = index.tree
        labels = [s.test for s in path.steps]
        k = plan_pivot(path, index)

        starts = index.labels.nodes_array(labels[k])
        stats.visited += int(starts.size)

        if k == 0:
            verified = starts
        else:
            prefix = [tree.label_id(name) for name in labels[:k]]
            if any(lab is None for lab in prefix):
                verified = starts[:0]  # a prefix label is not in the document
            else:
                verified = _verify_prefix_batch(index, prefix, starts, stats)

        selected = _collect_suffix(index, labels[k + 1 :], verified, stats)
        predicate = path.steps[-1].predicate
        if predicate is not None:
            keep = [
                _eval_pred(index, predicate, v, stats)
                for v in selected.tolist()
            ]
            selected = selected.compress(keep)
        stats.selected = int(selected.size)
        return selected.size > 0, selected
