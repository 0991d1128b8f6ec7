"""Staircase join primitives (Grust et al. [9]).

Over our preorder-id encoding, the XML subtree of ``v`` is the contiguous
range ``[v, xml_end[v])``, so the staircase join's core tricks become
range operations:

- *pruning*: for the descendant axis, context nodes nested inside another
  context node's subtree are redundant -- keep only the top-most ones;
- *skipping*: after pruning, the per-context ranges are disjoint, so each
  document node is scanned at most once.

The paper's Related Work points out that staircase pruning is an instance
of its subtree-skipping: "only the top-most independent context nodes are
considered, i.e., their subtrees are skipped".

:func:`topmost_prune` is the same prune as
:func:`repro.engine.joins.staircase` and is kept apart on purpose: this
module is the paper-record baseline the experiments hold the engines
against (a ``BinaryTree`` and Python lists, one node per step, no
``TreeIndex``, no numpy), so it must not quietly inherit the vectorized
kernel's array pass -- and every change made to that kernel.
"""

from __future__ import annotations

from typing import List, Optional

from repro.counters import EvalStats
from repro.index.labels import LabelIndex
from repro.tree.binary import BinaryTree


def topmost_prune(tree: BinaryTree, nodes: List[int]) -> List[int]:
    """Keep only context nodes not contained in an earlier one's subtree.

    ``nodes`` must be sorted (document order); the result is too.
    """
    out: List[int] = []
    prev_end = -1
    for v in nodes:
        if v >= prev_end:
            out.append(v)
            prev_end = tree.xml_end[v]
    return out


def descendants_with_label(
    tree: BinaryTree,
    labels: LabelIndex,
    context: List[int],
    label: Optional[str],
    stats: EvalStats,
) -> List[int]:
    """Staircase-joined descendant step: all l-labelled descendants of
    the context, duplicate-free and in document order.

    Faithful to the relational staircase join [9]: after pruning, each
    context's preorder range of the node table is *scanned* and filtered
    by tag (MonetDB has no per-tag position lists -- tag filtering is a
    selection over the scanned range).  ``label=None`` is the wildcard.
    ``stats.visited`` counts scanned tuples, the join's real work.
    """
    pruned = topmost_prune(tree, context)
    out: List[int] = []
    label_of = tree.label_of
    lab = None if label is None else tree.label_ids.get(label)
    if label is not None and lab is None:
        for v in pruned:
            stats.visited += tree.xml_end[v] - v - 1
        return out
    for v in pruned:
        end = tree.xml_end[v]
        stats.visited += end - v - 1
        if lab is None:
            out.extend(range(v + 1, end))
        else:
            out.extend(w for w in range(v + 1, end) if label_of[w] == lab)
    return out
