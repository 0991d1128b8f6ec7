"""Dense-column join kernels: one table of physical operators per axis.

A location step joins a *frontier* (sorted context ids) with the
*candidates* of its node test (the sorted ids of a label set).  Node ids
are preorder ranks and the subtree of ``v`` is the id range ``[v,
xml_end[v])``, so every axis is an interval or a parent relation, and
"is there a relevant node below / beside this one" is answered per
element in O(1) from three dense columns of the
:class:`~repro.index.jumping.TreeIndex` instead of a binary search each:

- the **mark bitmap** (``TreeIndex.mark``) for membership: a child step
  is ``cand[mark(frontier)[parent[cand]]]``;
- a **rank column** per label-id set (``TreeIndex.rank``, LRU-cached):
  "has a member inside ``(v, xml_end[v])``" is ``rank[xml_end[v]] >
  rank[v + 1]``.  An array that is not a whole label set gets an ad-hoc
  column only when enough probes read it (:func:`_use_rank`), binary
  search below that;
- the **child CSR** (``TreeIndex.child_csr``): a small frontier gathers
  its children ranges and filters them by the label column, never
  touching the candidates.

:data:`OPERATORS` is the whole physical layer: per axis the operators
that can run the join, candidate side first, and the rule that picks one
from sizes known before the work starts.  Each operator states what it
touches; the kernel applies the rule to the arrays in hand
(:func:`join`), ``explain`` to its bounds (:func:`plan_operator`), and
states the operator that will run.  Predicates read the table from the
other end: "which of these nodes have a successor among the targets"
(:func:`successor_mask`) is the candidate-side mask of the inverse axis.
A rooted run of child and descendant steps joins nothing at all:
:func:`summary_run` reads it off the index's path summary.

Every operator returns a sorted, duplicate-free ``int32`` array, and all
scratch is per call, so plans run concurrently on one index.  Every
array of node ids here is ``int32`` and one width is kept throughout:
gathers are ``take`` (numpy's fancy indexing with an ``int32`` index
runs a slower general path), and no ``searchsorted`` or ``ufunc.at``
mixes widths (each would convert a whole array first).  Counters
(see ``EvalStats``): one ``jumps`` per pass; one ``index_probes`` per
element looked up in a bitmap, two per element located by rank column or
binary search, two per context range; ``visited`` for what a pass reads
to set marks or copies out, plus ``n`` for an ad-hoc rank column.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.counters import EvalStats
from repro.index.jumping import TreeIndex, rank_column
from repro.xpath.ast import Axis

#: A sorted label-id tuple: the cache key of a candidate array.
Key = Tuple[int, ...]

#: Key prefix of the top-most nodes of a label set (its staircase-pruned
#: form), a set as fixed as the label set and cached the same way.
_TOPS = (-1,)

#: A descendant step joins from the context side when the pruned
#: frontier is at most this fraction (1/x) of the candidate array: two
#: lookups per range plus a gather of the output beat one probe per
#: candidate up to about a quarter (measured on 2k- to 100k-element
#: arrays).
CONTEXT_SIDE_FACTOR = 4

#: An array that is not a whole label set is ranked ad hoc (one
#: ``np.repeat`` over ``n + 2`` slots) only when more than ``n /
#: RANK_FACTOR`` binary searches would read it otherwise.  Measured at
#: 212k nodes: the column costs ~0.45 ms, a binary-search probe ~55 ns,
#: a rank probe ~3 ns.
RANK_FACTOR = 16


class Operator(NamedTuple):
    """One physical join operator of an axis.  ``run(index, cand, key,
    frontier, src, stats)`` returns the candidates (all of label set
    ``key``) reached from ``frontier``; ``src`` is the frontier's label
    key if it is that whole label set (its rank column is cached), else
    ``None``.  ``cost(ctx, cnt, n, fan)`` states the array elements it
    reads or probes, from the frontier size, the candidate count, the
    document size and the children below the frontier."""

    name: str
    run: Callable
    cost: Callable


class Row(NamedTuple):
    """The operators of one axis and the rule that picks among them:
    ``choose(ctx, cnt, n, fan, ranked) -> position in ops``, ``fan`` a
    callable (asked only when the other sizes leave it open), ``ranked``
    whether the frontier's rank column is cached."""

    choose: Callable
    ops: Tuple[Operator, ...]


def _book(stats: EvalStats, visited: int, probes: int) -> None:
    stats.jumps += 1
    stats.visited += int(visited)
    stats.index_probes += int(probes)


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sort + adjacent compare (``np.unique`` is ~10x slower on these
    nearly sorted id arrays)."""
    if ids.size <= 1:
        return ids
    ids = np.sort(ids, kind="stable")
    keep = np.empty(ids.size, dtype=bool)
    keep[0] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids.compress(keep)


def _in_document_order(ids: np.ndarray) -> np.ndarray:
    """Gathers from nested context nodes interleave; from disjoint ones
    (the common case) they arrive sorted and nothing is done."""
    if ids.size > 1 and (ids[1:] < ids[:-1]).any():
        ids.sort()
    return ids


def _with_label(index: TreeIndex, nodes: np.ndarray, key: Key) -> np.ndarray:
    """The node test read off the label column."""
    labels = index.label_of_array().take(nodes)
    if len(key) == 1:
        return nodes.compress(labels == key[0])
    wanted = np.zeros(len(index.tree.labels), dtype=bool)
    wanted[list(key)] = True
    return nodes.compress(wanted.take(labels))


def _gather(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Positions of the concatenated ranges ``lo[r]:hi[r]``: output
    position k of range r reads ``lo[r] + k - (outputs before r)``."""
    counts = hi - lo
    take = np.arange(int(counts.sum()))
    take += np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return take


def staircase(index: TreeIndex, frontier: np.ndarray) -> np.ndarray:
    """Prune the frontier to top-most nodes: disjoint subtree ranges.

    Nested context subtrees are redundant for the descendant axis; the
    running maximum of ``xml_end`` drops them in one pass (subtree
    ranges either nest or are disjoint, so the survivors are pairwise
    disjoint and every candidate lies in at most one of them).
    """
    if frontier.size <= 1:
        return frontier
    ends = index.xml_end_array().take(frontier)
    keep = np.empty(frontier.size, dtype=bool)
    keep[0] = True
    np.greater_equal(
        frontier[1:], np.maximum.accumulate(ends)[:-1], out=keep[1:]
    )
    return frontier.compress(keep)


def _use_rank(cached: bool, probes: int, n: int) -> bool:
    """Whether ``probes`` binary searches are worth a rank column: an
    ad-hoc one by :data:`RANK_FACTOR`; one the index caches (a whole
    label set's) from a quarter of that, the build being shared by later
    runs -- and, evicted every time, still costing little more than the
    searches it replaced."""
    return probes * RANK_FACTOR * (4 if cached else 1) > n


def _rank_for(index: TreeIndex, ids: np.ndarray, key: Optional[Key], stats):
    """The rank column of ``ids``: cached when they are the whole label
    set ``key``, else built for this call (``n`` touches, booked)."""
    if key is not None:
        return index.rank(key, ids)
    stats.visited += index.tree.n
    return rank_column(ids, index.tree.n)


# -- masks: the candidate side of each join ----------------------------------
# ``(index, nodes, others, stats)``, two of them with a rank column of
# ``others`` (``None``: binary search) in between.


def _parent_in(index, nodes, marked, stats) -> np.ndarray:
    """Which of ``nodes`` have their parent among ``marked``."""
    _book(stats, marked.size, nodes.size)
    return index.mark(marked).take(index.parent_array().take(nodes))


def _parent_of(index, nodes, children, stats) -> np.ndarray:
    """Which of ``nodes`` are the parent of one of ``children``."""
    _book(stats, children.size, nodes.size)
    return index.mark(index.parent_array().take(children)).take(nodes)


def _contains(index, nodes, rank, targets, stats) -> np.ndarray:
    """Which of ``nodes`` have a target strictly inside their subtree
    range: a count between its two bounds."""
    _book(stats, 0, 2 * nodes.size)
    ends = index.xml_end_array().take(nodes)
    if rank is not None:
        return rank.take(ends) > rank[1:].take(nodes)
    return np.searchsorted(targets, ends, side="left") > np.searchsorted(
        targets, nodes, side="right"
    )


def _inside(index, nodes, rank, tops, stats) -> np.ndarray:
    """Which of ``nodes`` lie strictly inside the subtree of one of
    ``tops`` (staircase-pruned, so disjoint): count the tops before each
    node and hold it against the end of the last one (slot 0: none)."""
    _book(stats, 0, 2 * nodes.size)
    xml_end = index.xml_end_array()
    ends = np.zeros(tops.size + 1, dtype=xml_end.dtype)
    np.take(xml_end, tops, out=ends[1:])
    if rank is None:
        return nodes < ends.take(np.searchsorted(tops, nodes, side="left"))
    return nodes < ends.take(rank.take(nodes))


def _sibling(index, nodes, others, stats, following=False) -> np.ndarray:
    """Which of ``nodes`` come after (``following``: before) one of
    ``others`` among their siblings: the ones past the *first* (before
    the *last*) of them under their parent, kept per parent slot."""
    n = index.tree.n
    parent = index.parent_array()
    # ``others``' own width: ``ufunc.at`` over mixed widths is ~4x slower.
    edge = np.full(n + 2, -1 if following else n, dtype=others.dtype)
    at = (np.maximum if following else np.minimum).at
    at(edge, parent.take(others), others)
    _book(stats, others.size, nodes.size)
    edge = edge.take(parent.take(nodes))
    return edge > nodes if following else nodes > edge


# -- step operators ----------------------------------------------------------


def _filter(mask: Callable) -> Callable:
    """The candidates a bitmap-style mask keeps."""

    def run(index, cand, key, frontier, src, stats):
        return cand.compress(mask(index, cand, frontier, stats))

    return run


def _scan(mask: Callable, ranked: bool) -> Callable:
    """The candidates a counting mask keeps, each located in the
    frontier by its rank column or by binary search."""

    def run(index, cand, key, frontier, src, stats):
        stats.visited += int(cand.size)
        rank = _rank_for(index, frontier, src, stats) if ranked else None
        return cand.compress(mask(index, cand, rank, frontier, stats))

    return run


def _children_of(index, parents, stats) -> Tuple[np.ndarray, np.ndarray]:
    """The child lists of ``parents`` gathered from the CSR, with each
    list's length."""
    order, start = index.child_csr()
    lo, hi = start.take(parents), start.take(parents + 1)
    kids = order.take(_gather(lo, hi))
    _book(stats, kids.size, 2 * parents.size)
    return kids, hi - lo


def _child_csr(index, cand, key, frontier, src, stats):
    kids, _ = _children_of(index, frontier, stats)
    return _in_document_order(_with_label(index, kids, key))


def _sibling_csr(index, cand, key, frontier, src, stats):
    """The children of the frontier's parents, past each parent's first
    frontier child (a stable sort by parent puts it at the head of its
    group)."""
    fp = index.parent_array().take(frontier)
    by_parent = np.argsort(fp, kind="stable")
    fp = fp.take(by_parent)
    head = fp >= 0  # the root has no siblings
    head[1:] &= fp[1:] != fp[:-1]
    kids, fanout = _children_of(index, fp.compress(head), stats)
    firsts = frontier.take(by_parent).compress(head)
    kids = kids.compress(kids > np.repeat(firsts, fanout))
    return _in_document_order(_with_label(index, kids, key))


def _descendant_ranges(index, cand, key, tops, src, stats):
    """Context side (the array form of ``dt``/``ft`` jumping): each
    range ``(v, xml_end[v])`` is located in the candidates by its two
    bounds -- gathered from the candidates' own rank column when there
    are many -- and the slices between them are the answer, already
    sorted and disjoint because the ranges are."""
    ends = index.xml_end_array().take(tops)
    if _use_rank(True, 2 * tops.size, index.tree.n):
        rank = index.rank(key, cand)
        lo, hi = rank[1:].take(tops), rank.take(ends)
    else:
        lo = np.searchsorted(cand, tops, side="right")
        hi = np.searchsorted(cand, ends, side="left")
    if tops.size == 1:  # a view: nothing copied
        _book(stats, 0, 2)
        return cand[lo[0] : hi[0]]
    take = _gather(lo, hi)
    _book(stats, take.size, 2 * tops.size)
    return cand.take(take)


def _parent_gather(index, cand, key, frontier, src, stats):
    """Read off the frontier: its parents, filtered by the label column,
    then deduplicated by sorting (they arrive nearly in order).  The
    candidates are never touched, and nothing of size ``n`` is."""
    ps = index.parent_array().take(frontier)
    _book(stats, ps.size, 0)
    return sorted_unique(_with_label(index, ps.compress(ps >= 0), key))


def _pick_by_fanout(ctx, cnt, n, fan, ranked) -> int:
    """Context side when the children below the frontier are fewer than
    the candidates (a frontier as large as those never asks)."""
    return 1 if ctx < cnt and fan() < cnt else 0


def _pick_descendant(ctx, cnt, n, fan, ranked) -> int:
    """Context side for a frontier a quarter of the candidates or less;
    past that the candidate side if the frontier's rank column serves
    its probes, else still the context side while the *candidates'*
    column (always a whole label set's) serves the range bounds --
    gathers on either side before binary searches on any."""
    if ctx * CONTEXT_SIDE_FACTOR <= cnt:
        return 2
    if _use_rank(ranked, cnt, n):
        return 0
    return 2 if _use_rank(True, 2 * ctx, n) else 1


def _pick_ancestor(ctx, cnt, n, fan, ranked) -> int:
    return 0 if _use_rank(ranked, 2 * cnt, n) else 1


def _pick_parent(ctx, cnt, n, fan, ranked) -> int:
    """Context side for a frontier a quarter of the candidates or less:
    gathering and sorting the parents costs about four marks a node."""
    return 1 if ctx * CONTEXT_SIDE_FACTOR <= cnt else 0


def _marks(ctx, cnt, n, fan):  # marks set, candidates probed
    return ctx + cnt


def _probes(ctx, cnt, n, fan):  # each candidate read and located
    return 3 * cnt


_CHILD = Row(
    _pick_by_fanout,
    (
        Operator("child/mark", _filter(_parent_in), _marks),
        Operator("child/csr", _child_csr, lambda ctx, cnt, n, fan: 2 * ctx + fan),
    ),
)

#: Axis -> (rule, operators); position 0 is the candidate side.  The
#: descendant row is handed the staircase-pruned frontier.
OPERATORS: Dict[Axis, Row] = {
    Axis.CHILD: _CHILD,
    Axis.ATTRIBUTE: _CHILD,
    Axis.DESCENDANT: Row(
        _pick_descendant,
        (
            Operator("descendant/rank", _scan(_inside, True), _probes),
            Operator("descendant/search", _scan(_inside, False), _probes),
            Operator(
                "descendant/ranges",
                _descendant_ranges,
                lambda ctx, cnt, n, fan: 2 * ctx + (cnt if ctx > 1 else 0),
            ),
        ),
    ),
    Axis.FOLLOWING_SIBLING: Row(
        _pick_by_fanout,
        (
            Operator("following-sibling/mark", _filter(_sibling), _marks),
            Operator(
                "following-sibling/csr",
                _sibling_csr,
                lambda ctx, cnt, n, fan: 3 * ctx + fan,
            ),
        ),
    ),
    Axis.ANCESTOR: Row(
        _pick_ancestor,
        (
            Operator("ancestor/rank", _scan(_contains, True), _probes),
            Operator("ancestor/search", _scan(_contains, False), _probes),
        ),
    ),
    Axis.PARENT: Row(
        _pick_parent,
        (
            Operator("parent/mark", _filter(_parent_of), _marks),
            Operator("parent/gather", _parent_gather, lambda ctx, *_: ctx),
        ),
    ),
}


#: What ``explain`` calls :func:`summary_run`, stated with one touch per
#: candidate of the run's last step.
PATH_SUMMARY = "path/summary"


def summary_run(index, cand, rooted, stats) -> np.ndarray:
    """A rooted run answered from the path summary instead of one join
    per step: the candidates of its last step whose rooted label path
    the run reaches, one gather of the summary's ``pid`` over them.
    ``rooted`` is the bound mask over path ids, or ``True`` when every
    candidate's path is reached -- then, as when all of them match, the
    answer is the candidate array itself, so its rank key carries over."""
    if rooted is True:
        return cand
    _book(stats, 0, cand.size)
    out = cand.compress(rooted.take(index.path_summary().pid.take(cand)))
    return cand if out.size == cand.size else out


def _fanout(index: TreeIndex, axis: Axis, frontier: np.ndarray) -> int:
    """The children a context-side child / sibling join would gather
    (a parent shared by several frontier nodes counted for each)."""
    if axis is Axis.FOLLOWING_SIBLING:
        frontier = np.maximum(index.parent_array().take(frontier), 0)
    start = index.child_csr()[1]
    return int(start.take(frontier + 1).sum() - start.take(frontier).sum())


def join(
    index: TreeIndex, axis: Axis, cand, key: Key, frontier, src, stats
) -> np.ndarray:
    """One location step over a non-empty frontier: pick the row's
    operator from the sizes in hand and run it."""
    row = OPERATORS[axis]
    if axis is Axis.DESCENDANT:
        tops = staircase(index, frontier)
        if src is not None and tops.size != frontier.size:
            src = _TOPS + src
        frontier = tops
    fan = partial(_fanout, index, axis, frontier)
    at = row.choose(frontier.size, cand.size, index.tree.n, fan, src is not None)
    return row.ops[at].run(index, cand, key, frontier, src, stats)


def plan_operator(
    axis: Axis, ctx: int, cnt: int, n: int, fanout: float
) -> Tuple[Operator, float]:
    """The operator :func:`join` will pick for a frontier of ``ctx``
    nodes with ``fanout`` children each, and the touches it states.  An
    unfiltered previous step hands over a whole label set, so the
    frontier's rank column counts as cached."""
    row = OPERATORS[axis]
    fan = ctx * fanout
    op = row.ops[row.choose(ctx, cnt, n, lambda: fan, True)]
    return op, float(op.cost(ctx, cnt, n, fan))


def successor_mask(
    index: TreeIndex, axis: Axis, nodes, targets, key: Optional[Key], stats
) -> np.ndarray:
    """Which of ``nodes`` have an ``axis``-successor inside ``targets``
    (``key``: their label key if they are that whole label set): the
    candidate-side mask of the inverse axis' join."""
    if targets.size == 0:
        return np.zeros(nodes.size, dtype=bool)
    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        return _parent_of(index, nodes, targets, stats)
    if axis is Axis.PARENT:
        return _parent_in(index, nodes, targets, stats)
    if axis is Axis.FOLLOWING_SIBLING:
        return _sibling(index, nodes, targets, stats, following=True)
    if axis is Axis.ANCESTOR:
        tops = staircase(index, targets)
        if key is not None and tops.size != targets.size:
            key = _TOPS + key
        targets = tops
    down = axis is Axis.DESCENDANT  # else up: inside a target's subtree
    rank = None
    if _use_rank(key is not None, (1 + down) * nodes.size, index.tree.n):
        rank = _rank_for(index, targets, key, stats)
    return (_contains if down else _inside)(index, nodes, rank, targets, stats)
