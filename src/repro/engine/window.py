"""Window joins: the XPath-accelerator strategy over pre/post columns.

The staircase-join line of work evaluates XPath axes relationally: give
every node its preorder rank ``pre`` (our node id) and postorder rank
``post``, and each axis becomes a two-dimensional *window* predicate on
the (pre, post) plane -- ``u`` is an ancestor of ``v`` iff
``pre(u) < pre(v)`` and ``post(u) > post(v)``.  Because subtree ranges
either nest or are disjoint, the window of a context node projects onto
the sorted preorder axis as the half-open interval ``[v, xml_end[v])``
(with ``post`` supplying the third coordinate, node depth, for free:
``depth = xml_end - 1 - post``).  Every location step then reduces to a
sorted-array interval join:

- **descendant** is window containment after *staircase pruning*: the
  running maximum of ``xml_end`` drops context windows covered by an
  already-accepted ancestor window (the shrunken-window rule), leaving
  pairwise-disjoint intervals joined from the smaller side -- few
  windows search their bounds in the candidates and take the slices
  between them, many are resolved by one batched binary search of the
  candidates (:func:`repro.engine.frontier._descendant_join`, shared);
- **child** is containment plus depth equality: frontier nodes of equal
  depth have pairwise-disjoint windows, so one searchsorted pass per
  frontier depth group -- probing only the candidate *depth bucket*
  ``d + 1`` -- finds every child;
- **following-sibling** joins right-adjacent windows under a shared
  parent: per unique parent ``p`` the window
  ``[xml_end[min child], xml_end[p])`` at depth ``depth(p) + 1``
  contains exactly the qualifying siblings;
- **ancestor** (a backward axis -- *outside* the vectorized fragment)
  inverts containment: a candidate qualifies iff the frontier has an
  element strictly inside its window, a two-sided ``searchsorted``
  count; **parent** is read off the frontier instead -- its parents,
  filtered by the label column -- and never touches the candidates.

Empty windows exit each step early.  The step loop and the predicate
logic (short-circuit ``and``/``or``, the per-context first-witness
search, the back-to-front match sets) are those of
:mod:`repro.engine.frontier`, run over this module's operators: the
steps above and window-count successor probes -- two-sided
``searchsorted`` over depth buckets -- instead of subtree
re-enumeration, which also buys native backward axes
(``ancestor::``/``parent::``) inside predicates, on either path.

The per-document state (the ``post``/``depth`` columns plus an LRU of
depth-bucketed candidate arrays keyed by label-id set) lives in a
:class:`WindowEncoding` cached on the :class:`~repro.index.jumping.TreeIndex`
-- shard slices build their own from local coordinates, and store
bundles persist the ``post`` column as an optional array so mmap-opened
corpora skip the derivation entirely.

Counters follow the vectorized redefinition (see ``frontier.py``), with
one refinement: ``visited`` counts the candidate elements a join
actually touches -- a depth-bucketed child step books only its bucket
slices, a context-side descendant join only the elements it copies
(two ``index_probes`` per window; a single window is a view and copies
nothing), a parent join the frontier's parents and no candidate at
all, which is exactly the advantage the planner's feedback loop should
see.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.counters import EvalStats
from repro.engine.frontier import (
    Kernel,
    _descendant_join,
    _in_sorted,
    _pred_mask,
    run_kernel,
    test_label_names,
)
from repro.engine.registry import StrategyBase, register_strategy
from repro.index.jumping import TreeIndex
from repro.lru import LRUCache
from repro.xpath.ast import Axis, Path, Step

_EMPTY = np.empty(0, dtype=np.int64)

#: Bound on cached depth-bucket partitions per document.
BUCKET_CACHE_SIZE = 256


def is_window_evaluable(path: Path) -> bool:
    """The fragment this evaluator covers natively: every *absolute*
    path, forward or backward -- ancestor/parent steps are first-class
    window predicates here, which makes ``window`` the only set-at-a-time
    strategy whose fragment strictly contains the vectorized one."""
    return path.absolute and bool(path.steps)


# -- per-document encoding ---------------------------------------------------


class DepthBuckets:
    """One sorted candidate array partitioned by node depth.

    ``ids`` holds the candidates reordered by ``(depth, pre)`` (a stable
    argsort keeps preorder inside each depth run), so the candidates at
    one depth are a contiguous, preorder-sorted slice -- the unit the
    child / following-sibling joins probe instead of the whole array.
    """

    __slots__ = ("ids", "depths", "bounds")

    def __init__(self, cand: np.ndarray, depth: np.ndarray) -> None:
        d = depth[cand]
        order = np.argsort(d, kind="stable")
        self.ids = cand[order]
        d = d[order]
        vals, starts = np.unique(d, return_index=True)
        self.depths = vals
        self.bounds = np.append(starts, d.size)

    def at(self, d: int) -> np.ndarray:
        """The candidates at depth ``d``, sorted by preorder id."""
        i = np.searchsorted(self.depths, d)
        if i >= self.depths.size or self.depths[i] != d:
            return _EMPTY
        return self.ids[self.bounds[i] : self.bounds[i + 1]]


class WindowEncoding:
    """Per-document window-join state, cached on the :class:`TreeIndex`.

    Holds the ``post``/``depth`` columns (materialized lazily by the
    index, or seeded from a store bundle's optional ``post`` array) and
    an LRU of :class:`DepthBuckets` keyed by the label-id set of a
    step's node test -- repeated executions of a prepared plan touch
    only the relevant depth slices, never re-partitioning.  Thread-safe
    for the parallel service's pool threads.
    """

    def __init__(self, index: TreeIndex) -> None:
        self.index = index
        self.post = index.post_array()
        self.depth = index.depth_array()
        # label-id tuple of a node test -> DepthBuckets
        self._buckets = LRUCache(BUCKET_CACHE_SIZE, lock=True)

    def cache_info(self) -> dict:
        return self._buckets.cache_info()

    def buckets(self, key: Tuple[int, ...], cand: np.ndarray) -> DepthBuckets:
        """The depth partition of one candidate array (LRU-cached)."""
        cache = self._buckets
        with cache.lock:
            b = cache.get(key)
        if b is None:
            b = DepthBuckets(cand, self.depth)
            with cache.lock:
                cache.put(key, b)
        return b


def get_encoding(index: TreeIndex) -> WindowEncoding:
    """The index's cached :class:`WindowEncoding` (built on first use).

    Shard slices are fresh :class:`TreeIndex` instances, so each shard
    lazily derives its own local columns -- the depth identity holds in
    any re-rooted slice.
    """
    enc = getattr(index, "_window_enc", None)
    if enc is None:
        enc = index._window_enc = WindowEncoding(index)
    return enc


# -- evaluation --------------------------------------------------------------


def evaluate(
    query: "str | Path",
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
) -> Tuple[bool, List[int]]:
    """Evaluate via window joins; returns ``(accepted, selected ids)``."""
    if isinstance(query, str):
        from repro.xpath.parser import parse_xpath

        path = parse_xpath(query)
    else:
        path = query
    if not is_window_evaluable(path):
        raise ValueError(
            f"query {str(path)!r} is outside the window-join fragment "
            "(absolute paths only)"
        )
    accepted, frontier = run_kernel(path, index, stats, _KERNEL)
    return accepted, frontier.tolist()


def _eval_step(
    index: TreeIndex,
    step: Step,
    frontier: Optional[np.ndarray],
    stats: Optional[EvalStats],
) -> np.ndarray:
    enc = get_encoding(index)
    cand, key = _candidates(index, step.axis, step.test)
    if stats is not None:
        stats.jumps += 1
    if cand.size == 0:
        return _EMPTY
    if frontier is None:
        # The implicit document node: its only child is the root, its
        # descendants are every node; no siblings, attributes, parent,
        # or ancestors.
        if step.axis is Axis.CHILD:
            out = cand[:1] if cand.size and cand[0] == 0 else _EMPTY
        elif step.axis is Axis.DESCENDANT:
            out = cand
        else:
            out = _EMPTY
        if stats is not None:
            stats.visited += int(out.size)
    elif step.axis in (Axis.CHILD, Axis.ATTRIBUTE):
        out = _child_join(enc, key, cand, frontier, stats)
    elif step.axis is Axis.DESCENDANT:
        out = _descendant_join(index, cand, frontier, stats)
    elif step.axis is Axis.FOLLOWING_SIBLING:
        out = _sibling_join(enc, key, cand, frontier, stats)
    elif step.axis is Axis.ANCESTOR:
        out = _ancestor_join(enc, cand, frontier, stats)
    elif step.axis is Axis.PARENT:
        out = _parent_join(index, key, frontier, stats)
    else:  # pragma: no cover - the Axis enum is exhausted above
        raise AssertionError(step.axis)
    if step.predicate is not None and out.size:
        out = out[_pred_mask(index, step.predicate, out, stats, _KERNEL)]
    return out


def _candidates(
    index: TreeIndex, axis: Axis, test: str
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Sorted candidate ids for a node test, plus the label-id cache key
    the depth-bucket LRU uses (same test resolution as ``frontier.py``)."""
    names = test_label_names(index.tree.labels, axis, test)
    label_ids = index.label_ids(names)
    if not label_ids:
        return _EMPTY, ()
    key = tuple(sorted(label_ids))
    if len(label_ids) == 1:
        return index.labels.nodes_array(index.tree.labels[label_ids[0]]), key
    return index.fused(label_ids).arr, key


def _merge_pieces(pieces: List[np.ndarray]) -> np.ndarray:
    """Re-sort per-depth-group results into one preorder-sorted array.

    The groups are disjoint node sets, so a sort of the (usually small)
    output is all that is needed to restore document order.
    """
    if not pieces:
        return _EMPTY
    if len(pieces) == 1:
        return pieces[0]
    return np.sort(np.concatenate(pieces))


# -- axis joins --------------------------------------------------------------


def _child_join(
    enc: WindowEncoding,
    key: Tuple[int, ...],
    cand: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Containment + depth equality, one pass per frontier depth group.

    Same-depth frontier windows are pairwise disjoint (equal-depth nodes
    never nest), so within a group every depth-``d+1`` candidate lies in
    at most one window -- no staircase needed, and pruning would be
    wrong: a nested frontier node's children must still match.
    """
    xml_end = enc.index.xml_end_array()
    buckets = enc.buckets(key, cand)
    fd = enc.depth[frontier]
    pieces: List[np.ndarray] = []
    for d in np.unique(fd):
        g = frontier[fd == d]
        sub = buckets.at(int(d) + 1)
        if sub.size == 0:
            continue
        if stats is not None:
            stats.jumps += 1
            stats.visited += int(sub.size)
            stats.index_probes += int(sub.size)
        j = np.searchsorted(g, sub, side="right") - 1
        clipped = np.maximum(j, 0)
        ok = (j >= 0) & (sub < xml_end[g[clipped]])
        if ok.any():
            pieces.append(sub[ok])
    return _merge_pieces(pieces)


def _sibling_join(
    enc: WindowEncoding,
    key: Tuple[int, ...],
    cand: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Right-adjacent windows under a shared parent.

    For each unique frontier parent ``p`` the qualifying siblings are
    exactly the depth-``depth(p)+1`` nodes in
    ``[xml_end[min frontier child of p], xml_end[p])``: the window sits
    inside ``p``'s subtree, and the only depth-``depth(p)+1`` nodes
    there are ``p``'s own children, past the first frontier child's
    subtree.  Same-depth parents have disjoint, ascending windows, so
    the join is again one searchsorted pass per parent depth group.
    """
    index = enc.index
    parent = index.parent_array()
    xml_end = index.xml_end_array()
    fp = parent[frontier]
    rooted = fp >= 0
    if not rooted.all():
        frontier = frontier[rooted]
        fp = fp[rooted]
    if frontier.size == 0:
        return _EMPTY
    uniq_p, first = np.unique(fp, return_index=True)
    starts = xml_end[frontier[first]]  # first frontier child's subtree end
    ends = xml_end[uniq_p]
    pd = enc.depth[uniq_p]
    buckets = enc.buckets(key, cand)
    pieces: List[np.ndarray] = []
    for d in np.unique(pd):
        sel = pd == d
        g_starts = starts[sel]
        g_ends = ends[sel]
        sub = buckets.at(int(d) + 1)
        if sub.size == 0:
            continue
        if stats is not None:
            stats.jumps += 1
            stats.visited += int(sub.size)
            stats.index_probes += int(sub.size)
        j = np.searchsorted(g_starts, sub, side="right") - 1
        clipped = np.maximum(j, 0)
        ok = (j >= 0) & (sub < g_ends[clipped])
        if ok.any():
            pieces.append(sub[ok])
    return _merge_pieces(pieces)


def _ancestor_join(
    enc: WindowEncoding,
    cand: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Reverse containment: ``c`` is an ancestor of a frontier node iff
    the frontier intersects ``c``'s window ``(c, xml_end[c])`` -- a
    two-sided searchsorted count per candidate.  This is the native
    backward axis the vectorized fragment lacks."""
    xml_end = enc.index.xml_end_array()
    if stats is not None:
        stats.jumps += 1
        stats.visited += int(cand.size)
        stats.index_probes += 2 * int(cand.size)
    lo = np.searchsorted(frontier, cand, side="right")
    hi = np.searchsorted(frontier, xml_end[cand], side="left")
    return cand[hi > lo]


def _parent_join(
    index: TreeIndex,
    key: Tuple[int, ...],
    frontier: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Ancestor containment pinned to one level, read off the frontier:
    its parents, filtered by the label column against the node test,
    sorted back into document order and deduplicated.  The candidate
    array is never touched, whatever its size."""
    ps = index.parent_array()[frontier]
    ps = ps[ps >= 0]
    if stats is not None:
        stats.jumps += 1
        stats.visited += int(ps.size)
    ps = ps[np.isin(index.label_of_array()[ps], key)]
    if ps.size <= 1:
        return ps
    # Sort + adjacent compare, not np.unique: its hash-based path is
    # ~10x slower on these nearly sorted id arrays (numpy 2.4).
    ps.sort()
    keep = np.empty(ps.size, dtype=bool)
    keep[0] = True
    np.not_equal(ps[1:], ps[:-1], out=keep[1:])
    return ps[keep]


# -- predicate successor probes as window counts -----------------------------


def _has_successor_mask(
    index: TreeIndex,
    axis: Axis,
    nodes: np.ndarray,
    targets: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Which of ``nodes`` have an ``axis``-successor inside ``targets``,
    as two-sided searchsorted window counts (no subtree re-enumeration)."""
    if targets.size == 0:
        return np.zeros(nodes.size, dtype=bool)
    xml_end = index.xml_end_array()
    if axis is Axis.DESCENDANT:
        if stats is not None:
            stats.jumps += 1
            stats.index_probes += 2 * int(nodes.size)
        lo = np.searchsorted(targets, nodes, side="right")
        hi = np.searchsorted(targets, xml_end[nodes], side="left")
        return hi > lo
    if axis is Axis.ANCESTOR:
        # Ancestors of v in T: {t < v} minus {xml_end[t] <= v} (a subtree
        # closing at or before v lies entirely before it; any other
        # earlier window must contain v).
        if stats is not None:
            stats.jumps += 1
            stats.index_probes += 2 * int(nodes.size)
        t_ends = np.sort(xml_end[targets])
        before = np.searchsorted(targets, nodes, side="left")
        closed = np.searchsorted(t_ends, nodes, side="right")
        return before > closed
    if axis is Axis.PARENT:
        return _in_sorted(index.parent_array()[nodes], targets, stats)
    depth = get_encoding(index).depth
    nd = depth[nodes]
    tb = DepthBuckets(targets, depth)
    mask = np.zeros(nodes.size, dtype=bool)
    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        # A target child of v is a depth[v]+1 target inside v's window.
        for d in np.unique(nd):
            sub = tb.at(int(d) + 1)
            if sub.size == 0:
                continue
            sel = nd == d
            vs = nodes[sel]
            if stats is not None:
                stats.jumps += 1
                stats.index_probes += 2 * int(vs.size)
            lo = np.searchsorted(sub, vs, side="right")
            hi = np.searchsorted(sub, xml_end[vs], side="left")
            mask[sel] = hi > lo
        return mask
    if axis is Axis.FOLLOWING_SIBLING:
        # A following sibling of v is a depth[v] target in the window
        # [xml_end[v], xml_end[parent[v]]).
        parent = index.parent_array()
        pv = parent[nodes]
        rooted = pv >= 0
        for d in np.unique(nd[rooted]):
            sub = tb.at(int(d))
            if sub.size == 0:
                continue
            sel = rooted & (nd == d)
            vs = nodes[sel]
            if stats is not None:
                stats.jumps += 1
                stats.index_probes += 2 * int(vs.size)
            lo = np.searchsorted(sub, xml_end[vs], side="left")
            hi = np.searchsorted(sub, xml_end[pv[sel]], side="left")
            mask[sel] = hi > lo
        return mask
    raise AssertionError(axis)  # pragma: no cover - the Axis enum is exhausted


_KERNEL = Kernel(_eval_step, _has_successor_mask)


@register_strategy
class WindowStrategy(StrategyBase):
    """Pre/post window joins with staircase pruning (XPath accelerator)."""

    name = "window"
    fallback = "optimized"  # relative paths route through the automata
    needs_asta = False
    parallel_safe = True

    def supports(self, path: Path) -> bool:
        return is_window_evaluable(path)

    def execute(self, plan, index, stats):
        return run_kernel(plan.path, index, stats, _KERNEL)
