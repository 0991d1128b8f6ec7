"""Top-down jumping functions ``dt``, ``ft``, ``lt``, ``rt`` (Definition 3.2).

These are the primitives that let a run touch only (approximately) relevant
nodes.  Over our id scheme they reduce to range queries on the per-label
sorted lists of :class:`~repro.index.labels.LabelIndex`:

- the *binary* subtree of ``v`` is the id range ``[v, bend(v))``,
- the followings of ``v`` below ``v0`` are ``[bend(v), bend(v0))``,

so ``dt`` and ``ft`` are O(|L| log n) binary searches.  ``lt`` and ``rt``
walk the left/right spine (O(depth) / O(#siblings)); the paper's index also
implements these by search, but the spine walk is what its implementation
section describes for the non-indexed fallback and is exact.

All functions return :data:`OMEGA` when no qualifying node exists, matching
the paper's error node Ω.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

from repro.index.labels import FusedLabels, LabelIndex
from repro.lru import LRUCache
from repro.tree.binary import NIL, BinaryTree

OMEGA = -2
"""The error node Ω of Definition 3.2 (distinct from the # sentinel)."""

#: Bound on cached rank columns per index.  A column is ``4 * (n + 2)``
#: bytes (0.85 MB at 212k nodes), so a full cache stays under 5% of the
#: resident size of a document that large.
RANK_CACHE_SIZE = 8


def postorder_from_xml_end(xml_end):
    """Postorder rank per node, derived from subtree end offsets alone.

    Node ids are preorder ranks and the XML subtree of ``v`` is the id
    range ``[v, xml_end[v])``, so a node *completes* (in postorder) when
    its subtree range closes: ascending ``xml_end``, with descending
    preorder id breaking ties (a node and its last-descendant chain all
    close at the same offset, deepest first).  One ``np.lexsort`` gives
    the completion order; scattering ``arange`` through it yields the
    rank array.  Used by :meth:`TreeIndex.post_array` and by
    :func:`repro.store.store.save_document` when persisting the optional
    ``post`` bundle column.
    """
    import numpy as np

    xml_end = np.asarray(xml_end, dtype=np.int64)
    n = xml_end.size
    pre = np.arange(n, dtype=np.int64)
    order = np.lexsort((-pre, xml_end))
    post = np.empty(n, dtype=np.int64)
    post[order] = pre
    return post


def rank_column(ids, n):
    """``rank[p]`` = number of ``ids`` (sorted, duplicate-free, all below
    ``n``) that are ``< p``, for ``p`` in ``[0, n + 2)``: each count is
    repeated over the gap up to the next id, one ``np.repeat``."""
    import numpy as np

    edges = np.empty(ids.size + 2, dtype=np.int64)
    edges[0] = 0
    edges[1:-1] = ids
    edges[1:-1] += 1
    edges[-1] = n + 2
    return np.repeat(
        np.arange(ids.size + 1, dtype=np.int32), np.diff(edges)
    )


class PathSummary:
    """The rooted label paths of a document, down to a depth.

    ``pid[v]`` is the id of the label sequence from the root down to
    ``v`` (``-1`` below the built depth), and path ``p`` extends path
    ``parent[p]`` by label ``label[p]`` -- a trie over (parent path,
    label).  Ids are assigned level by level, so the paths of ``d``
    labels are the ids ``levels[d - 1]:levels[d]`` -- the same ids in a
    summary of any depth, so a mask of a shallower summary reads a
    deeper one unchanged (its deeper ids are no match).

    A rooted run of child steps ``/t1/.../tk`` selects exactly the nodes
    of ``tk``'s candidates whose path spells a label of ``t1``, ..., one
    of ``tk`` -- the nodes the child joins would reach -- so it is
    answered by one gather of ``pid`` over those candidates
    (:meth:`mask`)."""

    def __init__(self, index: "TreeIndex", depth: int) -> None:
        import numpy as np

        label_of, parent = index.label_of_array(), index.parent_array()
        n = index.tree.n
        self.width = width = len(index.tree.labels)
        self.depth = depth
        self.pid = pid = np.full(n, -1, dtype=np.int32)
        pid[0] = 0
        parents, labels, levels = [np.full(1, -1)], [label_of[:1]], [0, 1]
        level = np.zeros(1, dtype=np.int64)  # the root
        for _ in range(depth - 1):
            # The next level -- one pass over the parent column, whose
            # spare slot absorbs the root's -1 -- and the (parent path,
            # label) pair each of its nodes extends, numbered from the
            # previous level's first path: the distinct pairs, in
            # order, are the new paths.
            marked = np.zeros(n + 1, dtype=bool)
            marked[level] = True
            level = np.flatnonzero(marked[parent])
            del marked
            if level.size == 0:
                break
            first, fresh = levels[-2], levels[-1]
            keys = (pid[parent[level]] - first).astype(np.int64)
            keys *= width
            keys += label_of[level]
            space = (fresh - first) * width
            if space <= keys.size:  # a table no larger than the level
                seen = np.zeros(space, dtype=bool)
                seen[keys] = True
                paths = np.flatnonzero(seen)
                inverse = (np.cumsum(seen) - 1)[keys]
            else:
                paths, inverse = np.unique(keys, return_inverse=True)
            del keys
            inverse += fresh
            pid[level] = inverse
            del inverse
            parents.append(paths // width + first)
            labels.append(paths % width)
            levels.append(fresh + paths.size)
        self.parent = np.concatenate(parents).astype(np.int32)
        self.label = np.concatenate(labels).astype(np.int32)
        self.levels = levels

    def mask(self, keys) -> "np.ndarray":
        """Which path ids spell the label sets ``keys`` (sorted label-id
        tuples, one per step, from the root): a ``bool`` over the ids of
        the first ``len(keys)`` levels and one spare ``False`` slot, read
        as ``np.take(mask, pid[nodes], mode="clip")`` -- an id of a
        deeper level clips to the spare slot, ``-1`` to the root's,
        which a run of two or more steps never matches."""
        import numpy as np

        levels = self.levels
        depth = len(keys)
        if depth >= len(levels):  # the document is not that deep
            return np.zeros(1, dtype=bool)
        ok = np.zeros(levels[depth] + 1, dtype=bool)
        wanted = np.zeros(self.width, dtype=bool)
        for d, key in enumerate(keys):
            lo, hi = levels[d], levels[d + 1]
            wanted[:] = False
            wanted[list(key)] = True
            hit = wanted[self.label[lo:hi]]
            if d:
                hit &= ok[self.parent[lo:hi]]
            ok[lo:hi] = hit
        ok[: levels[depth - 1]] = False
        return ok


class TreeIndex:
    """Bundles a :class:`BinaryTree` with its label index and jump functions."""

    def __init__(self, tree: BinaryTree, labels: Optional[LabelIndex] = None) -> None:
        self.tree = tree
        self.labels = labels if labels is not None else LabelIndex(tree)
        # label-id key -> rank column; its lock also guards the CSR and
        # path-summary builds.
        self._ranks = LRUCache(RANK_CACHE_SIZE, lock=True)

    def fused(self, label_ids: Iterable[int]) -> FusedLabels:
        """The cached merged node array of a label-id set (see
        :meth:`repro.index.labels.LabelIndex.fused`)."""
        return self.labels.fused(label_ids)

    def xml_end_array(self):
        """The tree's ``xml_end`` column (``np.int64``; the mapped bundle
        file itself for a store-backed document)."""
        return self.tree._columns["xml_end"]

    def parent_array(self):
        """The tree's ``parent`` column."""
        return self.tree._columns["parent"]

    def post_array(self):
        """Postorder rank per node as a cached ``np.int64`` array.

        Together with the preorder id this is the classic XPath-
        accelerator pre/post plane: ``u`` is an ancestor of ``v`` iff
        ``pre(u) < pre(v)`` and ``post(u) > post(v)``.  The join kernels
        read ``xml_end`` instead (the same window, projected on the
        preorder axis), so nothing in the engine needs this column any
        more; store bundles still persist it as an optional array
        (:data:`repro.store.format.OPTIONAL_ARRAY_DTYPES`), which
        :func:`repro.store.store.open_document` seeds ``_post_arr``
        from, and one ``np.lexsort`` pass derives it where absent.
        """
        arr = getattr(self, "_post_arr", None)
        if arr is None:
            arr = self._post_arr = postorder_from_xml_end(
                self.xml_end_array()
            )
        return arr

    # -- dense columns of the set-at-a-time join kernels ------------------------

    def mark(self, ids):
        """A fresh mark bitmap, ``bool[n + 2]`` with ``ids`` set: every
        membership test of the join kernels is one gather from it.  The
        last slot is never set and absorbs ``parent == -1``.  Built per
        call (a ``calloc`` plus one scatter), so concurrent plans on one
        index share nothing."""
        import numpy as np

        bitmap = np.zeros(self.tree.n + 2, dtype=bool)
        bitmap[ids] = True
        return bitmap

    def rank(self, key, cand):
        """The rank column of one label-id set: ``int32[n + 2]`` with
        ``rank[p]`` = how many of its nodes (``cand``, sorted) precede
        ``p``, so the count inside any id range is two gathers.  LRU-
        cached per sorted label-id tuple (:data:`RANK_CACHE_SIZE`), built
        under the cache's lock like :meth:`LabelIndex.fused`; eviction
        is transparent, a re-requested column is rebuilt."""
        cache = self._ranks
        with cache.lock:
            column = cache.get(key)
            if column is None:
                column = rank_column(cand, self.tree.n)
                cache.put(key, column)
        return column

    def child_csr(self):
        """The child lists in CSR form, ``(child_order, child_start)``:
        the children of ``p``, in document order, are
        ``child_order[child_start[p] : child_start[p + 1]]``.  One stable
        argsort of the parent column, built once on first use."""
        csr = getattr(self, "_child_csr", None)
        if csr is None:
            import numpy as np

            with self._ranks.lock:
                csr = getattr(self, "_child_csr", None)
                if csr is None:
                    parent = self.parent_array()
                    start = np.zeros(parent.size + 2, dtype=np.int32)
                    np.cumsum(
                        np.bincount(parent + 1, minlength=parent.size + 1),
                        out=start[1:],
                    )
                    # Slot 0 of ``start`` counts the parentless root(s),
                    # which sort first and are no one's children.
                    order = np.argsort(parent, kind="stable")[start[1] :]
                    csr = self._child_csr = (order, start[1:] - start[1])
        return csr

    def path_summary(self, depth: int) -> PathSummary:
        """The :class:`PathSummary` of this document, built at least
        ``depth`` levels deep: on first use, and rebuilt whenever a
        deeper run asks, under the same lock as the CSR build.  Nothing
        deeper than asked is walked, so ``/a/b`` on a chain 10^4 deep
        reads two levels."""
        summary = getattr(self, "_path_summary", None)
        if summary is None or summary.depth < depth:
            with self._ranks.lock:
                summary = getattr(self, "_path_summary", None)
                if summary is None or summary.depth < depth:
                    summary = PathSummary(self, depth)
                    self._path_summary = summary
        return summary

    def label_of_array(self):
        """The tree's ``label_of`` column."""
        return self.tree._columns["label_of"]

    # -- label helpers -------------------------------------------------------

    def label_ids(self, names: Iterable[str]) -> list[int]:
        """Intern a set of element names; silently drops absent labels.

        A label that never occurs in the document can never be jumped to,
        so dropping it is semantically transparent (the paper's index does
        the same: the jump simply returns Ω).
        """
        out = []
        for name in names:
            lab = self.tree.label_ids.get(name)
            if lab is not None:
                out.append(lab)
        return out

    def count(self, name: str) -> int:
        """Global count of a label, O(1) (used by the hybrid planner)."""
        return self.labels.count(name)

    # -- Definition 3.2 -------------------------------------------------------

    def dt(self, v: int, label_ids: Iterable[int]) -> int:
        """First (binary) descendant of ``v`` in document order with label in L."""
        hi = self.tree.bend(v)
        hit = self.labels.first_in_range(label_ids, v + 1, hi)
        return OMEGA if hit == -1 else hit

    def ft(self, v: int, label_ids: Iterable[int], v0: int) -> int:
        """First following node of ``v`` that is a (binary) descendant of ``v0``."""
        lo = self.tree.bend(v)
        hi = self.tree.bend(v0)
        if lo >= hi:
            return OMEGA
        hit = self.labels.first_in_range(label_ids, lo, hi)
        return OMEGA if hit == -1 else hit

    def lt(self, v: int, label_ids: Iterable[int]) -> int:
        """First node on the left-most path below ``v`` with label in L."""
        lab_set = set(label_ids)
        cur = self.tree.left[v]
        while cur != NIL:
            if self.tree.label_of[cur] in lab_set:
                return cur
            cur = self.tree.left[cur]
        return OMEGA

    def rt(self, v: int, label_ids: Iterable[int]) -> int:
        """First node on the right-most path below ``v`` with label in L."""
        lab_set = set(label_ids)
        cur = self.tree.right[v]
        while cur != NIL:
            if self.tree.label_of[cur] in lab_set:
                return cur
            cur = self.tree.right[cur]
        return OMEGA

    # -- derived enumerations --------------------------------------------------

    def topmost_in_subtree(self, v: int, label_ids: Iterable[int]) -> list[int]:
        """Top-most L-labelled nodes in the binary subtree of ``v``.

        Semantically ``pi0 = dt(v, L)``, then ``pi_{k+1} = ft(pi_k, L, v)``
        until Ω -- the recipe below Definition 3.2 -- but computed as a
        single walk over the fused label array: each step bisects the
        remaining suffix for ``bend(cur)`` instead of re-searching the
        whole array.
        """
        fused = self.labels.fused(label_ids)
        lst = fused.lst
        size = fused.size
        tree = self.tree
        hi = tree.bend(v)
        out: list[int] = []
        i = bisect_left(lst, v + 1)
        while i < size:
            cur = lst[i]
            if cur >= hi:
                break
            out.append(cur)
            i = bisect_left(lst, tree.bend(cur), i + 1)
        return out
