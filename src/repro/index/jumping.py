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
from typing import Iterable, Optional, Tuple

from repro.index.labels import FusedLabels, LabelIndex
from repro.lru import LRUCache
from repro.tree.binary import ID_DTYPE, NIL, BinaryTree
from repro.xpath.ast import Axis

OMEGA = -2
"""The error node Ω of Definition 3.2 (distinct from the # sentinel)."""

#: Bound on cached rank columns per index.  A column is ``4 * (n + 2)``
#: bytes (0.85 MB at 212k nodes), so a full cache stays under 5% of the
#: resident size of a document that large.
RANK_CACHE_SIZE = 8


def rank_column(ids, n):
    """``rank[p]`` = number of ``ids`` (sorted, duplicate-free, all below
    ``n``) that are ``< p``, for ``p`` in ``[0, n + 2)``: each count is
    repeated over the gap up to the next id, one ``np.repeat``.  An
    ``int32`` column: ``n + 2`` fits it (:data:`repro.tree.binary.MAX_NODES`)."""
    import numpy as np

    edges = np.empty(ids.size + 2, dtype=ID_DTYPE)
    edges[0] = 0
    edges[1:-1] = ids
    edges[1:-1] += 1
    edges[-1] = n + 2
    return np.repeat(
        np.arange(ids.size + 1, dtype=ID_DTYPE), np.diff(edges)
    )


class PathSummary:
    """The rooted label paths of a document: a strong DataGuide (Goldman
    & Widom, VLDB 1997), as a trie numbered in preorder.

    ``pid[v]`` is the id of the label sequence from the root down to
    ``v``.  Path ``p`` extends path ``parent[p]`` by label ``label[p]``,
    ``count[p]`` nodes have it, and the paths below it are the ids
    ``p + 1 : end[p]``.  Each of those per-path arrays has one spare last
    slot, id ``m`` -- the root's ``parent``, no label, below nothing --
    so a set of paths is a ``bool[m + 1]`` whose spare slot stays
    ``False``, and one location step over such a set costs a few passes
    over the ``m`` paths, not the ``n`` nodes (:meth:`step`).

    The trie decides what the label path of a node decides: the nodes
    a rooted run of child and descendant steps reaches are the
    candidates whose path the run's pattern matches, and whether a node
    has an ancestor of some label, or a descendant, is a property of
    its path (exactly, when the path holds that node alone).  Built
    once, level by level over the nodes grouped by depth, so O(n) in
    all."""

    def __init__(self, index: "TreeIndex") -> None:
        import numpy as np

        label_of, parent = index.label_of_array(), index.parent_array()
        xml_end = index.xml_end_array()
        n = index.tree.n
        self.width = width = len(index.tree.labels)
        # Depth per node, in place in one column: node ``v`` is ``v``
        # nodes in, less those whose subtree closed by ``v`` (its
        # non-ancestors).  A stable sort of small unsigned ints (a radix
        # sort in numpy) then lines the nodes up level by level, each
        # level in document order, ``ends[d]`` of them at depth <= ``d``.
        depth = np.bincount(xml_end, minlength=n + 1)[:n]
        np.subtract(1, depth, out=depth)
        depth[0] = 0
        np.cumsum(depth, out=depth)
        ends = np.cumsum(np.bincount(depth)).tolist()
        depth = depth.astype(np.min_scalar_type(len(ends)))
        order = np.argsort(depth, kind="stable").astype(np.int32)
        del depth
        pid = np.zeros(n, dtype=np.int32)
        parents, labels, levels = [np.full(1, -1)], [label_of[:1]], [0, 1]
        for lo, hi in zip(ends, ends[1:]):
            # The (parent path, label) pair each node of the level
            # extends, numbered from the previous level's first path:
            # the distinct pairs, in order, are the new paths.
            level = order[lo:hi]
            first, fresh = levels[-2], levels[-1]
            keys = pid.take(parent.take(level)).astype(np.int64)
            keys -= first
            keys *= width
            keys += label_of.take(level)
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
            parents.append(paths // width + first)
            labels.append(paths % width)
            levels.append(fresh + paths.size)
        del order
        up, label = np.concatenate(parents), np.concatenate(labels)
        m = up.size
        # Renumber in preorder: a path's preorder id is its parent's,
        # plus one, plus the sizes of its siblings numbered before it.
        # Sizes add up bottom-up one trie level at a time; ``up`` is
        # sorted (by level, then parent), so the sibling sums are one
        # pass; the ids add up top-down.
        size = np.ones(m, dtype=np.int64)
        for d in range(len(levels) - 2, 0, -1):  # the deepest level first
            above, lo, hi = levels[d - 1], levels[d], levels[d + 1]
            size[above:lo] += np.bincount(
                up[lo:hi] - above, weights=size[lo:hi], minlength=lo - above
            ).astype(np.int64)
        pre = np.cumsum(size) - size
        starts = np.flatnonzero(np.diff(up, prepend=-2))
        pre -= np.repeat(pre[starts], np.diff(starts, append=m))
        pre += 1
        pre[0] = 0
        for lo, hi in zip(levels[1:], levels[2:]):
            pre[lo:hi] += pre[up[lo:hi]]
        self.pid = pre.astype(np.int32)[pid]
        del pid
        self.parent = np.full(m + 1, m, dtype=np.int64)
        self.parent[pre[1:]] = pre[up[1:]]
        self.label = np.full(m + 1, width, dtype=np.int64)
        self.label[pre] = label
        self.end = np.full(m + 1, m + 1, dtype=np.int64)
        self.end[pre] = pre + size
        self.count = np.bincount(self.pid, minlength=m + 1)
        # What a witness on a path decides about each of its nodes: all
        # of them (2) when the path holds one node, else only some (1).
        self.witnessed = np.where(self.count == 1, 2, 1).astype(np.int8)
        self.ids = np.arange(m + 1)
        self.root = self.ids == 0  # the document node's one child
        self._labelled: dict = {}
        self._labelled_counts: dict = {}

    def labelled(self, key) -> "np.ndarray":
        """The paths that end in a label of ``key`` (a sorted label-id
        tuple), read-only and cached per key: node tests name a label,
        or one of the few sets ``*`` / ``node()`` stand for."""
        paths = self._labelled.get(key)
        if paths is None:
            import numpy as np

            wanted = np.zeros(self.width + 1, dtype=bool)
            wanted[list(key)] = True
            paths = wanted[self.label]
            paths.flags.writeable = False
            self._labelled_counts[key] = int(np.count_nonzero(paths))
            self._labelled[key] = paths
        return paths

    def labelled_count(self, key) -> int:
        """How many paths :meth:`labelled` holds for ``key``."""
        self.labelled(key)
        return self._labelled_counts[key]

    def step(self, axis: Axis, paths) -> "np.ndarray":
        """The paths one ``axis`` step reaches from the set ``paths``
        (node test not applied): what the join of that axis reaches from
        nodes of those paths."""
        import numpy as np

        if axis in (Axis.CHILD, Axis.ATTRIBUTE):
            return paths[self.parent]
        out = np.zeros(paths.size, dtype=bool)
        if axis is Axis.PARENT:
            out[self.parent[paths]] = True
            out[-1] = False
        elif axis is Axis.DESCENDANT:
            # Inside a range of ``paths``: one opened before ``q`` (the
            # running maximum of their ends) still open past it.
            reach = self.end * paths
            np.maximum.accumulate(reach, out=reach)
            np.greater(reach[:-1], self.ids[1:], out=out[1:])
        else:  # ancestor: the first member after ``p`` lies in its range
            assert axis is Axis.ANCESTOR
            after = np.where(paths, self.ids, paths.size)
            np.minimum.accumulate(after[::-1], out=after[::-1])
            np.less(after[1:], self.end[:-1], out=out[:-1])
        return out


class TreeIndex:
    """Bundles a :class:`BinaryTree` with its label index and jump functions."""

    def __init__(self, tree: BinaryTree, labels: Optional[LabelIndex] = None) -> None:
        self.tree = tree
        self.labels = labels if labels is not None else LabelIndex(tree)
        # label-id key -> rank column; its lock also guards the CSR and
        # path-summary builds.
        self._ranks = LRUCache(RANK_CACHE_SIZE, lock=True)
        self._path_summary: Optional[PathSummary] = None
        self._rent = 0  # touches booked by joins the summary would replace
        self._wildcards: Optional[dict] = None

    def fused(self, label_ids: Iterable[int]) -> FusedLabels:
        """The cached merged node array of a label-id set (see
        :meth:`repro.index.labels.LabelIndex.fused`)."""
        return self.labels.fused(label_ids)

    def xml_end_array(self):
        """The tree's ``xml_end`` column (``int32``; the mapped bundle
        file itself for a store-backed document)."""
        return self.tree._columns["xml_end"]

    def parent_array(self):
        """The tree's ``parent`` column."""
        return self.tree._columns["parent"]

    # -- dense columns of the set-at-a-time join kernels ------------------------

    def mark(self, ids):
        """A fresh mark bitmap, ``bool[n + 2]`` with ``ids`` set: every
        membership test of the join kernels is one gather from it.  The
        last slot is never set and absorbs ``parent == -1``.  Built per
        call (a ``calloc`` plus one scatter), so concurrent plans on one
        index share nothing."""
        import numpy as np

        bitmap = np.zeros(self.tree.n + 2, dtype=bool)
        # A scatter indexes fastest with ``intp``: numpy's fancy
        # assignment with an ``int32`` index runs a slower general path.
        bitmap[np.asarray(ids, dtype=np.intp)] = True
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
        """The child lists in CSR form, ``(child_order, child_start)``,
        both ``int32``: the children of ``p``, in document order, are
        ``child_order[child_start[p] : child_start[p + 1]]``.  One stable
        argsort of the parent column, built once on first use."""
        csr = getattr(self, "_child_csr", None)
        if csr is None:
            import numpy as np

            with self._ranks.lock:
                csr = getattr(self, "_child_csr", None)
                if csr is None:
                    parent = self.parent_array()
                    start = np.zeros(parent.size + 2, dtype=ID_DTYPE)
                    np.cumsum(
                        np.bincount(parent + 1, minlength=parent.size + 1),
                        out=start[1:],
                    )
                    # Slot 0 of ``start`` counts the parentless root(s),
                    # which sort first and are no one's children.
                    order = np.argsort(parent, kind="stable")[start[1] :]
                    order = order.astype(ID_DTYPE)
                    csr = self._child_csr = (order, start[1:] - start[1])
        return csr

    def path_summary(self, touches: int = 0) -> Optional[PathSummary]:
        """The :class:`PathSummary` of this document, or ``None`` until the
        joins it would replace have cost as much as building it (ski
        rental): a plan bound to those joins adds the ``touches`` each of
        its runs booked, and once the total reaches ``n`` -- the price of
        the O(n) build -- the summary is built, under the same lock as
        the CSR.  ``path_summary(n)`` builds it at once."""
        summary = self._path_summary
        if summary is None and touches:
            with self._ranks.lock:
                summary = self._path_summary
                if summary is None:
                    self._rent += touches
                    if self._rent >= self.tree.n:
                        summary = self._path_summary = PathSummary(self)
        return summary

    def label_of_array(self):
        """The tree's ``label_of`` column."""
        return self.tree._columns["label_of"]

    # -- label helpers -------------------------------------------------------

    def node_test(self, axis: Axis, test: str) -> Tuple[Tuple[int, ...], int]:
        """``(key, size)`` of a node test on this document: the sorted
        label-id tuple of the labels it matches (``()`` for a name the
        document does not hold) and how many nodes carry them -- the
        single place node-test semantics live.  A name matches its label
        (``@name`` on the attribute axis) and ``text()`` the ``#text``
        label, one dict lookup each; ``*`` and ``node()`` read a table of
        this document built on first use (:meth:`_wildcard_table`)."""
        attribute = axis is Axis.ATTRIBUTE
        if test == "*" or test == "node()":
            table = self._wildcards
            if table is None:
                table = self._wildcards = self._wildcard_table()
            return table[attribute, test]
        if attribute:
            test = "@" + test
        elif test == "text()":
            test = "#text"
        lab = self.tree.label_ids.get(test)
        if lab is None:
            return (), 0
        return (lab,), self.labels.union((lab,)).size

    def _wildcard_table(self) -> dict:
        """``(on the attribute axis, test) -> (key, size)`` of the
        wildcards: ``*`` is every element label, ``node()`` every label,
        and on the attribute axis both are every attribute label."""
        labels = self.tree.labels
        attributes = [lab for lab, name in enumerate(labels) if name[:1] == "@"]
        elements = [
            lab for lab, name in enumerate(labels) if name[:1] not in ("@", "#")
        ]
        table = {}
        for attribute, test, ids in (
            (True, "*", attributes),
            (True, "node()", attributes),
            (False, "*", elements),
            (False, "node()", range(len(labels))),
        ):
            size = sum(self.labels.union((lab,)).size for lab in ids)
            table[attribute, test] = tuple(ids), size
        return table

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
