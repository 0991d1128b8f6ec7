"""Per-label node lists with O(1) global counts and fused jump arrays.

SXSI's compressed text/tree indexes expose, for every element name, the
ability to jump to labelled descendants/followings and to read the global
count of a label in constant time (Section 5).  This module is the
Python-level equivalent: for each label, the sorted array of node ids
(document order).  Because :class:`~repro.tree.binary.BinaryTree` ids *are*
document order, these arrays are produced already sorted.

Jump targets are label *sets* (the essential labels of a tda state set),
and a per-label search pays O(|L| log n) per jump.  :meth:`LabelIndex.fused`
therefore caches, per distinct label-id set, the *merged* sorted union of
the per-label arrays, so ``dt``/``ft`` collapse to a single binary search
over one fused array.  The fused cache never needs *invalidation*: a
:class:`LabelIndex` belongs to one immutable tree, so the per-label arrays
(and hence any union of them) are fixed for its lifetime.  It is,
however, LRU-*bounded* (:data:`FUSED_CACHE_SIZE` entries): a long-lived
service that streams distinct queries past one document would otherwise
accumulate one merged union per distinct label set forever.  Eviction is
semantically transparent -- a re-requested union is simply re-merged --
and :meth:`LabelIndex.cache_info` reports hits/misses/evictions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Protocol, Sequence

import numpy as np

from repro.lru import LRUCache

#: Default LRU capacity of the per-index fused-union cache (entries,
#: counting the as-given-ordering aliases).  Override per index via the
#: ``fused_cache_size`` attribute.
FUSED_CACHE_SIZE = 256


class _LabelledTree(Protocol):
    n: int
    labels: list[str]
    label_of: Sequence[int]

    def label_id(self, name: str) -> Optional[int]: ...


class _ListOnFirstRead:
    """``fused.lst``, a non-data descriptor: the first read builds the
    list and sets it on the instance, where it shadows this descriptor."""

    def __get__(self, fused, owner=None):
        if fused is None:
            return self
        fused.lst = lst = fused.arr.tolist()
        return lst


class FusedLabels:
    """The merged sorted node ids of one label-id set.

    ``arr`` is the fused ``np.int64`` array (for vectorized range slicing);
    ``lst`` is its plain-list mirror, which the node-at-a-time
    evaluator's inner loop probes with :func:`bisect.bisect_left` (a C
    scalar search without the per-call ufunc overhead of
    ``np.searchsorted``).  The mirror is built by the first scalar probe:
    the set-at-a-time kernels read ``arr`` only and never pay for it.
    """

    def __init__(self, arr: np.ndarray) -> None:
        self.arr = arr
        self.size = len(arr)

    lst = _ListOnFirstRead()

    def __reduce__(self):
        return (FusedLabels, (self.arr,))

    def first_at_or_after(self, lo: int, hi: int) -> int:
        """Smallest fused id in ``[lo, hi)``, or ``-1``."""
        lst = self.lst
        i = bisect_left(lst, lo)
        if i < self.size:
            v = lst[i]
            if v < hi:
                return v
        return -1


class _ListMirrors:
    """``mirrors[lab]``: the plain-list mirror of ``arrays[lab]``, built
    the first time it is asked for (by :meth:`LabelIndex.nodes`, the
    scalar bisects of the baselines and the hybrid strategy)."""

    __slots__ = ("_arrays", "_built")

    def __init__(self, arrays: List[np.ndarray]) -> None:
        self._arrays = arrays
        self._built: Dict[int, List[int]] = {}

    def __getitem__(self, lab: int) -> List[int]:
        mirror = self._built.get(lab)
        if mirror is None:
            mirror = self._built[lab] = self._arrays[lab].tolist()
        return mirror

    def __reduce__(self):
        return (_ListMirrors, (self._arrays,))


class LabelIndex:
    """Sorted id arrays per label, plus O(1) counts and fused unions.

    Works over any tree exposing ``labels`` / ``label_of`` in preorder
    (both :class:`BinaryTree` and :class:`SuccinctTree` qualify).
    """

    def __init__(self, tree: _LabelledTree) -> None:
        # A BinaryTree is asked for its column, not for the list mirror.
        columns = getattr(tree, "_columns", None)
        label_of = np.asarray(
            tree.label_of if columns is None else columns["label_of"],
            dtype=np.int64,
        )
        ids = np.argsort(label_of, kind="stable")  # node ids, by label
        bounds = np.searchsorted(
            label_of[ids], np.arange(len(tree.labels) + 1)
        ).tolist()
        self._adopt(tree, [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])])

    def _adopt(self, tree: _LabelledTree, arrays: List[np.ndarray]) -> None:
        self.tree = tree
        self._arrays = arrays
        self._lists = _ListMirrors(arrays)
        self._fused = LRUCache(FUSED_CACHE_SIZE, lock=True)

    @property
    def fused_cache_size(self) -> int:
        """Bound of the fused-union LRU (default
        :data:`FUSED_CACHE_SIZE`); assignable."""
        return self._fused.maxsize

    @fused_cache_size.setter
    def fused_cache_size(self, size: int) -> None:
        self._fused.maxsize = size

    @classmethod
    def sliced(
        cls,
        parent: "LabelIndex",
        tree: _LabelledTree,
        lo: int,
        hi: int,
        offset: int,
        root_label: int,
    ) -> "LabelIndex":
        """Shard label index carved out of ``parent`` without re-sorting.

        ``parent`` indexes the full document; the shard covers the global
        preorder range ``[lo, hi)`` re-rooted under the document root, so
        local ids are ``global - offset`` (and local 0 is the root, whose
        label id is ``root_label``).  Each per-label array is a binary-
        search slice of the parent's already-sorted array -- O(|Σ| log n
        + m) total instead of the O(m log m) argsort of a fresh build.
        """
        self = cls.__new__(cls)
        arrays: List[np.ndarray] = []
        root_arr = np.zeros(1, dtype=np.int64)
        for lab, arr in enumerate(parent._arrays):
            i0, i1 = np.searchsorted(arr, [lo, hi], side="left")
            local = arr[i0:i1] - offset
            if lab == root_label:
                local = np.concatenate([root_arr, local])
            arrays.append(local)
        self._adopt(tree, arrays)
        return self

    @classmethod
    def from_state(
        cls,
        tree: _LabelledTree,
        ids: np.ndarray,
        boundaries: np.ndarray,
    ) -> "LabelIndex":
        """Rehydrate from persisted state (see :meth:`state`).

        ``ids`` is the concatenation of every label's sorted node-id
        array; ``boundaries[lab] : boundaries[lab + 1]`` delimits label
        ``lab``.  Per-label arrays become zero-copy views of ``ids`` (a
        memory-mapped store array stays mapped) and nothing is copied:
        no argsort runs -- the sort was paid once at store-build time --
        and the list mirrors wait for a scalar reader.
        """
        self = cls.__new__(cls)
        if len(boundaries) != len(tree.labels) + 1:
            raise ValueError(
                f"label index has {len(boundaries) - 1} labels, "
                f"tree has {len(tree.labels)}"
            )
        bounds = boundaries.tolist()
        self._adopt(
            tree,
            [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
        )
        return self

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """The persistable ``(ids, boundaries)`` pair for :meth:`from_state`."""
        boundaries = np.zeros(len(self._arrays) + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self._arrays], out=boundaries[1:])
        ids = (
            np.concatenate(self._arrays)
            if self._arrays
            else np.empty(0, dtype=np.int64)
        )
        return ids, boundaries

    def count(self, label: str) -> int:
        """Global number of nodes with this element name (O(1))."""
        lab = _label_id(self.tree, label)
        return 0 if lab is None else len(self._arrays[lab])

    def nodes(self, label: str) -> list[int]:
        """All nodes with this label, in document order."""
        lab = _label_id(self.tree, label)
        return [] if lab is None else self._lists[lab]

    def nodes_array(self, label: str) -> np.ndarray:
        """All nodes with this label as a sorted ``np.int64`` array."""
        lab = _label_id(self.tree, label)
        if lab is None:
            return np.empty(0, dtype=np.int64)
        return self._arrays[lab]

    def union(self, key: Sequence[int]) -> np.ndarray:
        """The sorted node ids of a sorted label-id tuple: one label's
        own array (no lock, no LRU slot), else the cached merged union
        of :meth:`fused` -- which stays the one owner of merged arrays."""
        if len(key) == 1:
            return self._arrays[key[0]]
        return self.fused(key).arr

    def union_size(self, key: Iterable[int]) -> int:
        """Length of :meth:`union`'s array, from O(1) label counts."""
        return sum(len(self._arrays[lab]) for lab in key)

    def fused(self, label_ids: Iterable[int]) -> FusedLabels:
        """The merged sorted union array of a label-id set (cached).

        Per-label arrays are disjoint (each node has one label), so the
        union is a plain merge.  The canonical cache key is the sorted id
        tuple; the as-given ordering is aliased to the same
        :class:`FusedLabels`, so repeated jumps with the same essential-id
        list (the common case: one list object per tda state set) hit the
        cache without re-sorting.
        """
        key = tuple(label_ids)
        cache = self._fused
        # Pool threads of a QueryService drive one shard engine's index
        # concurrently and the LRU mutates on every lookup, hence the
        # lock; uncontended it costs nanoseconds against the bisect work.
        with cache.lock:
            hit = cache.get(key)
            if hit is None:
                canonical = tuple(sorted(key))
                hit = cache.data.get(canonical)
                if hit is None:
                    if not canonical:
                        merged = np.empty(0, dtype=np.int64)
                    elif len(canonical) == 1:
                        merged = self._arrays[canonical[0]]
                    else:
                        parts = [self._arrays[lab] for lab in canonical]
                        merged = np.sort(
                            np.concatenate(parts), kind="mergesort"
                        )
                    hit = FusedLabels(merged)
                cache.put(canonical, hit)
                if key != canonical:
                    cache.put(key, hit)
            return hit

    def cache_info(self) -> dict:
        """Fused-union cache statistics (LRU-bounded; see module docs).
        A miss is a lookup whose as-given id tuple was not cached, even
        when its sorted alias was and no merge ran."""
        with self._fused.lock:
            return self._fused.cache_info()

    def first_in_range(self, label_ids: Iterable[int], lo: int, hi: int) -> int:
        """Smallest node id in ``[lo, hi)`` whose label id is in the set.

        Returns ``-1`` when no such node exists.  One binary search over
        the fused union array, not a per-label search loop.
        """
        return self.fused(label_ids).first_at_or_after(lo, hi)

    def count_in_range(self, label_ids: Iterable[int], lo: int, hi: int) -> int:
        """Number of nodes in ``[lo, hi)`` with a label in the set."""
        fused = self.fused(label_ids)
        lo_i, hi_i = np.searchsorted(fused.arr, [lo, hi], side="left")
        return int(hi_i - lo_i)


def _label_id(tree: _LabelledTree, name: str) -> Optional[int]:
    ids = getattr(tree, "label_ids", None)
    if ids is not None:
        return ids.get(name)
    try:
        return tree.labels.index(name)
    except ValueError:
        return None
