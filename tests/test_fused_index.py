"""Property tests for the fused numpy jump index.

The fused per-label-set union arrays of
:meth:`repro.index.labels.LabelIndex.fused` must agree with a
pure-``bisect`` per-label reference on random trees and random label-id
sets -- they are the substrate of every dt/ft jump the interned machine
performs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.jumping import OMEGA, TreeIndex
from repro.index.labels import LabelIndex
from repro.tree.binary import BinaryTree

from strategies import tree_specs


def _reference_first_in_range(lists, label_ids, lo, hi):
    """The original O(|L| log n) per-label bisect loop."""
    best = -1
    for lab in label_ids:
        lst = lists[lab]
        i = bisect_left(lst, lo)
        if i < len(lst):
            v = lst[i]
            if v < hi and (best == -1 or v < best):
                best = v
    return best


def _reference_count_in_range(lists, label_ids, lo, hi):
    total = 0
    for lab in label_ids:
        lst = lists[lab]
        total += bisect_right(lst, hi - 1) - bisect_left(lst, lo)
    return total


@given(spec=tree_specs(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_fused_queries_match_bisect_reference(spec, data):
    tree = BinaryTree.from_spec(spec)
    index = LabelIndex(tree)
    lists = [index.nodes_array(name).tolist() for name in tree.labels]
    nlabels = len(tree.labels)
    label_ids = data.draw(
        st.lists(
            st.integers(0, nlabels - 1), min_size=0, max_size=nlabels
        )
    )
    lo = data.draw(st.integers(-1, tree.n + 1))
    hi = data.draw(st.integers(-1, tree.n + 2))
    assert index.first_in_range(label_ids, lo, hi) == (
        _reference_first_in_range(lists, label_ids, lo, hi)
    )
    if hi >= lo:
        assert index.count_in_range(label_ids, lo, hi) == (
            _reference_count_in_range(lists, label_ids, lo, hi)
        )


@given(spec=tree_specs(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_dt_ft_match_reference(spec, data):
    tree = BinaryTree.from_spec(spec)
    index = TreeIndex(tree)
    lists = [index.labels.nodes_array(name).tolist() for name in tree.labels]
    nlabels = len(tree.labels)
    ids = data.draw(
        st.lists(st.integers(0, nlabels - 1), min_size=1, max_size=nlabels)
    )
    v = data.draw(st.integers(0, tree.n - 1))
    hit = index.dt(v, ids)
    ref = _reference_first_in_range(lists, ids, v + 1, tree.bend(v))
    assert hit == (OMEGA if ref == -1 else ref)
    v0 = data.draw(st.integers(0, tree.n - 1))
    lo, hi = tree.bend(v), tree.bend(v0)
    ref = -1 if lo >= hi else _reference_first_in_range(lists, ids, lo, hi)
    assert index.ft(v, ids, v0) == (OMEGA if ref == -1 else ref)


@given(spec=tree_specs())
@settings(max_examples=60, deadline=None)
def test_topmost_in_subtree_matches_chain_recipe(spec):
    """The fused walk equals the literal pi0=dt, pi_{k+1}=ft recipe."""
    tree = BinaryTree.from_spec(spec)
    index = TreeIndex(tree)
    for name in tree.labels:
        ids = index.label_ids([name])
        for v in range(tree.n):
            expected = []
            cur = index.dt(v, ids)
            while cur != OMEGA:
                expected.append(cur)
                cur = index.ft(cur, ids, v)
            assert index.topmost_in_subtree(v, ids) == expected


class TestFusedCache:
    def test_fused_is_cached_per_sorted_id_set(self):
        tree = BinaryTree.from_spec(("r", "a", ("b", "a"), "c"))
        index = LabelIndex(tree)
        a, b = tree.label_ids["a"], tree.label_ids["b"]
        f1 = index.fused([a, b])
        f2 = index.fused([b, a])  # order-insensitive alias
        assert f1 is f2
        assert f1.lst == sorted(
            index.nodes_array("a").tolist() + index.nodes_array("b").tolist()
        )
        assert f1.arr.dtype == np.int32

    def test_fused_empty_set(self):
        tree = BinaryTree.from_spec("r")
        index = LabelIndex(tree)
        fused = index.fused([])
        assert fused.size == 0
        assert fused.first_at_or_after(0, 10) == -1

    def test_count_simplified(self):
        tree = BinaryTree.from_spec(("r", "a", "a", "b"))
        index = LabelIndex(tree)
        assert index.count("a") == 2
        assert index.count("b") == 1
        assert index.count("zzz") == 0
