"""Documents are columns: a tree is three numpy columns, and the plain-int
list mirrors of the element-wise API -- of those columns and of the fcns
links derived from them -- exist only once somebody indexes them: never
on the open path, never under the set-at-a-time kernels."""

from __future__ import annotations

import mmap
import os
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.api import Engine
from repro.store import open_document, save_document
from repro.tree import binary
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import HYBRID_QUERY, QUERIES

import oracle_sqlite
from strategies import tree_specs
from test_builder import loop_columns
from test_planner import MIX20

# The plans `auto` binds to the kernel at 212k nodes: all of the mix but
# Q01 and Q10, which go to `optimized`.
Q01, Q10 = QUERIES["Q01"], QUERIES["Q10"]
KERNEL_BOUND = [query for query in MIX20 if query not in (Q01, Q10)]
COLUMNS = ("label_of", "left", "right", "parent", "xml_end")
STORED = ("label_of", "parent", "xml_end")


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """One 13.5k-node and one 212k-node XMark bundle (the documents of
    ``serve-point`` and ``serve-scan``)."""
    root = tmp_path_factory.mktemp("columns")
    return {
        scale: save_document(
            XMarkGenerator(scale=scale, seed=42), os.path.join(str(root), name)
        )
        for name, scale in (("small", 0.5), ("large", 8.0))
    }


def _label_lists(index) -> list:
    """Every list mirror the label index holds right now."""
    fused = index.labels._fused.data.values()
    return [f for f in fused if "lst" in vars(f)]


# -- (a) who builds a mirror -------------------------------------------------


def test_kernel_plans_build_no_mirror(bundles):
    with open_document(bundles[8.0]) as stored:
        tree, index = stored.tree, stored.index
        assert tree.n > 200_000
        assert tree.resident_mirrors() == ()
        engine = Engine(stored, strategy="window")
        counts = [engine.count(query) for query in KERNEL_BOUND]
        assert len(counts) == 18 and all(counts)
        assert engine.select("//*")[:2] == [0, 1]  # ids are built from arrays
        assert tree.resident_mirrors() == ()
        assert _label_lists(index) == []
        mapped = stored._mapped  # what close() releases
        assert len(mapped) == 5
        assert all(isinstance(pages, mmap.mmap) for pages in mapped)
        assert tuple(tree._columns) == STORED
        for name in STORED:
            column = tree._columns[name]
            assert column.dtype == np.int32 and type(column) is np.ndarray
            assert any(
                np.shares_memory(column, np.frombuffer(pages, np.uint8))
                for pages in mapped
            ), name


def test_hybrid_builds_no_label_list(bundles):
    """Figure 5's query runs on the mapped label arrays alone."""
    with open_document(bundles[0.5]) as stored:
        expected = Engine(stored, strategy="window").select(HYBRID_QUERY)
        hybrid = Engine(stored, strategy="hybrid")
        assert hybrid.select(HYBRID_QUERY) == expected
        assert expected and _label_lists(stored.index) == []
        assert stored.tree.resident_mirrors() == ()


def test_a_warm_pass_constructs_no_memmap(bundles, monkeypatch):
    """Readers get plain views of the mappings: a slice or gather of an
    ``np.memmap`` would run its Python-level ``__array_finalize__``."""
    with open_document(bundles[0.5]) as stored:
        plans = [Engine(stored).prepare(query) for query in MIX20]
        for plan in plans:  # warm: unions, rank columns, path summary
            plan.execute()
        built = []
        finalize = np.memmap.__array_finalize__

        def spy(self, obj):
            built.append(type(obj))
            return finalize(self, obj)

        monkeypatch.setattr(np.memmap, "__array_finalize__", spy)
        assert all(len(plan.execute()) for plan in plans)
        assert built == []


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
def test_workspace_close_unmaps_every_bundle(tmp_path):
    from repro.engine.workspace import Workspace

    save_document(XMarkGenerator(scale=0.1, seed=4), str(tmp_path / "doc"))

    def mapped_files():
        with open("/proc/self/maps") as maps:
            return maps.read().count(str(tmp_path))

    ws = Workspace()
    ws.open_store(str(tmp_path))
    assert all(ws.select(query, "doc") is not None for query in MIX20)
    assert mapped_files() > 0
    ws.close()
    assert mapped_files() == 0


def test_automaton_run_builds_exactly_what_it_reads(bundles):
    expected = oracle_sqlite.select(XMarkGenerator(scale=0.5, seed=42).xml(), Q10)
    with open_document(bundles[0.5]) as stored:
        tree = stored.tree
        assert Engine(stored, strategy="window").select(Q10) == expected
        assert tree.resident_mirrors() == ()
        assert Engine(stored, strategy="optimized").select(Q10) == expected
        # engine/core.py's _run_interned takes these five up front.
        assert tree.resident_mirrors() == (
            "label_of", "left", "right", "parent", "xml_end"
        )


# -- (b) open is O(1) in n -----------------------------------------------------


def _open_growth(path: str) -> int:
    open_document(path).close()  # imports, first-call caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stored = open_document(path)
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stored.close()
    return growth


def test_open_allocates_the_same_at_any_size(bundles):
    small, large = _open_growth(bundles[0.5]), _open_growth(bundles[8.0])
    assert max(small, large) < 256 * 1024
    assert abs(large - small) <= 0.1 * small, (small, large)


# -- (c) (d) (e) the mirrors themselves ------------------------------------------


def test_mirrors_share_one_int_per_id():
    tree = XMarkGenerator(scale=0.1, seed=3).tree()
    assert tree.n > 1000
    parent, left, right, xml_end = tree.parent, tree.left, tree.right, tree.xml_end
    shared = 0
    for c in range(300, tree.n):  # ids above CPython's small-int cache
        p = parent[c]
        if p > 256 and left[p - 1] == p:  # p named twice: as parent, as child
            assert parent[c] is left[p - 1]
            shared += 1
        if right[c] != -1:  # the next sibling starts where the subtree ends
            assert right[c] == xml_end[c] and right[c] is xml_end[c]
            shared += 1
    assert shared > 100
    for name in COLUMNS:
        mirror = getattr(tree, name)
        assert type(mirror) is list and len(mirror) == tree.n
        assert all(type(x) is int for x in mirror)
        assert mirror == binary.column(tree._columns, name).tolist()
    ids = Engine(tree, strategy="optimized").execute("//keyword").ids
    assert ids and all(type(v) is int for v in ids)


def test_eight_threads_get_one_mirror():
    tree = XMarkGenerator(scale=0.3, seed=5).tree()
    barrier = threading.Barrier(8)
    got = []

    def ask():
        barrier.wait()
        got.append(tree.xml_end)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 8 and all(m is got[0] for m in got)
    assert tree.resident_mirrors() == ("xml_end",)


def test_pickle_carries_columns_not_mirrors():
    tree = XMarkGenerator(scale=0.2, seed=7).tree()
    bare = len(pickle.dumps(tree))
    expected = [Engine(tree, strategy="optimized").select(q) for q in MIX20]
    assert len(tree.resident_mirrors()) == 5
    payload = pickle.dumps(tree)
    assert len(payload) == bare  # the mirrors added nothing
    clone = pickle.loads(payload)
    assert clone.resident_mirrors() == ()
    assert clone.height() == tree.height()
    assert tuple(clone._columns) == STORED
    for name in STORED:
        assert np.array_equal(clone._columns[name], tree._columns[name])
    for strategy in ("window", "optimized"):
        engine = Engine(clone, strategy=strategy)
        assert [engine.select(q) for q in MIX20] == expected


# -- (f) the bulk derivation against the per-event wiring -------------------------


def _parens_of(spec) -> list:
    if isinstance(spec, str):
        return [1, 0]
    return [1] + [bit for child in spec[1:] for bit in _parens_of(child)] + [0]


def _assert_derivation_matches_loop(parens) -> None:
    labels = ["x"]
    tree = BinaryTree(labels, np.zeros(len(parens) // 2, dtype=np.int32), parens)
    reference = loop_columns(parens)
    assert tree.height() == reference.pop("height")
    for name in STORED[1:]:
        assert tree._columns[name].dtype == np.int32
    for name, expected in reference.items():
        assert getattr(tree, name) == expected, name
    # A tree adopted without its height counts it from xml_end.
    assert BinaryTree._from_columns(labels, tree._columns).height() == tree.height()


@given(tree_specs(max_depth=5))
@settings(max_examples=200, deadline=None)
def test_derivation_equals_event_wiring(spec):
    _assert_derivation_matches_loop(_parens_of(spec))


@given(st.lists(st.integers(0, 1), min_size=0, max_size=60))
@settings(max_examples=200, deadline=None)
def test_derivation_equals_event_wiring_on_random_walks(steps):
    """Any balanced sequence under one root: a random open/close walk,
    closed off at the end."""
    parens, depth = [1], 1
    for bit in steps:
        if bit or depth == 1:
            parens.append(1)
            depth += 1
        else:
            parens.append(0)
            depth -= 1
    _assert_derivation_matches_loop(parens + [0] * depth)


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(lambda n: [1] * n + [0] * n, id="deep"),  # levels pass uint16
        pytest.param(lambda n: [1] + [1, 0] * (n - 1) + [0], id="wide"),
    ],
)
def test_derivation_on_the_hostile_shapes(shape):
    _assert_derivation_matches_loop(shape(100_000))
