"""Jumping functions dt/ft/lt/rt (Definition 3.2) against brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.jumping import OMEGA, TreeIndex
from repro.index.labels import LabelIndex
from repro.tree.binary import NIL, BinaryTree

from strategies import binary_trees, LABELS


def brute_dt(tree, v, labels):
    for w in range(v + 1, tree.bend(v)):
        if tree.label(w) in labels:
            return w
    return OMEGA


def brute_ft(tree, v, labels, v0):
    for w in range(tree.bend(v), tree.bend(v0)):
        if tree.label(w) in labels:
            return w
    return OMEGA


def brute_lt(tree, v, labels):
    cur = tree.left[v]
    while cur != NIL:
        if tree.label(cur) in labels:
            return cur
        cur = tree.left[cur]
    return OMEGA


def brute_rt(tree, v, labels):
    cur = tree.right[v]
    while cur != NIL:
        if tree.label(cur) in labels:
            return cur
        cur = tree.right[cur]
    return OMEGA


class TestFixed:
    def make(self):
        tree = BinaryTree.from_spec(
            ("r", ("a", "b", ("c", "b")), ("a", ("b", "c")), "b")
        )
        return tree, TreeIndex(tree)

    def test_dt_finds_first_descendant_in_doc_order(self):
        tree, index = self.make()
        ids = index.label_ids(["b"])
        assert index.dt(0, ids) == 2  # first b under r

    def test_dt_respects_binary_subtree(self):
        tree, index = self.make()
        ids = index.label_ids(["b"])
        # binary subtree of node 1 (first a) spans to the end of r's
        # content, so the b inside the second a is also reachable.
        assert index.dt(1, ids) == 2

    def test_ft_skips_own_binary_subtree(self):
        tree, index = self.make()
        ids = index.label_ids(["b"])
        first = index.dt(0, ids)
        second = index.ft(first, ids, 0)
        # The binary subtree of node 2 includes its following siblings'
        # subtrees (the b at id 4), so the next *following* b is id 6.
        assert second == 6

    def test_omega_when_absent(self):
        tree, index = self.make()
        ids = index.label_ids(["zzz"])
        assert ids == []  # unseen labels are dropped
        assert index.dt(0, ids) == OMEGA

    def test_topmost_enumeration(self):
        tree, index = self.make()
        ids = index.label_ids(["a"])
        # The second a (id 5) is a *binary* descendant of the first (id 1):
        # only the top-most one with respect to binary subtrees survives.
        assert index.topmost_in_subtree(0, ids) == [1]
        # From inside the first a's subtree the nested one is reachable.
        assert index.topmost_in_subtree(1, ids) == [5]

    def test_count_is_global(self):
        tree, index = self.make()
        assert index.count("b") == 4
        assert index.count("zzz") == 0


class TestAgainstBruteForce:
    @given(
        binary_trees(max_depth=4, max_children=4),
        st.frozensets(st.sampled_from(LABELS), min_size=1, max_size=3),
        st.data(),
    )
    @settings(max_examples=60)
    def test_all_jumps_match(self, tree, labels, data):
        index = TreeIndex(tree)
        ids = index.label_ids(labels)
        v = data.draw(st.integers(0, tree.n - 1))
        assert index.dt(v, ids) == brute_dt(tree, v, labels)
        assert index.lt(v, ids) == brute_lt(tree, v, labels)
        assert index.rt(v, ids) == brute_rt(tree, v, labels)
        v0 = data.draw(st.integers(0, v))
        if tree.bend(v) <= tree.bend(v0):
            assert index.ft(v, ids, v0) == brute_ft(tree, v, labels, v0)

    @given(binary_trees(max_depth=4, max_children=4))
    @settings(max_examples=40)
    def test_topmost_nodes_are_disjoint_and_complete(self, tree):
        index = TreeIndex(tree)
        for label in set(tree.labels):
            ids = index.label_ids([label])
            tops = index.topmost_in_subtree(0, ids)
            # Disjoint binary subtrees, in document order.
            for x, y in zip(tops, tops[1:]):
                assert tree.bend(x) <= y
            # Every labelled node is inside some top's binary subtree
            # (or is the root itself, excluded by dt's strictness).
            for w in range(1, tree.n):
                if tree.label(w) == label:
                    assert any(t <= w < tree.bend(t) for t in tops)


class TestLabelIndex:
    def test_count_in_range(self):
        tree = BinaryTree.from_spec(("r", "a", "b", "a", "b", "a"))
        li = LabelIndex(tree)
        a = tree.label_id("a")
        assert li.count_in_range([a], 0, tree.n) == 3
        assert li.count_in_range([a], 2, 4) == 1

    def test_first_in_range_picks_minimum_across_labels(self):
        tree = BinaryTree.from_spec(("r", "b", "a"))
        li = LabelIndex(tree)
        ids = [tree.label_id("a"), tree.label_id("b")]
        assert li.first_in_range(ids, 1, tree.n) == 1

    def test_nodes_sorted(self):
        tree = BinaryTree.from_spec(("r", ("a", "b"), "b", ("c", "b")))
        li = LabelIndex(tree)
        nodes = li.nodes_array("b").tolist()
        assert nodes == sorted(nodes)
        assert len(nodes) == 3


class TestLabelIndexOverSuccinct:
    def test_label_index_works_on_succinct_backend(self):
        from repro.index.succinct import SuccinctTree

        tree = BinaryTree.from_spec(("r", ("a", "b"), "b", ("c", "b")))
        succ = SuccinctTree.from_binary(tree)
        li_succ = LabelIndex(succ)
        li_tree = LabelIndex(tree)
        assert li_succ.nodes_array("b").tolist() == li_tree.nodes_array("b").tolist()
        assert li_succ.count("b") == li_tree.count("b") == 3
