"""Unit and property tests for the fcns BinaryTree encoding."""

from hypothesis import given, settings

from repro.tree.binary import NIL, BinaryTree
from repro.tree.parser import parse_xml

from strategies import binary_trees


def spec_tree() -> BinaryTree:
    #        a
    #      / | \
    #     b  c  d
    #        |
    #        e
    return BinaryTree.from_spec(("a", "b", ("c", "e"), "d"))


class TestConstruction:
    def test_ids_are_document_order(self):
        t = spec_tree()
        assert [t.label(v) for v in range(t.n)] == ["a", "b", "c", "e", "d"]

    def test_first_child_next_sibling(self):
        t = spec_tree()
        assert t.first_child(0) == 1  # a -> b
        assert t.next_sibling(1) == 2  # b -> c
        assert t.first_child(2) == 3  # c -> e
        assert t.next_sibling(2) == 4  # c -> d
        assert t.next_sibling(4) == NIL
        assert t.first_child(1) == NIL

    def test_parent(self):
        t = spec_tree()
        assert t.parent == [NIL, 0, 0, 2, 0]

    def test_xml_end_ranges(self):
        t = spec_tree()
        assert t.xml_end == [5, 2, 4, 4, 5]

    def test_from_xml(self):
        t = BinaryTree.from_xml("<a><b/><c><e/></c><d/></a>")
        assert [t.label(v) for v in range(t.n)] == ["a", "b", "c", "e", "d"]

    def test_single_node(self):
        t = BinaryTree.from_spec("only")
        assert t.n == 1
        assert t.is_binary_leaf(0)
        assert t.bend(0) == 1


class TestNavigation:
    def test_children_iteration(self):
        t = spec_tree()
        assert list(t.children(0)) == [1, 2, 4]
        assert list(t.children(2)) == [3]
        assert list(t.children(1)) == []

    def test_bend_is_binary_subtree_end(self):
        t = spec_tree()
        # binary subtree of b (id 1) = b, c, e, d -> [1, 5)
        assert t.bend(1) == 5
        # binary subtree of e (id 3) = just e -> [3, 4)
        assert t.bend(3) == 4

    def test_xml_descendants(self):
        t = spec_tree()
        assert list(t.xml_descendants(0)) == [1, 2, 3, 4]
        assert list(t.xml_descendants(2)) == [3]

    def test_ancestors(self):
        t = spec_tree()
        assert list(t.ancestors(3)) == [2, 0]
        assert list(t.ancestors(0)) == []

    def test_depth_and_height(self):
        t = spec_tree()
        assert t.depth(0) == 0
        assert t.depth(3) == 2
        assert t.height() == 2

    def test_label_histogram(self):
        t = BinaryTree.from_spec(("a", "b", ("b", "a")))
        assert t.label_histogram() == {"a": 2, "b": 2}

    def test_label_id(self):
        t = spec_tree()
        assert t.label_id("a") == 0
        assert t.label_id("nope") is None


class TestEncodingProperties:
    @given(binary_trees())
    @settings(max_examples=60)
    def test_fcns_edges_are_consistent(self, t: BinaryTree):
        for v in range(t.n):
            lc = t.left[v]
            if lc != NIL:
                assert lc == v + 1  # first child is the next preorder id
                assert t.parent[lc] == v
            rc = t.right[v]
            if rc != NIL:
                assert rc == t.xml_end[v]
                assert t.parent[rc] == t.parent[v]

    @given(binary_trees())
    @settings(max_examples=60)
    def test_xml_end_equals_subtree_size(self, t: BinaryTree):
        for v in range(t.n):
            size = 1 + sum(
                t.xml_end[c] - c for c in t.children(v)
            )
            assert t.xml_end[v] - v == size

    @given(binary_trees())
    @settings(max_examples=60)
    def test_binary_subtree_partition(self, t: BinaryTree):
        # Children of v: left child's binary subtree is exactly the XML
        # descendants of v.
        for v in range(t.n):
            lc = t.left[v]
            if lc != NIL:
                assert (lc, t.bend(lc)) == (v + 1, t.xml_end[v])
