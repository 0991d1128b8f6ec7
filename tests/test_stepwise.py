"""Step-wise baseline and staircase-join primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.staircase import descendants_with_label, topmost_prune
from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.index.labels import LabelIndex
from repro.tree.binary import BinaryTree
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

from strategies import binary_trees


class TestStaircase:
    def test_topmost_prune_removes_nested(self):
        tree = BinaryTree.from_xml("<r><a><a><b/></a></a><a/></r>")
        # ids: 0 r, 1 a, 2 a, 3 b, 4 a
        assert topmost_prune(tree, [1, 2, 4]) == [1, 4]

    def test_topmost_prune_keeps_disjoint(self):
        tree = BinaryTree.from_xml("<r><a/><a/><a/></r>")
        assert topmost_prune(tree, [1, 2, 3]) == [1, 2, 3]

    @given(binary_trees(max_depth=4, max_children=4))
    @settings(max_examples=50)
    def test_pruned_descendant_step_loses_nothing(self, tree):
        labels = LabelIndex(tree)
        context = [v for v in range(tree.n) if tree.label(v) == "a"]
        got = descendants_with_label(tree, labels, context, "b", EvalStats())
        expected = sorted(
            {
                w
                for v in context
                for w in tree.xml_descendants(v)
                if tree.label(w) == "b"
            }
        )
        assert got == expected

    def test_descendants_wildcard(self):
        tree = BinaryTree.from_xml("<r><a><b/></a></r>")
        labels = LabelIndex(tree)
        assert descendants_with_label(tree, labels, [0], None, EvalStats()) == [1, 2]

    def test_stats_count_scanned_tuples(self):
        tree = BinaryTree.from_xml("<r><a><b/></a><a><b/></a></r>")
        labels = LabelIndex(tree)
        stats = EvalStats()
        descendants_with_label(tree, labels, [1, 3], "b", stats)
        assert stats.visited == 2  # one scanned tuple per context subtree


class TestStepwiseEngine:
    def test_matches_reference_on_sample(self, small_tree, small_index):
        for query in ("//a//b", "/site/a/b", "//a[c]//b", "//a[not(x)]"):
            expected = evaluate_reference(small_tree, parse_xpath(query))
            assert stepwise_evaluate(query, small_index, EvalStats()) == expected

    def test_rejects_relative(self, small_index):
        with pytest.raises(ValueError):
            stepwise_evaluate("a/b", small_index, EvalStats())

    def test_empty_intermediate_short_circuits(self, small_index):
        stats = EvalStats()
        assert stepwise_evaluate("//zz//a//b", small_index, stats) == []

    def test_predicate_stats_accumulate(self, small_index):
        stats = EvalStats()
        stepwise_evaluate("//a[b]", small_index, stats)
        assert stats.visited > 0

    @given(binary_trees(max_depth=4, max_children=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_random(self, tree):
        index = TreeIndex(tree)
        for query in ("//a//b", "/a/b[c]", "//a[b or not(c)]", "/a/*/b"):
            expected = evaluate_reference(tree, parse_xpath(query))
            assert stepwise_evaluate(query, index, EvalStats()) == expected
