"""Backward axes (parent/ancestor) via the mixed pipeline (Section 6)."""

import pytest
from hypothesis import given, settings

from repro import Engine
from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.engine.mixed import forward_prefix_length
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

from strategies import binary_trees, execute_as, run_as

XML = "<r><a><x><b/></x><b/></a><c><b/></c><b/></r>"


@pytest.fixture(scope="module")
def tree():
    return BinaryTree.from_xml(XML)


@pytest.fixture(scope="module")
def index(tree):
    return TreeIndex(tree)


class TestParsing:
    def test_dotdot(self):
        path = parse_xpath("//b/..")
        assert path.steps[-1].axis.value == "parent"
        assert path.has_backward_axes()

    def test_explicit_axes(self):
        path = parse_xpath("//b/ancestor::a/parent::r")
        assert [s.axis.value for s in path.steps] == [
            "descendant",
            "ancestor",
            "parent",
        ]

    def test_backward_in_predicate_detected(self):
        assert parse_xpath("//b[../c]").has_backward_axes()
        assert not parse_xpath("//b[c]").has_backward_axes()

    def test_dotdot_after_slashslash_rejected(self):
        from repro.xpath.parser import XPathSyntaxError

        with pytest.raises(XPathSyntaxError):
            parse_xpath("//a//..")


class TestSegmentation:
    def test_prefix_length(self):
        assert forward_prefix_length(parse_xpath("//a//b/..")) == 2
        assert forward_prefix_length(parse_xpath("//a/../b")) == 1
        assert forward_prefix_length(parse_xpath("/r/..")) == 1
        assert forward_prefix_length(parse_xpath("//a[../x]/b")) == 0

    def test_backward_predicate_breaks_prefix(self):
        assert forward_prefix_length(parse_xpath("//a/b[..]//c")) == 1


class TestReferenceSemantics:
    def test_parent_step(self, tree):
        got = evaluate_reference(tree, parse_xpath("//b/.."))
        assert [tree.label(v) for v in got] == ["r", "a", "x", "c"]

    def test_ancestor_step(self, tree):
        got = evaluate_reference(tree, parse_xpath("//b/ancestor::a"))
        assert [tree.label(v) for v in got] == ["a"]

    def test_parent_with_test(self, tree):
        got = evaluate_reference(tree, parse_xpath("//b/parent::c"))
        assert [tree.label(v) for v in got] == ["c"]

    def test_backward_then_forward(self, tree):
        # parents of b's that have an x child
        got = evaluate_reference(tree, parse_xpath("//b/../x"))
        assert [tree.label(v) for v in got] == ["x"]

    def test_backward_in_predicate(self, tree):
        got = evaluate_reference(tree, parse_xpath("//b[ancestor::a]"))
        assert len(got) == 2


class TestMixedPipeline:
    QUERIES = [
        "//b/..",
        "//b/ancestor::a",
        "//b/parent::c",
        "//b/../x",
        "//x/b/ancestor::a/b",
        "//b[ancestor::a]",
        "//a/..",
        "/r/a/x/..",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_reference(self, query, tree, index):
        expected = evaluate_reference(tree, parse_xpath(query))
        _, got = run_as("mixed", query, index)
        assert got == expected

    @pytest.mark.parametrize("query", QUERIES)
    def test_stepwise_matches_reference(self, query, tree, index):
        expected = evaluate_reference(tree, parse_xpath(query))
        assert stepwise_evaluate(query, index, EvalStats()) == expected

    def test_engine_routes_automatically(self, tree):
        for strategy in ("naive", "optimized", "hybrid", "deterministic"):
            engine = Engine(tree, strategy=strategy)
            got = engine.select("//b/ancestor::a")
            assert [tree.label(v) for v in got] == ["a"]

    def test_forward_segment_uses_jumping(self, index):
        stats = execute_as("mixed", "//b/..", index).stats
        assert stats.jumps > 0  # the //b prefix ran on the ASTA engine

    @given(binary_trees(max_depth=4, max_children=4))
    @settings(max_examples=60, deadline=None)
    def test_random_docs(self, t):
        idx = TreeIndex(t)
        for query in ("//b/..", "//c/ancestor::a", "//a/../b", "//b[../c]"):
            expected = evaluate_reference(t, parse_xpath(query))
            assert run_as("mixed", query, idx)[1] == expected
            assert stepwise_evaluate(query, idx, EvalStats()) == expected


class TestRandomBackwardQueries:
    from strategies import xpath_queries as _xq

    @given(binary_trees(max_depth=4, max_children=3),
           __import__("strategies").xpath_queries(backward=True))
    @settings(max_examples=80, deadline=None)
    def test_engine_matches_reference(self, t, query):
        from repro import Engine

        path = parse_xpath(query)
        expected = evaluate_reference(t, path)
        engine = Engine(t)
        assert engine.select(path) == expected, query


class TestExplainBackward:
    def test_explain_describes_mixed_pipeline(self, tree):
        engine = Engine(tree, strategy="optimized")
        text = engine.explain("//b/ancestor::a")
        assert "mixed pipeline" in text
        assert "forward segment: 1 step" in text
        assert "ASTA" in text  # the compiled prefix automaton
