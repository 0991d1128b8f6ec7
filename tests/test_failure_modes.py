"""Failure injection: every public entry point must fail loudly and
precisely, never silently."""

import pytest

from repro import Engine
from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.tree.parser import XMLSyntaxError, parse_xml
from repro.xpath.compiler import XPathCompileError
from repro.xpath.parser import XPathSyntaxError

from strategies import run_as

TREE = BinaryTree.from_xml("<r><a/></r>")
INDEX = TreeIndex(TREE)


class TestQueryErrors:
    def test_syntax_error_propagates(self):
        with pytest.raises(XPathSyntaxError):
            Engine(TREE).select("//a[")

    def test_relative_query_rejected_by_engine(self):
        with pytest.raises(XPathCompileError):
            Engine(TREE).select("a/b")

    def test_relative_query_rejected_by_stepwise(self):
        with pytest.raises(ValueError):
            stepwise_evaluate("a/b", INDEX, EvalStats())

    def test_attribute_start_rejected(self):
        # By the compiler; the default's kernel answers what XPath says
        # (the document node has no attributes).
        with pytest.raises(XPathCompileError):
            Engine(TREE, strategy="optimized").select("/@id")
        assert Engine(TREE).select("/@id") == []

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            Engine(TREE, strategy="quantum")


class TestDocumentErrors:
    def test_malformed_xml_propagates(self):
        with pytest.raises(XMLSyntaxError):
            Engine("<a><b></a>")

    def test_empty_document_rejected(self):
        with pytest.raises(XMLSyntaxError):
            parse_xml("   ")


class TestDegenerateDocuments:
    def test_single_node_document(self):
        engine = Engine("<only/>")
        assert engine.select("/only") == [0]
        assert engine.select("//only") == [0]
        assert engine.select("//only/only") == []
        assert engine.select("//only/..") == []

    def test_query_selecting_nothing_everywhere(self):
        engine = Engine("<r><a/><b/></r>")
        for strategy in ("naive", "jumping", "memo", "optimized", "hybrid",
                         "deterministic"):
            engine.set_strategy(strategy)
            accepted, ids = engine.run("//zz")
            assert not accepted and ids == []

    def test_root_only_queries(self):
        engine = Engine("<r><a/></r>")
        assert engine.select("/r") == [0]
        assert engine.select("/r[a]") == [0]
        assert engine.select("/r[not(a)]") == []


class TestHybridDegenerate:
    def test_hybrid_label_absent_from_document(self):
        # the pivot label does not occur: count 0, empty start set.
        accepted, ids = run_as("hybrid", "//zz//a", INDEX)
        assert not accepted and ids == []

    def test_hybrid_single_step(self):
        accepted, ids = run_as("hybrid", "//a", INDEX)
        assert accepted and ids == [1]
