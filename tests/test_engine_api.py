"""Public Engine API."""

import pytest

from repro import Engine, evaluate, parse_xml
from repro.tree.binary import BinaryTree

XML = "<r><a><x/><b/><c><b/></c></a><b/></r>"


class TestConstruction:
    def test_from_string(self):
        assert Engine(XML).select("//a//b") == [3, 5]

    def test_from_document(self):
        assert Engine(parse_xml(XML)).select("//a//b") == [3, 5]

    def test_from_binary_tree(self):
        tree = BinaryTree.from_xml(XML)
        assert Engine(tree).select("//a//b") == [3, 5]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Engine(XML, strategy="warp")

    def test_strategy_switch(self):
        engine = Engine(XML, strategy="naive")
        first = engine.select("//b")
        engine.set_strategy("hybrid")
        assert engine.select("//b") == first


class TestQuerying:
    def test_run_returns_acceptance(self):
        engine = Engine(XML)
        accepted, ids = engine.run("//a//b")
        assert accepted and ids == [3, 5]
        accepted, ids = engine.run("//zz")
        assert not accepted and ids == []

    def test_count(self):
        assert Engine(XML).count("//b") == 3

    def test_labels_of(self):
        engine = Engine(XML)
        assert engine.labels_of(engine.select("/r/*")) == ["a", "b"]

    def test_compiled_query_cache(self):
        engine = Engine(XML)
        a1 = engine.compile("//a//b")
        a2 = engine.compile("//a//b")
        assert a1 is a2

    def test_execute_carries_its_own_stats(self):
        stats = Engine(XML).execute("//a//b").stats
        assert stats.selected == 2
        assert stats.visited >= 2

    def test_parsed_path_accepted(self):
        from repro.xpath.parser import parse_xpath

        engine = Engine(XML)
        assert engine.select(parse_xpath("//a//b")) == [3, 5]


class TestExplain:
    def test_explain_shows_automaton(self):
        text = Engine(XML, strategy="optimized").explain("//a//b")
        assert "ASTA" in text
        assert "⇒" in text

    def test_explain_shows_hybrid_plan(self):
        text = Engine(XML, strategy="hybrid").explain("//a//b")
        assert "hybrid plan" in text
        assert "pivot" in text
        # Only the strategy that runs the pivot states one.
        for name in ("optimized", "deterministic"):
            assert "hybrid plan" not in Engine(XML, strategy=name).explain("//a//b")

    def test_hybrid_explain_compiles_nothing(self):
        engine = Engine(XML, strategy="hybrid")
        text = engine.explain("//a//b")
        assert engine.cache.compilations == 0
        assert "ASTA" not in text

    def test_deterministic_explains_its_tdsta(self):
        text = Engine(XML, strategy="deterministic").explain("//a//b")
        assert "minimal TDSTA" in text and "ASTA" not in text

    def test_kernel_explain_compiles_no_automaton(self):
        engine = Engine(XML)
        text = engine.explain("//a//b")
        assert engine.cache.compilations == 0
        assert "ASTA" not in text and "hybrid plan" not in text

    def test_explain_non_chain_has_no_plan(self):
        text = Engine(XML).explain("/r/a[b]")
        assert "hybrid plan" not in text


class TestModuleLevelHelper:
    def test_evaluate_one_shot(self):
        assert evaluate(XML, "//a//b") == [3, 5]
        assert evaluate(XML, "//a//b", strategy="naive") == [3, 5]


class TestExtract:
    def test_extract_subtrees(self):
        engine = Engine("<r><a><b/><c/></a><a/></r>")
        assert engine.extract("//a") == ["<a><b/><c/></a>", "<a/>"]

    def test_extract_preserves_child_order(self):
        engine = Engine("<r><a><x/><y/><z/></a></r>")
        assert engine.extract("//a") == ["<a><x/><y/><z/></a>"]

    def test_extract_empty_result(self):
        engine = Engine("<r/>")
        assert engine.extract("//zz") == []


class TestUnusualLabels:
    def test_label_colliding_with_atom_sentinel(self):
        # '†other' is the internal fresh-witness name; documents using it
        # literally must still evaluate correctly.
        xml = "<r><a>x</a><†other/><a><†other/></a></r>".replace("x", "")
        # The parser requires NameStart characters; build via the API.
        from repro.tree.document import XMLDocument, XMLNode

        root = XMLNode("r")
        root.new_child("a")
        root.new_child("†other")
        inner = root.new_child("a")
        inner.new_child("†other")
        engine = Engine(XMLDocument(root))
        from repro.tree.binary import BinaryTree
        from repro.xpath.parser import parse_xpath
        from repro.xpath.reference import evaluate_reference

        tree = engine.tree
        for q in ("//a", "//a/*"):
            expected = evaluate_reference(tree, parse_xpath(q))
            assert engine.select(q) == expected, q
