"""Attribute / text-node encoding (the 'straightforward encoding' of [1])."""

import pytest

from repro import Engine
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml

import oracle_sqlite

XML = '<r><a id="1" lang="en">hello<b/></a><a>  </a><b id="2"/></r>'


class TestEncodingOptions:
    def test_default_elements_only(self):
        tree = BinaryTree.from_document(parse_xml(XML))
        assert set(tree.labels) == {"r", "a", "b"}

    def test_attributes_become_at_children(self):
        tree = BinaryTree.from_document(parse_xml(XML), encode_attributes=True)
        hist = tree.label_histogram()
        assert hist["@id"] == 2
        assert hist["@lang"] == 1
        # Attributes precede the element's real children.
        a = 1
        children = [tree.label(c) for c in tree.children(a)]
        assert children[:2] == ["@id", "@lang"]

    def test_text_becomes_hash_text_children(self):
        tree = BinaryTree.from_document(parse_xml(XML), encode_text=True)
        hist = tree.label_histogram()
        assert hist["#text"] == 1  # whitespace-only content is dropped

    def test_document_order_preserved(self):
        tree = BinaryTree.from_document(
            parse_xml(XML), encode_attributes=True, encode_text=True
        )
        # ids must still be a valid preorder: parents before children.
        for v in range(1, tree.n):
            assert tree.parent[v] < v


class TestAttributeAxisEndToEnd:
    def test_attribute_step(self):
        engine = Engine(parse_xml(XML), encode_attributes=True)
        ids = engine.select("//a/@id")
        assert engine.labels_of(ids) == ["@id"]

    def test_attribute_predicate(self):
        engine = Engine(parse_xml(XML), encode_attributes=True)
        assert engine.count("//a[@id]") == 1
        assert engine.count("//a[@missing]") == 0
        assert engine.count("//b[@id]") == 1

    def test_attribute_not_matched_by_wildcard_child(self):
        engine = Engine(parse_xml(XML), encode_attributes=True)
        # '*' must not leak '@'-encoded attributes.
        labels = engine.labels_of(engine.select("//a/*"))
        assert "@id" not in labels
        assert labels == ["b"]

    def test_engines_agree_with_attributes(self):
        for strategy in ("naive", "optimized", "hybrid"):
            engine = Engine(XML, strategy=strategy, encode_attributes=True)
            for q in ("//a/@id", "//a[@lang]", "/r/*[@id]"):
                expected = oracle_sqlite.select(XML, q, encode_attributes=True)
                assert engine.select(q) == expected, (strategy, q)


class TestTextAxisEndToEnd:
    def test_text_node_test(self):
        engine = Engine(parse_xml(XML), encode_text=True)
        assert engine.count("//a/text()") == 1

    def test_text_predicate(self):
        engine = Engine(parse_xml(XML), encode_text=True)
        labels = engine.labels_of(engine.select("//a[text()]"))
        assert labels == ["a"]
