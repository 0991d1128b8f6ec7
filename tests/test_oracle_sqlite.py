"""The sqlite oracle on hand-checked documents, and its independence
from the system it checks."""

import ast
import os

import pytest

import oracle_sqlite

#  0 site
#    1 a
#      2 x    3 b    4 c
#                      5 b
#    6 b
#      7 a
#        8 b
XML = "<site><a><x/><b/><c><b/></c></a><b><a><b/></a></b></site>"

#  0 r
#    1 @id  2 #text  3 a
#                      4 @id  5 b
#                               6 #text
ENCODED = '<r id="1">lead<a id="2"><b>text</b></a>tail</r>'


@pytest.fixture(scope="module")
def doc():
    return XML


def q(xml, text, **encode):
    return oracle_sqlite.select(xml, text, **encode)


class TestAxes:
    def test_root_match(self, doc):
        assert q(doc, "/site") == [0]
        assert q(doc, "/nope") == []

    def test_child_chain(self, doc):
        assert q(doc, "/site/a") == [1]
        assert q(doc, "/site/a/b") == [3]

    def test_descendant_from_root_includes_root(self, doc):
        assert q(doc, "//site") == [0]

    def test_descendant(self, doc):
        assert q(doc, "//b") == [3, 5, 6, 8]
        assert q(doc, "//a//b") == [3, 5, 8]

    def test_descendant_under_child(self, doc):
        assert q(doc, "/site/a//b") == [3, 5]

    def test_wildcard(self, doc):
        assert q(doc, "/site/*") == [1, 6]

    def test_following_sibling(self, doc):
        assert q(doc, "/site/a/x/following-sibling::b") == [3]
        assert q(doc, "/site/a/x/following-sibling::*") == [3, 4]

    def test_results_sorted_and_unique(self, doc):
        # both a's contain b's; b id 8 reachable through two a-paths
        assert q(doc, "//a//b//a//b") == []
        assert q(doc, "//b") == sorted(set(q(doc, "//b")))


class TestPredicates:
    def test_child_existence(self, doc):
        assert q(doc, "//a[x]") == [1]
        assert q(doc, "//a[b]") == [1, 7]

    def test_descendant_existence(self, doc):
        assert q(doc, "//a[.//b]") == [1, 7]

    def test_and_or(self, doc):
        assert q(doc, "//a[x and b]") == [1]
        assert q(doc, "//a[x or zz]") == [1]

    def test_not(self, doc):
        assert q(doc, "//a[not(x)]") == [7]

    def test_nested_path_predicate(self, doc):
        assert q(doc, "//a[c/b]") == [1]

    def test_dot_predicate_always_true(self, doc):
        assert q(doc, "//a[.]") == q(doc, "//a")


class TestContexts:
    """Steps from inner context nodes, reached by absolute paths: the
    oracle answers absolute queries only."""

    def test_child_of_a_context(self, doc):
        assert q(doc, "/site/a/b") == [3]

    def test_descendant_of_a_context(self, doc):
        assert q(doc, "/site/a//b") == [3, 5]

    def test_absolute_predicate_ignores_the_context(self, doc):
        assert q(doc, "/site/a/c[/site]") == [4]
        assert q(doc, "/site/a/c[/nope]") == []

    def test_relative_query_is_refused(self, doc):
        with pytest.raises(ValueError):
            q(doc, "a/b")


class TestBackwardAxes:
    def test_parent(self, doc):
        assert q(doc, "//b/..") == [0, 1, 4, 7]
        assert q(doc, "//b/parent::c") == [4]

    def test_ancestor(self, doc):
        assert q(doc, "//b/ancestor::a") == [1, 7]
        assert q(doc, "/site/a/c/b/ancestor::*") == [0, 1, 4]

    def test_ancestor_predicate(self, doc):
        assert q(doc, "//b[ancestor::c]") == [5]
        assert q(doc, "//b[not(ancestor::a)]") == [6]


class TestEncodings:
    def test_attribute_and_text_children(self):
        encode = dict(encode_attributes=True, encode_text=True)
        assert oracle_sqlite.labels(ENCODED, **encode) == [
            "r", "@id", "#text", "a", "@id", "b", "#text",
        ]
        assert q(ENCODED, "//*/@id", **encode) == [1, 4]
        assert q(ENCODED, "//text()", **encode) == [2, 6]
        assert q(ENCODED, "//*", **encode) == [0, 3, 5]
        assert q(ENCODED, "//a/@id/..", **encode) == [3]
        assert q(ENCODED, "/r/node()", **encode) == [1, 2, 3]

    def test_a_flag_that_is_off_adds_no_node(self):
        assert oracle_sqlite.labels(ENCODED) == ["r", "a", "b"]
        assert q(ENCODED, "//*/@id") == []
        assert q(ENCODED, "//text()") == []
        assert q(ENCODED, "//b", encode_attributes=True) == [4]


def test_the_oracle_imports_no_system_module():
    """The oracle may read the query's AST and parser and nothing else
    of ``repro``: a tree, index or strategy module imported here would
    let one defect reach both sides of every answer check."""
    allowed = {"repro.xpath.ast", "repro.xpath.parser"}
    path = os.path.join(os.path.dirname(__file__), "oracle_sqlite.py")
    with open(path, encoding="utf-8") as handle:
        module = ast.parse(handle.read())
    modules = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    system = {
        name for name in modules
        if name == "repro" or name.startswith(("repro.", "."))
    }
    assert system <= allowed, sorted(system)
