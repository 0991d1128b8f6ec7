"""Every strategy against an oracle that shares nothing with the tree
layer (:mod:`oracle_sqlite`: stdlib ElementTree + sqlite3 over a
``(pre, last, parent, label)`` table), on the documents as the store
serves them.

The expected answer never touches ``TreeBuilder`` or ``BinaryTree``, so
a defect in how those columns are built -- by the streaming builder, by
``BinaryTree.from_document`` (the mixed-content fallback) or by
``open_document`` -- is a disagreement.  Every document is checked
through both constructors: parsed fresh, and saved to a bundle and
reopened, labels first, then every query.
"""

from __future__ import annotations

import os

import pytest

import oracle_sqlite
from repro.engine import registry
from repro.engine.api import Engine
from repro.store import open_document, save_document
from test_differential_fuzz import CORPORA

# The one shape the streaming builder cannot encode online (whitespace-
# only leading text, non-whitespace text after an element child): it
# goes through BinaryTree.from_document.
LATE_TEXT = (
    '<a x="1">\n  <b y="2" id="3">lead<c/>tail</b>\n  <b/>late text'
    "<d><a/> also late</d><c>first<a/></c></a>"
)
LATE_TEXT_QUERIES = [
    "//text()",
    "//*[text()]",
    "/a/text()/following-sibling::*",
    "//b[@y]/@id",
    "//*/@id/..",
    "//d/text()/following-sibling::a",
    "//*[not(text()) and not(@x)]",
    "//text()/ancestor::*",
    "//node()",
    "//c[a or text()]/parent::a/@x",
]
ENCODINGS = [(False, False), (True, False), (False, True), (True, True)]


def _systems(tmp_path, xml, strategy, name, **encode):
    """The document through both constructors: fresh parse and reopen."""
    fresh = Engine(xml, strategy=strategy, **encode)
    bundle = save_document(xml, os.path.join(str(tmp_path), name), **encode)
    return fresh, open_document(bundle)


def _check(tmp_path, xml, queries, strategy, name, **encode):
    labels = oracle_sqlite.labels(xml, **encode)
    fresh, stored = _systems(tmp_path, xml, strategy, name, **encode)
    with stored:
        tree = stored.tree
        assert [tree.label(v) for v in range(tree.n)] == labels
        assert fresh.labels_of(range(len(labels))) == labels
        reopened = Engine(stored, strategy=strategy)
        for query in queries:
            expected = oracle_sqlite.select(xml, query, **encode)
            for side, engine in (("fresh", fresh), ("reopened", reopened)):
                got = engine.select(query)
                assert got == expected, (
                    f"{strategy!r} on the {side} document disagrees with "
                    f"the sqlite oracle on {query!r}: {got} != {expected}"
                )
    return len(queries)


@pytest.mark.parametrize("corpus,encode", CORPORA)
@pytest.mark.parametrize("strategy", registry.strategy_names())
def test_strategy_matches_independent_oracle(tmp_path, corpus, encode, strategy):
    cases = 0
    for d, (xml, queries) in enumerate(corpus):
        cases += _check(tmp_path, xml, queries, strategy, f"doc{d}", **encode)
    assert cases >= 48


@pytest.mark.parametrize("encode_attributes,encode_text", ENCODINGS)
@pytest.mark.parametrize("strategy", registry.strategy_names())
def test_each_encode_flag_on_its_own(
    tmp_path, strategy, encode_attributes, encode_text
):
    """The encoded corpus under every flag combination: a flag that is
    off leaves ``@name`` / ``text()`` steps empty, it does not move ids."""
    corpus = CORPORA[2].values[0]
    for d, (xml, queries) in enumerate(corpus):
        _check(
            tmp_path, xml, queries, strategy, f"doc{d}",
            encode_attributes=encode_attributes, encode_text=encode_text,
        )


@pytest.mark.parametrize("encode_attributes,encode_text", ENCODINGS)
@pytest.mark.parametrize("strategy", registry.strategy_names())
def test_late_text_child_document(
    tmp_path, strategy, encode_attributes, encode_text
):
    _check(
        tmp_path, LATE_TEXT, LATE_TEXT_QUERIES, strategy, "late",
        encode_attributes=encode_attributes, encode_text=encode_text,
    )


def test_late_text_document_takes_the_fallback():
    """The document above really is the shape the builder gives up on."""
    from repro.tree.builder import LateTextChild, TreeBuilder
    from repro.tree.parser import parse_events

    with pytest.raises(LateTextChild):
        parse_events(LATE_TEXT, TreeBuilder(encode_text=True))
