"""Shared fixtures: small documents, XMark instances, indexes."""

from __future__ import annotations

import pytest

from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xmark.generator import XMarkGenerator


@pytest.fixture(scope="session")
def small_doc():
    """A hand-written document exercising nesting, siblings, repetition."""
    return parse_xml(
        "<site>"
        "  <a><x/><b/><c><b/><d/></c></a>"
        "  <b><a><b/></a></b>"
        "  <keyword/>"
        "  <listitem><text><keyword><emph/></keyword></text></listitem>"
        "</site>".replace("  ", "")
    )


@pytest.fixture(scope="session")
def small_tree(small_doc):
    return BinaryTree.from_document(small_doc)


@pytest.fixture(scope="session")
def small_index(small_tree):
    return TreeIndex(small_tree)


@pytest.fixture(scope="session")
def xmark_tree():
    """A small but structurally complete XMark instance."""
    return XMarkGenerator(scale=0.12, seed=11).tree()


@pytest.fixture(scope="session")
def xmark_index(xmark_tree):
    return TreeIndex(xmark_tree)


@pytest.fixture(scope="session")
def xmark_26k():
    """XMark at scale 1 (26k nodes): large enough that the set-at-a-time
    kernels take their context side and first-witness searches by size."""
    return TreeIndex(XMarkGenerator(scale=1.0, seed=11).tree())
