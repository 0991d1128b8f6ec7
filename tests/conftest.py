"""Shared fixtures: small documents, XMark instances, indexes."""

from __future__ import annotations

import pytest

from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator


SMALL_XML = (
    "<site>"
    "<a><x/><b/><c><b/><d/></c></a>"
    "<b><a><b/></a></b>"
    "<keyword/>"
    "<listitem><text><keyword><emph/></keyword></text></listitem>"
    "</site>"
)
"""A hand-written document exercising nesting, siblings, repetition."""


@pytest.fixture(scope="session")
def small_xml():
    return SMALL_XML


@pytest.fixture(scope="session")
def small_tree(small_xml):
    return BinaryTree.from_xml(small_xml)


@pytest.fixture(scope="session")
def small_index(small_tree):
    return TreeIndex(small_tree)


@pytest.fixture(scope="session")
def xmark_xml():
    """A small but structurally complete XMark instance, as the XML text
    the sqlite oracle reads too."""
    return XMarkGenerator(scale=0.12, seed=11).xml()


@pytest.fixture(scope="session")
def xmark_tree(xmark_xml):
    return BinaryTree.from_xml(xmark_xml)


@pytest.fixture(scope="session")
def xmark_index(xmark_tree):
    return TreeIndex(xmark_tree)


@pytest.fixture(scope="session")
def xmark_26k_xml():
    """XMark at scale 1 (26k nodes): large enough that the set-at-a-time
    kernels take their context side and first-witness searches by size."""
    return XMarkGenerator(scale=1.0, seed=11).xml()


@pytest.fixture(scope="session")
def xmark_26k(xmark_26k_xml):
    return TreeIndex(BinaryTree.from_xml(xmark_26k_xml))
