"""Pinned ``explain`` text of every strategy, and what ``prepare`` compiles.

For each of the ten registered names x five queries (a descendant
chain, a predicate, ``parent::``, ``ancestor::`` and a rooted child
path) on one fixed document, ``tests/golden_explain.json`` records:

- the lines of ``PreparedQuery.explain()`` -- written by the strategy
  that runs the plan, so the text names only the machinery that runs;
- ``engine.cache.compilations`` right after ``prepare``, on a fresh
  engine, so eager compilation stays where it was.

``python tests/test_explain_pins.py`` rewrites the golden file from the
code in the tree; only do that for a change meant to move it.
"""

import json
import os

import pytest

from repro.engine import registry
from repro.engine.api import Engine
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_explain.json")
XML = "<r><a><x/><b/><c><b/></c></a><b/><a><b><c/></b></a></r>"
QUERIES = ("//a//b", "//a[b]//c", "//b/parent::a", "//a/ancestor::r", "/r/a[b]")


def cell(index: TreeIndex, name: str, query: str) -> dict:
    engine = Engine(index, strategy=name)
    plan = engine.prepare(query)
    compilations = engine.cache.compilations
    return {
        "compilations": compilations,
        "explain": plan.explain().splitlines(),
    }


def observe(index: TreeIndex) -> dict:
    return {
        name: {query: cell(index, name, query) for query in QUERIES}
        for name in registry.strategy_names()
    }


@pytest.fixture(scope="module")
def index():
    return TreeIndex(BinaryTree.from_xml(XML))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_every_name_is_pinned(golden):
    assert sorted(golden) == registry.strategy_names()


@pytest.mark.parametrize("name", registry.strategy_names())
@pytest.mark.parametrize("query", QUERIES)
def test_explain_and_prepare_compilations(index, golden, name, query):
    assert cell(index, name, query) == golden[name][query]


if __name__ == "__main__":
    observed = observe(TreeIndex(BinaryTree.from_xml(XML)))
    with open(GOLDEN, "w") as f:
        json.dump(observed, f, indent=1, ensure_ascii=False, sort_keys=True)
        f.write("\n")
