"""Medium-scale integration pass: all engines on a ~20k-node XMark doc.

The unit suite runs at scale 0.12; this module is the one place where the
whole stack (parser -> generator -> index -> four ASTA engines -> hybrid
-> deterministic -> stepwise -> mixed) is exercised on a document big
enough for jump chains, memo tables and staircase pruning to matter.
"""

import pytest

from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.engine.api import Engine
from repro.engine.core import SERIES, run_asta
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath

import oracle_sqlite
from strategies import run_as


@pytest.fixture(scope="module")
def xml():
    return XMarkGenerator(scale=0.6, seed=2026).xml()


@pytest.fixture(scope="module")
def index(xml):
    return TreeIndex(BinaryTree.from_xml(xml))


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_all_engines_at_scale(qid, xml, index):
    query = QUERIES[qid]
    path = parse_xpath(query)
    expected = oracle_sqlite.select(xml, query)
    asta = compile_xpath(path)
    assert run_asta(asta, index, stats=EvalStats(), **SERIES["naive"])[1] == expected
    assert run_asta(asta, index, stats=EvalStats(), **SERIES["jumping"])[1] == expected
    assert run_asta(asta, index, stats=EvalStats(), **SERIES["memo"])[1] == expected
    assert run_asta(asta, index, stats=EvalStats(), **SERIES["optimized"])[1] == expected
    assert Engine(index, "hybrid").select(path) == expected
    assert stepwise_evaluate(path, index, EvalStats()) == expected


def test_deterministic_and_mixed_at_scale(xml, index):
    for query in ("//listitem//keyword", "/site/regions/europe/item",
                  "//keyword/ancestor::listitem", "//mail/../../name"):
        path = parse_xpath(query)
        expected = oracle_sqlite.select(xml, query)
        if path.has_backward_axes():
            assert run_as("mixed", path, index)[1] == expected
        else:
            assert run_as("deterministic", path, index)[1] == expected
