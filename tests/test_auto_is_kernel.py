"""``auto`` is the kernel at every document size, and a relative
top-level path is one refusal whatever the strategy.

Before, ``auto`` priced the kernel against three automaton strategies
per query and bound ``optimized`` on small documents (half of MIX20 at
~540 nodes), which built the tree's list mirrors and hung a mutable
planner state on every plan.
"""

from __future__ import annotations

import pytest

from repro.engine import registry
from repro.engine.api import Engine
from repro.engine.planner import planner_fields
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator
from repro.xpath.compiler import XPathCompileError
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference
from test_differential_fuzz import CORPORA
from test_planner import MIX20

#: MIX20 and every query of the five fuzz corpora (most select nothing
#: on an XMark document; each still prepares and runs a plan).
QUERIES = list(
    dict.fromkeys(
        MIX20
        + [
            query
            for corpus in CORPORA
            for _xml, queries in corpus.values[0]
            for query in queries
        ]
    )
)

#: ~540 nodes (where half of MIX20 ran on the automaton), the 13.5k
#: nodes of the ``serve-point`` workload, and conftest's ``xmark_tree``.
DOCUMENTS = [
    pytest.param(0.02, 92, id="508-nodes"),
    pytest.param(0.5, 91, id="13.7k-nodes"),
    pytest.param(0.12, 11, id="xmark-fixture"),
]


@pytest.mark.parametrize("scale, seed", DOCUMENTS)
def test_every_auto_plan_is_the_kernel(scale, seed):
    xml = XMarkGenerator(scale=scale, seed=seed).xml()
    index = TreeIndex(BinaryTree.from_xml(xml))
    engine = Engine(index)  # the default strategy
    oracle = Engine(xml, strategy="optimized")  # a separate parse
    for query in QUERIES:
        plan = engine.prepare(query)
        assert planner_fields(plan) == {"executes_as": "window"}, query
        assert "planner" not in plan.artifacts, query
        try:
            expected = oracle.select(query)
        except XPathCompileError:  # e.g. ``/@a``: the compiler refuses it
            expected = evaluate_reference(oracle.tree, parse_xpath(query))
        for _ in range(2):
            assert plan.select() == expected, query
    assert index.tree.resident_mirrors() == ()


RELATIVE = ["b/c", "c/parent::b"]


@pytest.mark.parametrize("query", RELATIVE)
@pytest.mark.parametrize("strategy", registry.strategy_names())
def test_relative_top_level_path_is_one_refusal(strategy, query):
    engine = Engine("<a><b><c/></b></a>", strategy=strategy)
    with pytest.raises(XPathCompileError) as refusal:
        engine.prepare(query)
    assert str(refusal.value) == "top-level queries must be absolute (start with /)"
