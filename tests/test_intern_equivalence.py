"""Interner equivalence: the int-keyed machine matches the naive oracle.

The interned hot path (:class:`repro.engine.intern.RunTables` + the
sweep/fold fast paths of :func:`repro.engine.core._run_interned`) must be
observationally identical to the plain machine with memoization off, for
every registered strategy, with cold and warmed tables, on random trees
and random queries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.counters import EvalStats
from repro.engine import registry
from repro.engine.api import Engine
from repro.engine.core import run_asta
from repro.engine.intern import RunTables
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath

from strategies import binary_trees, xpath_queries


@pytest.fixture(scope="module")
def xmark_index():
    return TreeIndex(XMarkGenerator(scale=0.15, seed=11).tree())


class TestMemoOnOffEquivalence:
    """memo=True (interned) vs memo=False (plain scan) -- same answers."""

    @given(tree=binary_trees(), query=xpath_queries())
    @settings(max_examples=120, deadline=None)
    def test_random_trees_and_queries(self, tree, query):
        index = TreeIndex(tree)
        asta = compile_xpath(query)
        plain = run_asta(
            asta, index, stats=EvalStats(), jumping=True, memo=False, ip=True
        )
        for jumping in (False, True):
            for ip in (False, True):
                interned = run_asta(
                    asta, index, jumping=jumping, memo=True, ip=ip,
                    stats=EvalStats(),
                )
                assert interned == plain, (query, jumping, ip)

    def test_fig4_mix_on_xmark(self, xmark_index):
        for qid, query in QUERIES.items():
            asta = compile_xpath(query)
            plain = run_asta(
                asta, xmark_index, jumping=False, memo=False, ip=False,
                stats=EvalStats(),
            )
            interned = run_asta(
                asta, xmark_index, jumping=True, memo=True, ip=True,
                stats=EvalStats(),
            )
            assert interned == plain, qid


class TestWarmedTables:
    """Warm RunTables across runs never change answers."""

    def test_reused_tables_identical_answers(self, xmark_index):
        for qid, query in QUERIES.items():
            asta = compile_xpath(query)
            tables = RunTables(asta, xmark_index, jumping=True)
            first = run_asta(asta, xmark_index, tables=tables, stats=EvalStats())
            second = run_asta(asta, xmark_index, tables=tables, stats=EvalStats())
            cold = run_asta(asta, xmark_index, stats=EvalStats())
            assert first == second == cold, qid

    def test_mismatched_tables_are_rejected(self, xmark_index):
        """run_asta builds fresh tables when given tables for another
        automaton or index (no silent cross-contamination)."""
        asta_a = compile_xpath("//listitem")
        asta_b = compile_xpath("//keyword")
        tables_a = RunTables(asta_a, xmark_index, jumping=True)
        accepted, ids = run_asta(
            asta_b, xmark_index, stats=EvalStats(), tables=tables_a
        )
        _, expected = run_asta(asta_b, xmark_index, stats=EvalStats())
        assert ids == expected

    def test_ip_toggle_shares_tables(self, xmark_index):
        """The same tables serve ip=True and ip=False runs."""
        asta = compile_xpath("//listitem[.//keyword]//parlist")
        tables = RunTables(asta, xmark_index, jumping=True)
        with_ip = run_asta(asta, xmark_index, ip=True, tables=tables, stats=EvalStats())
        without = run_asta(
            asta, xmark_index, stats=EvalStats(), ip=False, tables=tables
        )
        assert with_ip == without


class TestEveryStrategyAgainstOracle:
    """Every registered strategy == naive oracle, warm and cold."""

    @pytest.mark.parametrize("name", registry.strategy_names())
    def test_strategy_matches_naive_with_warm_plans(self, name, xmark_index):
        engine = Engine(xmark_index)
        for qid, query in QUERIES.items():
            oracle = engine.prepare(query, strategy="naive").execute()
            plan = engine.prepare(query, strategy=name)
            cold = plan.execute()
            warm = plan.execute()  # second run: fully warmed tables
            assert list(cold.ids) == list(oracle.ids), (name, qid, "cold")
            assert list(warm.ids) == list(oracle.ids), (name, qid, "warm")

    @pytest.mark.parametrize("name", registry.strategy_names())
    @given(tree=binary_trees(), query=xpath_queries())
    @settings(max_examples=25, deadline=None)
    def test_strategy_matches_naive_on_random_inputs(self, name, tree, query):
        engine = Engine(TreeIndex(tree))
        oracle = engine.prepare(query, strategy="naive").execute()
        plan = engine.prepare(query, strategy=name)
        assert list(plan.execute().ids) == list(oracle.ids)
        assert list(plan.execute().ids) == list(oracle.ids)
