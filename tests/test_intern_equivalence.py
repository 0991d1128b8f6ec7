"""Interner equivalence: the int-keyed machine answers what the sqlite
oracle answers.

The interned hot path (:class:`repro.engine.intern.RunTables` + the
sweep/fold fast paths of :func:`repro.engine.core._run_interned`) must
select exactly the oracle's nodes, and accept exactly when the plain
machine with memoization off accepts, for every registered strategy,
with cold and warmed tables, on random trees and random queries.
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

import oracle_sqlite
from strategies import documents, xpath_queries


@pytest.fixture(scope="module")
def xmark_xml():
    return XMarkGenerator(scale=0.15, seed=11).xml()


@pytest.fixture(scope="module")
def xmark_index(xmark_xml):
    return TreeIndex(BinaryTree.from_xml(xmark_xml))


class TestMemoOnOffEquivalence:
    """memo=True (interned) vs memo=False (plain scan) -- the oracle's
    answers, and the same acceptance."""

    @given(xml=documents(), query=xpath_queries())
    @settings(max_examples=120, deadline=None)
    def test_random_trees_and_queries(self, xml, query):
        index = TreeIndex(BinaryTree.from_xml(xml))
        asta = compile_xpath(query)
        plain = run_asta(
            asta, index, stats=EvalStats(), jumping=True, memo=False, ip=True
        )
        assert plain[1] == oracle_sqlite.select(xml, query), query
        for jumping in (False, True):
            for ip in (False, True):
                interned = run_asta(
                    asta, index, jumping=jumping, memo=True, ip=ip,
                    stats=EvalStats(),
                )
                assert interned == plain, (query, jumping, ip)

    def test_fig4_mix_on_xmark(self, xmark_xml, xmark_index):
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
            assert interned[1] == oracle_sqlite.select(xmark_xml, query), qid
            assert interned == plain, qid


class TestWarmedTables:
    """Warm RunTables across runs never change answers."""

    def test_reused_tables_identical_answers(self, xmark_xml, xmark_index):
        for qid, query in QUERIES.items():
            asta = compile_xpath(query)
            tables = RunTables(asta, xmark_index, jumping=True)
            first = run_asta(asta, xmark_index, tables=tables, stats=EvalStats())
            second = run_asta(asta, xmark_index, tables=tables, stats=EvalStats())
            cold = run_asta(asta, xmark_index, stats=EvalStats())
            assert first[1] == oracle_sqlite.select(xmark_xml, query), qid
            assert first == second == cold, qid

    def test_mismatched_tables_are_rejected(self, xmark_xml, xmark_index):
        """run_asta builds fresh tables when given tables for another
        automaton or index (no silent cross-contamination)."""
        asta_a = compile_xpath("//listitem")
        asta_b = compile_xpath("//keyword")
        tables_a = RunTables(asta_a, xmark_index, jumping=True)
        accepted, ids = run_asta(
            asta_b, xmark_index, stats=EvalStats(), tables=tables_a
        )
        assert ids == oracle_sqlite.select(xmark_xml, "//keyword")

    def test_ip_toggle_shares_tables(self, xmark_xml, xmark_index):
        """The same tables serve ip=True and ip=False runs."""
        query = "//listitem[.//keyword]//parlist"
        asta = compile_xpath(query)
        tables = RunTables(asta, xmark_index, jumping=True)
        with_ip = run_asta(asta, xmark_index, ip=True, tables=tables, stats=EvalStats())
        without = run_asta(
            asta, xmark_index, stats=EvalStats(), ip=False, tables=tables
        )
        assert with_ip[1] == oracle_sqlite.select(xmark_xml, query)
        assert with_ip == without


class TestEveryStrategyAgainstOracle:
    """Every registered strategy == the sqlite oracle, warm and cold."""

    @pytest.mark.parametrize("name", registry.strategy_names())
    def test_strategy_matches_the_oracle_with_warm_plans(
        self, name, xmark_xml, xmark_index
    ):
        engine = Engine(xmark_index)
        for qid, query in QUERIES.items():
            expected = oracle_sqlite.select(xmark_xml, query)
            plan = engine.prepare(query, strategy=name)
            cold = plan.execute()
            warm = plan.execute()  # second run: fully warmed tables
            assert list(cold.ids) == expected, (name, qid, "cold")
            assert list(warm.ids) == expected, (name, qid, "warm")

    @pytest.mark.parametrize("name", registry.strategy_names())
    @given(xml=documents(), query=xpath_queries())
    @settings(max_examples=25, deadline=None)
    def test_strategy_matches_the_oracle_on_random_inputs(self, name, xml, query):
        expected = oracle_sqlite.select(xml, query)
        plan = Engine(TreeIndex(BinaryTree.from_xml(xml))).prepare(query, strategy=name)
        assert list(plan.execute().ids) == expected
        assert list(plan.execute().ids) == expected
