"""Targeted tests of the shared stack machine (repro.engine.core)."""

import pytest
from hypothesis import given, settings

from repro.counters import EvalStats
from repro.engine.core import _formula_template, _marks_down2, run_asta
from repro.asta.formula import TRUE, down, fand, fnot, for_
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath

import oracle_sqlite
from strategies import documents, xpath_queries

ALL_FLAGS = [
    (j, m, i) for j in (False, True) for m in (False, True) for i in (False, True)
]


class TestFlagMatrix:
    """All eight (jumping, memo, ip) combinations are semantically equal."""

    @given(documents(max_depth=4, max_children=3), xpath_queries())
    @settings(max_examples=60, deadline=None)
    def test_all_combinations_agree(self, xml, query):
        index = TreeIndex(BinaryTree.from_xml(xml))
        asta = compile_xpath(parse_xpath(query))
        expected = oracle_sqlite.select(xml, query)
        for j, m, i in ALL_FLAGS:
            _, selected = run_asta(
                asta, index, stats=EvalStats(), jumping=j, memo=m, ip=i
            )
            assert selected == expected, (j, m, i, query)

    def test_ip_reduces_visits_never_changes_results(self, xmark_index):
        asta = compile_xpath("/site[ .//keyword ]//keyword")
        s_with, s_without = EvalStats(), EvalStats()
        r_with = run_asta(asta, xmark_index, jumping=True, memo=True, ip=True, stats=s_with)
        r_without = run_asta(asta, xmark_index, jumping=True, memo=True, ip=False, stats=s_without)
        assert r_with == r_without
        assert s_with.visited <= s_without.visited


class TestChainEarlyStop:
    def test_predicate_chain_stops_after_first_witness(self):
        # 100 b-children; the pred needs only one.
        tree = BinaryTree.from_xml("<r>" + "<b/>" * 100 + "</r>")
        index = TreeIndex(tree)
        asta = compile_xpath("/r[.//b]")
        stats = EvalStats()
        accepted, sel = run_asta(asta, index, stats=stats)
        assert accepted and sel == [0]
        assert stats.visited <= 3

    def test_selection_chain_never_stops_early(self):
        tree = BinaryTree.from_xml("<r>" + "<b/>" * 50 + "</r>")
        index = TreeIndex(tree)
        asta = compile_xpath("//b")
        stats = EvalStats()
        _, sel = run_asta(asta, index, stats=stats)
        assert len(sel) == 50
        assert stats.visited >= 50


class TestMemoBehaviour:
    def test_memo_tables_reused_within_one_run(self, xmark_index):
        asta = compile_xpath("//listitem//keyword")
        stats = EvalStats()
        run_asta(asta, xmark_index, jumping=False, memo=True, ip=False, stats=stats)
        assert stats.memo_hits > stats.memo_entries

    def test_no_memo_counts_nothing(self, xmark_index):
        asta = compile_xpath("//listitem//keyword")
        stats = EvalStats()
        run_asta(asta, xmark_index, jumping=False, memo=False, ip=False, stats=stats)
        assert stats.memo_entries == 0
        assert stats.memo_hits == 0


class TestHelperFunctions:
    def test_marks_down2_skips_false_branches(self):
        marking = lambda q: True
        f = fand(down(1, "p"), down(2, "q"))
        # left branch false => whole conjunction false => nothing at stake
        assert _marks_down2(f, frozenset(), marking) == set()
        assert _marks_down2(f, frozenset({"p"}), marking) == {"q"}

    def test_marks_down2_ignores_negated(self):
        marking = lambda q: True
        f = fnot(down(2, "q"))
        assert _marks_down2(f, frozenset(), marking) == set()

    def test_marks_down2_filters_non_marking(self):
        marking = lambda q: q == "m"
        f = for_(down(2, "m"), down(2, "x"))
        assert _marks_down2(f, frozenset(), marking) == {"m"}

    def test_formula_template_collects_sources(self):
        f = fand(down(1, "p"), for_(down(2, "q"), down(2, "r")))
        ok, sources = _formula_template(
            f, frozenset({"p"}), frozenset({"q", "r"})
        )
        assert ok
        assert set(sources) == {(1, "p"), (2, "q"), (2, "r")}

    def test_formula_template_or_single_branch(self):
        f = for_(down(1, "p"), down(1, "q"))
        ok, sources = _formula_template(f, frozenset({"q"}), frozenset())
        assert ok and sources == [(1, "q")]

    def test_formula_template_negation_contributes_nothing(self):
        f = fnot(down(1, "p"))
        ok, sources = _formula_template(f, frozenset(), frozenset())
        assert ok and sources == []
