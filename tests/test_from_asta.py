"""Alternation elimination ASTA -> STA (Section 4.1 / Example C.1)."""

import pytest
from hypothesis import given, settings

from repro.asta.formula import FALSE, TRUE, down, fand, fnot, for_
from repro.automata.from_asta import (
    AlternationError,
    asta_to_sta,
    formula_dnf,
    sta_blowup_size,
)
from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.compiler import compile_xpath

from strategies import binary_trees


class TestDNF:
    def test_literals(self):
        assert formula_dnf(TRUE) == [(frozenset(), frozenset())]
        assert formula_dnf(FALSE) == []
        assert formula_dnf(down(1, "q")) == [(frozenset({"q"}), frozenset())]
        assert formula_dnf(down(2, "q")) == [(frozenset(), frozenset({"q"}))]

    def test_or_concatenates(self):
        f = for_(down(1, "p"), down(2, "q"))
        assert len(formula_dnf(f)) == 2

    def test_and_multiplies(self):
        f = fand(
            for_(down(1, "a1"), down(1, "a2")),
            for_(down(1, "a3"), down(1, "a4")),
        )
        assert len(formula_dnf(f)) == 4

    def test_example_c1_dnf_is_exponential(self):
        n = 6
        f = fand(
            *[
                for_(down(1, f"a{2 * i + 1}"), down(1, f"a{2 * i + 2}"))
                for i in range(n)
            ]
        )
        assert len(formula_dnf(f)) == 2**n

    def test_negation_rejected(self):
        with pytest.raises(AlternationError):
            formula_dnf(fnot(down(1, "q")))


class TestTranslationSemantics:
    QUERIES = ["//a//b", "//a//b[c]", "//a/b", "//x[a and b]", "//x[a or b]"]

    @pytest.mark.parametrize("query", QUERIES)
    def test_fixed_trees(self, query):
        asta = compile_xpath(query)
        sta = asta_to_sta(asta)
        for spec in (
            ("r", ("a", "b", ("c", "b")), "b"),
            ("x", "a", ("b", "c")),
            ("a", ("x", ("a", "b"), "c"), ("b", "c")),
            "a",
        ):
            tree = BinaryTree.from_spec(spec)
            want = run_asta(asta, TreeIndex(tree), stats=EvalStats())[1]
            assert sta.selected_nodes(tree) == want, (query, spec)

    @given(binary_trees(max_depth=3, max_children=3))
    @settings(max_examples=50, deadline=None)
    def test_random_trees_desc_desc(self, tree):
        asta = compile_xpath("//a//b")
        sta = asta_to_sta(asta)
        want = run_asta(asta, TreeIndex(tree), stats=EvalStats())[1]
        assert sta.selected_nodes(tree) == want

    @given(binary_trees(max_depth=3, max_children=3))
    @settings(max_examples=50, deadline=None)
    def test_random_trees_with_predicate(self, tree):
        asta = compile_xpath("//a[b]//c")
        sta = asta_to_sta(asta)
        want = run_asta(asta, TreeIndex(tree), stats=EvalStats())[1]
        assert sta.selected_nodes(tree) == want

    def test_language_acceptance_matches(self):
        asta = compile_xpath("//a//b")
        sta = asta_to_sta(asta)
        accepting = BinaryTree.from_spec(("a", "b"))
        rejecting = BinaryTree.from_spec(("b", "a"))
        assert sta.accepts(accepting)
        assert not sta.accepts(rejecting)

    def test_negated_query_rejected(self):
        with pytest.raises(AlternationError):
            asta_to_sta(compile_xpath("//a[not(b)]"))


class TestExampleC1Blowup:
    """The paper's claim: ASTA linear, STA exponential."""

    def sizes(self, n):
        clauses = " and ".join(
            f"(a{2 * i + 1} or a{2 * i + 2})" for i in range(n)
        )
        asta = compile_xpath(f"//x[ {clauses} ]")
        return asta.size(), sta_blowup_size(asta)

    def test_asta_linear_sta_exponential(self):
        (a_states2, a_trans2), (s_states2, s_trans2) = self.sizes(2)
        (a_states4, a_trans4), (s_states4, s_trans4) = self.sizes(4)
        # ASTA grows linearly ...
        assert a_states4 - a_states2 == 4
        assert a_trans4 - a_trans2 == 8
        # ... the STA transition relation at least quadruples per +2
        # clauses (the 2^n DNF of the selecting formula).
        assert s_trans4 > 4 * s_trans2 / 2
        assert s_trans4 > s_trans2 + 2**4

    def test_blowup_hits_state_bound_eventually(self):
        clauses = " and ".join(f"(a{2*i+1} or a{2*i+2})" for i in range(9))
        asta = compile_xpath(f"//x[ {clauses} ]")
        with pytest.raises(AlternationError):
            asta_to_sta(asta, max_states=64)
