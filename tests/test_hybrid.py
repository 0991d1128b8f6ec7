"""Hybrid (start-anywhere) evaluation (Section 4.4 / Figure 5)."""

import pytest
from hypothesis import given, settings

from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.engine.api import Engine
from repro.engine.hybrid import is_hybrid_applicable, plan_pivot
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.configs import CONFIG_SPECS, make_config, make_config_tree
from repro.xmark.queries import HYBRID_QUERY
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath

import oracle_sqlite
from strategies import documents, execute_as, run_as, spec_xml


def config_xml(name: str, fraction: float) -> str:
    """A Figure 5 configuration (element-only) as XML text, written by
    the tests' own spec walk."""

    def spec(node):
        if not node.children:
            return node.label
        return (node.label, *map(spec, node.children))

    return spec_xml(spec(make_config(name, fraction).root))


class TestPlanning:
    def test_applicable_descendant_chain(self):
        assert is_hybrid_applicable(parse_xpath("//a//b//c"))

    @pytest.mark.parametrize(
        "query", ["/a/b", "//a[b]//c", "//a//*", "//a/following-sibling::b"]
    )
    def test_not_applicable(self, query):
        assert not is_hybrid_applicable(parse_xpath(query))

    def test_pivot_picks_rarest_label(self):
        tree = BinaryTree.from_xml(
            "<r><a><b/><b/><b/></a><a><c/></a></r>"
        )
        index = TreeIndex(tree)
        path = parse_xpath("//a//b")
        assert plan_pivot(path, index) == 0  # 2 a's < 3 b's
        path = parse_xpath("//b//c")
        assert plan_pivot(path, index) == 1  # 1 c < 3 b's

    def test_fallback_for_non_chain_query(self, xmark_xml, xmark_index):
        # Queries outside the chain fragment resolve to the optimized
        # engine and still return correct results.
        query = "/site/people/person[ address and (phone or homepage) ]"
        expected = oracle_sqlite.select(xmark_xml, query)
        plan = Engine(xmark_index, "hybrid").prepare(query)
        assert plan.strategy.name == "optimized"
        assert plan.execute().nodes == expected


class TestUpwardCheck:
    def test_prefix_checked_through_ancestors(self):
        tree = BinaryTree.from_xml(
            "<r><a><x><b/></x></a><y><b/></y></r>"
        )
        index = TreeIndex(tree)
        _, sel = run_as("hybrid", "//a//b", index)
        assert [tree.label(v) for v in sel] == ["b"]
        assert sel == [3]  # only the b under the a

    def test_interleaved_prefix_order_matters(self):
        # //a//c//b: ancestors must contain c below a, in order.
        tree = BinaryTree.from_xml(
            "<r><c><a><b/></a></c><a><c><b/></c></a></r>"
        )
        index = TreeIndex(tree)
        _, sel = run_as("hybrid", "//a//c//b", index)
        assert len(sel) == 1
        assert tree.parent[sel[0]] != -1


class TestFigure5Configs:
    @pytest.mark.parametrize("name", sorted(CONFIG_SPECS))
    def test_selected_counts_scaled(self, name):
        xml = config_xml(name, fraction=0.05)
        index = TreeIndex(BinaryTree.from_xml(xml))
        _, sel = run_as("hybrid", HYBRID_QUERY, index)
        asta = compile_xpath(HYBRID_QUERY)
        _, sel_regular = run_asta(asta, index, stats=EvalStats())
        assert sel == sel_regular
        assert sel == oracle_sqlite.select(xml, HYBRID_QUERY)

    @pytest.mark.parametrize("name", ["A", "B"])
    def test_best_cases_visit_far_fewer_nodes(self, name):
        index = TreeIndex(make_config_tree(name, fraction=0.05))
        s_h, s_r = execute_as("hybrid", HYBRID_QUERY, index).stats, EvalStats()
        run_asta(compile_xpath(HYBRID_QUERY), index, stats=s_r)
        assert s_h.visited * 10 < s_r.visited

    def test_exact_counts_full_size_config_a(self):
        spec = CONFIG_SPECS["A"]
        tree = make_config_tree("A", fraction=1.0)
        hist = tree.label_histogram()
        assert hist["listitem"] == spec.listitems
        assert hist["keyword"] == spec.keywords_below
        assert hist["emph"] == spec.emphs
        index = TreeIndex(tree)
        _, sel = run_as("hybrid", HYBRID_QUERY, index)
        assert len(sel) == spec.expected_selected


class TestPropertyEquivalence:
    @given(documents(max_depth=4, max_children=4))
    @settings(max_examples=60, deadline=None)
    def test_hybrid_matches_the_oracle_on_chains(self, xml):
        index = TreeIndex(BinaryTree.from_xml(xml))
        for query in ("//a//b", "//b//a//c", "//d"):
            expected = oracle_sqlite.select(xml, query)
            assert run_as("hybrid", query, index)[1] == expected


class TestPredicateChains:
    """Hybrid with a final forward predicate (text-predicate analogue)."""

    def test_applicable_with_final_predicate(self):
        assert is_hybrid_applicable(parse_xpath("//a//b[c]"))
        assert is_hybrid_applicable(parse_xpath("//a//b[.//c and d]"))
        assert not is_hybrid_applicable(parse_xpath("//a[x]//b"))
        assert not is_hybrid_applicable(parse_xpath("//a//b[../c]"))

    @given(documents(max_depth=4, max_children=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_oracle_with_predicates(self, xml):
        index = TreeIndex(BinaryTree.from_xml(xml))
        for query in ("//a//b[c]", "//b[c or d]", "//a//c[not(b)]"):
            expected = oracle_sqlite.select(xml, query)
            assert run_as("hybrid", query, index)[1] == expected, query

    def test_q05_variant_on_xmark(self, xmark_xml, xmark_index):
        query = "//listitem//keyword[emph]"
        expected = oracle_sqlite.select(xmark_xml, query)
        assert run_as("hybrid", query, xmark_index)[1] == expected
