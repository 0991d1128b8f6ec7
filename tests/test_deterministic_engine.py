"""Deterministic path compilation and the Section 3 end-to-end pipeline."""

import pytest
from hypothesis import given, settings

from repro import Engine
from repro.automata.minimize import minimize_tdsta
from repro.automata.pathdet import NotPathShaped, is_path_shaped, path_tdsta
from repro.automata.relevance import topdown_relevant
from repro.counters import EvalStats
from repro.engine import registry
from repro.engine.core import SERIES, run_asta
from repro.engine.deterministic import compile_tdsta, run_tdsta
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

from strategies import binary_trees, execute_as, run_as

PATH_QUERIES = ["//a//b", "/r/a/b", "//a/b//c", "/r//b", "//a", "/r/*/b"]
NON_PATH_QUERIES = ["//a[b]", "//a[not(b)]//c", "//a[b or c]"]


class TestShapeDetection:
    @pytest.mark.parametrize("query", PATH_QUERIES)
    def test_path_queries_qualify(self, query):
        assert is_path_shaped(compile_xpath(query))

    @pytest.mark.parametrize("query", NON_PATH_QUERIES)
    def test_predicates_disqualify(self, query):
        assert not is_path_shaped(compile_xpath(query))

    def test_path_tdsta_rejects_predicates(self):
        with pytest.raises(NotPathShaped):
            path_tdsta(compile_xpath("//a[b]"))


class TestDeterminism:
    @pytest.mark.parametrize("query", PATH_QUERIES)
    def test_result_is_deterministic_and_complete(self, query):
        sta = path_tdsta(compile_xpath(query))
        assert sta.is_topdown_deterministic()
        assert sta.is_topdown_complete()

    def test_desc_a_desc_b_minimizes_to_example_21(self):
        """The paper's Example 2.1 automaton, recovered automatically."""
        sta = compile_tdsta("//a//b")
        assert len(sta.states) == 2  # exactly q0, q1 of Example 2.1

    def test_minimization_preserves_selection(self):
        sta = path_tdsta(compile_xpath("//a/b//c"))
        mini = minimize_tdsta(sta)
        tree = BinaryTree.from_spec(("r", ("a", ("b", ("d", "c")), "c")))
        assert mini.selected_nodes(tree) == sta.selected_nodes(tree)


class TestEvaluation:
    @pytest.mark.parametrize("query", PATH_QUERIES)
    def test_matches_reference_on_fixed_tree(self, query, small_tree, small_index):
        expected = evaluate_reference(small_tree, parse_xpath(query))
        _, selected = run_as("deterministic", query, small_index)
        assert selected == expected

    @given(binary_trees(max_depth=4, max_children=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_random(self, tree):
        index = TreeIndex(tree)
        for query in ("//a//b", "/a/b//c", "//c"):
            expected = evaluate_reference(tree, parse_xpath(query))
            assert run_as("deterministic", query, index)[1] == expected

    def test_visits_only_relevant_nodes(self, small_index):
        """Theorem 3.1 through the public pipeline."""
        sta = compile_tdsta("//a//b")
        relevant = topdown_relevant(sta, small_index.tree)
        stats = execute_as("deterministic", "//a//b", small_index).stats
        assert stats.visited == len(relevant)

    def test_paper_path_queries_on_xmark(self, xmark_index):
        for qid in ("Q01", "Q05", "Q11"):
            query = QUERIES[qid]
            expected = evaluate_reference(xmark_index.tree, parse_xpath(query))
            assert run_as("deterministic", query, xmark_index)[1] == expected


class TestEngineIntegration:
    XML = "<r><a><x/><b/><c><b/></c></a><b/></r>"

    def test_strategy_available(self):
        engine = Engine(self.XML, strategy="deterministic")
        assert engine.select("//a//b") == [3, 5]

    def test_fallback_for_predicates(self):
        engine = Engine(self.XML, strategy="deterministic")
        assert engine.select("//a[c]//b") == [3, 5]

    def test_matches_optimized_everywhere(self, xmark_index):
        det = Engine(xmark_index.tree, strategy="deterministic")
        opt = Engine(xmark_index.tree, strategy="optimized")
        for qid, query in QUERIES.items():
            assert det.select(query) == opt.select(query), qid


class TestBottomUpFilter:
    """//target[.//witness] (the Example A.1 family) needs a bottom-up
    automaton: no top-down deterministic one selects it."""

    def test_no_equivalent_tdsta_shape(self):
        """The paper's claim that //a[.//b] is not top-down determinizable
        shows up as: the compiled ASTA is not path-shaped."""
        from repro.automata.pathdet import is_path_shaped

        assert not is_path_shaped(compile_xpath("//a[.//b]"))


FILTER_QUERIES = ("//a[.//b]", "//b[.//c]", "//a[.//a]")
XMARK_FILTERS = (
    "//listitem[.//keyword]",
    "//item[.//mail]",
    "//open_auction[.//bidder]",
    "//parlist[.//parlist]",
)


class TestFilterQueriesAreServed:
    """The //target[.//witness] family on the served strategies: each one
    answers it exactly, and the jumping runs skip witness-free regions."""

    @pytest.mark.parametrize("strategy", registry.strategy_names())
    @pytest.mark.parametrize("query", XMARK_FILTERS)
    def test_matches_reference_on_xmark(self, query, strategy, xmark_index):
        expected = evaluate_reference(xmark_index.tree, parse_xpath(query))
        result = Engine(xmark_index).prepare(query, strategy=strategy).execute()
        assert expected
        assert list(result.ids) == expected
        assert result.accepted

    @pytest.mark.parametrize("strategy", registry.strategy_names())
    @given(tree=binary_trees(max_depth=4, max_children=4))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_random(self, strategy, tree):
        engine = Engine(tree)
        for query in FILTER_QUERIES:
            expected = evaluate_reference(tree, parse_xpath(query))
            result = engine.prepare(query, strategy=strategy).execute()
            assert list(result.ids) == expected, (strategy, query)

    @pytest.mark.parametrize("series", ["jumping", "optimized"])
    @pytest.mark.parametrize("query", XMARK_FILTERS)
    def test_jumping_skips_witness_free_regions(self, query, series, xmark_index):
        stats = EvalStats()
        _, selected = run_asta(
            compile_xpath(query), xmark_index, stats=stats, **SERIES[series]
        )
        assert selected == evaluate_reference(xmark_index.tree, parse_xpath(query))
        assert stats.visited < xmark_index.tree.n // 4


class TestWildcardInventory:
    """Regression: '*' on encoded documents must compile against the
    element-label inventory, both through the strategy and through the
    module-level compile_tdsta() (the TDSTA cache is keyed by inventory)."""

    XML = '<r><a id="v">text here</a><b/></r>'

    @pytest.fixture()
    def encoded_index(self):
        from repro.tree.parser import parse_xml

        tree = BinaryTree.from_document(
            parse_xml(self.XML), encode_attributes=True, encode_text=True
        )
        return TreeIndex(tree)

    def test_strategy_excludes_encoded_labels(self, encoded_index):
        engine = Engine(encoded_index, strategy="deterministic")
        expected = evaluate_reference(encoded_index.tree, parse_xpath("//*"))
        assert engine.select("//*") == expected
        labels = engine.labels_of(engine.select("//*"))
        assert all(not l.startswith(("@", "#")) for l in labels)

    def test_module_level_evaluate_takes_inventory(self, encoded_index):
        inventory = [
            l
            for l in encoded_index.tree.labels
            if not l.startswith(("@", "#"))
        ]
        _, with_inventory = run_tdsta(
            compile_tdsta("//*", inventory), encoded_index, EvalStats()
        )
        expected = evaluate_reference(encoded_index.tree, parse_xpath("//*"))
        assert with_inventory == expected
        # Without the inventory the wildcard matches every label: the
        # two cache entries must not alias.
        _, without = run_tdsta(compile_tdsta("//*"), encoded_index, EvalStats())
        assert without == list(range(encoded_index.tree.n))


class TestTdstaCache:
    def test_distinct_queries_stay_within_the_bound(self):
        """A daemon request may name ``deterministic``: a stream of
        distinct queries must not grow the TDSTA cache past the bound
        the compiled-ASTA cache has."""
        from repro.engine import deterministic
        from repro.engine.plan import COMPILED_CACHE_SIZE

        engine = Engine("<r><a><b/></a></r>", strategy="deterministic")
        for i in range(COMPILED_CACHE_SIZE + 8):
            assert engine.prepare(f"//a//x{i}").strategy.name == "deterministic"
        assert len(deterministic._tdsta_cache) <= COMPILED_CACHE_SIZE
