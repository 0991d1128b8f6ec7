"""Cross-engine equivalence: every engine == the set-based reference.

This is the library's central correctness property: naive, jumping,
memoized, optimized, hybrid and the step-wise baseline must all return
exactly the reference answer, on the paper's fifteen queries over XMark
documents and on hypothesis-random documents x random fragment queries.

The registry conformance suite at the bottom extends the property to
*every registered strategy*: it parametrizes over
``registry.strategy_names()`` at collection time, so a plugin strategy
registered before test collection is checked against the ``naive``
oracle and the reference semantics for free.
"""

import pytest
from hypothesis import given, settings

from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.engine import registry
from repro.engine.core import SERIES, run_asta
from repro.engine.api import Engine
from repro.index.jumping import TreeIndex
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

from strategies import binary_trees, xpath_queries



class TestPaperQueriesOnXMark:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_all_engines_match_reference(self, qid, xmark_index):
        query = QUERIES[qid]
        tree = xmark_index.tree
        expected = evaluate_reference(tree, parse_xpath(query))
        asta = compile_xpath(query)
        for name, switches in SERIES.items():
            accepted, selected = run_asta(
                asta, xmark_index, stats=EvalStats(), **switches
            )
            assert selected == expected, f"{name} disagrees on {qid}"
            assert accepted == bool(expected) or qid == "Q10"
        assert stepwise_evaluate(query, xmark_index, EvalStats()) == expected
        assert Engine(xmark_index, "hybrid").select(query) == expected

    def test_acceptance_flag_consistent_across_engines(self, xmark_index):
        for qid, query in QUERIES.items():
            asta = compile_xpath(query)
            flags = {
                name: run_asta(asta, xmark_index, stats=EvalStats(), **switches)[0]
                for name, switches in SERIES.items()
            }
            assert len(set(flags.values())) == 1, f"{qid}: {flags}"


class TestJumpingNeverVisitsMore:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_visit_counts_ordered(self, qid, xmark_index):
        asta = compile_xpath(QUERIES[qid])
        counts = {}
        for name, switches in SERIES.items():
            stats = EvalStats()
            run_asta(asta, xmark_index, stats=stats, **switches)
            counts[name] = stats.visited
        assert counts["jumping"] <= counts["naive"]
        assert counts["optimized"] <= counts["memo"]
        # memoization does not change the traversal
        assert counts["memo"] == counts["naive"]


class TestRandomDocumentsRandomQueries:
    @given(binary_trees(max_depth=4, max_children=4), xpath_queries())
    @settings(max_examples=120, deadline=None)
    def test_engines_match_reference(self, tree, query):
        path = parse_xpath(query)
        expected = evaluate_reference(tree, path)
        index = TreeIndex(tree)
        asta = compile_xpath(path)
        for name, switches in SERIES.items():
            _, selected = run_asta(asta, index, stats=EvalStats(), **switches)
            assert selected == expected, (
                f"{name} disagrees on {query}: {selected} != {expected}"
            )
        assert stepwise_evaluate(path, index, EvalStats()) == expected
        assert Engine(index, "hybrid").select(path) == expected

    @given(binary_trees(max_depth=3, max_children=3), xpath_queries(pred_depth=2))
    @settings(max_examples=80, deadline=None)
    def test_deep_predicates_match(self, tree, query):
        path = parse_xpath(query)
        expected = evaluate_reference(tree, path)
        index = TreeIndex(tree)
        asta = compile_xpath(path)
        _, selected = run_asta(asta, index, stats=EvalStats())
        assert selected == expected


class TestDeepAndWideDocuments:
    def test_wide_sibling_chain_no_recursion_limit(self):
        from repro.tree.binary import BinaryTree

        tree = BinaryTree.from_xml("<r>" + "<a><b/></a>" * 20_000 + "</r>")
        index = TreeIndex(tree)
        asta = compile_xpath("//a/b")
        for name, switches in SERIES.items():
            _, selected = run_asta(asta, index, stats=EvalStats(), **switches)
            assert len(selected) == 20_000, name

    def test_deep_nesting_no_recursion_limit(self):
        from repro.tree.binary import BinaryTree

        depth = 5_000
        xml = "<a>" * depth + "</a>" * depth
        tree = BinaryTree.from_xml(xml)
        index = TreeIndex(tree)
        asta = compile_xpath("//a[a]")
        _, selected = run_asta(asta, index, stats=EvalStats())
        assert len(selected) == depth - 1


class TestXPathMarkASeries:
    """The XPathMark A-queries (the family Q01-Q09 come from)."""

    @pytest.mark.parametrize("aid", sorted(__import__(
        "repro.xmark.queries", fromlist=["XPATHMARK_A"]).XPATHMARK_A))
    def test_engines_agree(self, aid, xmark_index):
        from repro.xmark.queries import XPATHMARK_A

        query = XPATHMARK_A[aid]
        expected = evaluate_reference(xmark_index.tree, parse_xpath(query))
        asta = compile_xpath(query)
        for name, switches in SERIES.items():
            _, selected = run_asta(asta, xmark_index, stats=EvalStats(), **switches)
            assert selected == expected, (aid, name)
        assert stepwise_evaluate(query, xmark_index, EvalStats()) == expected
        assert Engine(xmark_index, "hybrid").select(query) == expected

    def test_a_queries_nonempty(self, xmark_index):
        from repro.xmark.queries import XPATHMARK_A

        empty = []
        for aid, q in XPATHMARK_A.items():
            _, sel = run_asta(compile_xpath(q), xmark_index, stats=EvalStats())
            if not sel:
                empty.append(aid)
        assert empty == []


# ---------------------------------------------------------------------------
# Registry conformance: every registered strategy vs the naive oracle.
# ---------------------------------------------------------------------------

ALL_STRATEGIES = registry.strategy_names()


def assert_strategy_matches_oracle(engine: Engine, strategy: str, query: str):
    """The shared conformance check: ``strategy`` == naive == reference.

    Exercised through the public API, so fallback-chain resolution is
    part of what's being conformance-tested.
    """
    expected = evaluate_reference(engine.tree, parse_xpath(query))
    oracle = list(engine.prepare(query, strategy="naive").execute().ids)
    result = engine.prepare(query, strategy=strategy).execute()
    assert oracle == expected, f"naive oracle disagrees with reference on {query}"
    assert list(result.ids) == expected, (
        f"{strategy} disagrees on {query}: {list(result.ids)} != {expected}"
    )
    if expected:
        # Nonempty selection must be accepted; an empty selection may
        # still be accepted (the Q10 quirk: acceptance is existential).
        assert result.accepted, f"{strategy} rejected {query} with results"


class TestRegistryConformance:
    """Every registered strategy, through Engine.prepare, on the corpus."""

    @pytest.fixture(scope="class")
    def corpus_engine(self, xmark_index):
        return Engine(xmark_index)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_paper_corpus(self, corpus_engine, strategy, qid):
        assert_strategy_matches_oracle(corpus_engine, strategy, QUERIES[qid])

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_backward_axes_resolve_and_agree(self, corpus_engine, strategy):
        for query in ("//bidder/parent::open_auction", "//emph/ancestor::listitem"):
            assert_strategy_matches_oracle(corpus_engine, strategy, query)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @given(tree=binary_trees(max_depth=3, max_children=3), query=xpath_queries())
    @settings(max_examples=25, deadline=None)
    def test_random_documents(self, strategy, tree, query):
        assert_strategy_matches_oracle(Engine(tree), strategy, query)
