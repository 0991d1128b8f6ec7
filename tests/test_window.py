"""The window-join strategy (repro.engine.window): XPath accelerator.

Pins the subtree-window identity the joins read, each axis join against
the sqlite oracle (fresh and on a reopened bundle), native
backward axes, predicate window counts, thread / pooled execution
identity, planner integration, and the dense columns the joins gather
from (rank-column LRU bound, child CSR).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.counters import EvalStats
from repro.engine import frontier, joins
from repro.engine.api import Engine
from repro.engine.parallel import QueryService
from repro.engine.registry import get_strategy, resolve
from repro.engine.window import is_window_evaluable
from repro.engine.workspace import Workspace
from repro.index import jumping
from repro.index.jumping import TreeIndex, rank_column
from repro.store import open_document, save_document
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xpath.parser import parse_xpath

import oracle_sqlite
from strategies import kernel_as, run_as, spec_xml, tree_specs

XML = (
    "<site>"
    "<a><x/><b/><c><b/><d/></c></a>"
    "<b><a><b/></a></b>"
    "<keyword/>"
    "<listitem><text><keyword><emph/></keyword></text></listitem>"
    "</site>"
)

FORWARD_QUERIES = [
    "/site",
    "/site/a/b",
    "//b",
    "//a//b",
    "//*",
    "//node()",
    "/site/*/b",
    "//a[b]",
    "//a[.//b and c]",
    "//a[not(b)]",
    "//b[not(.//a) or x]",
    "//c/following-sibling::b",
    "/site/a/b/following-sibling::node()",
    "//listitem[.//keyword and .//emph]",
    "//a[/site/keyword]",
    "//missing",
    "//a[missing]",
    "//keyword[.]",
]

BACKWARD_QUERIES = [
    "//b/parent::a",
    "//b/parent::node()",
    "//b/ancestor::a",
    "//emph/ancestor::node()",
    "//b/ancestor::a/c",
    "//d/parent::c/b",
    "//b[parent::a]",
    "//b[ancestor::site]",
    "//a[b/parent::a]",
    "//c[d]/b/ancestor::a",
    "//keyword[not(ancestor::text)]",
    "//b[following-sibling::c]",
]


@pytest.fixture(scope="module")
def index():
    return TreeIndex(BinaryTree.from_document(parse_xml(XML)))


class TestEncoding:
    @given(tree_specs(max_depth=5, max_children=4))
    @settings(max_examples=60)
    def test_ancestor_iff_inside_subtree_window(self, spec):
        """What every join reads: ``u`` is a proper ancestor of ``v`` iff
        ``u < v < xml_end[u]``.  Ancestry comes from the spec itself,
        numbered in preorder, not from any derived column."""
        ancestors = []

        def visit(node, above):
            ancestors.append(set(above))
            if isinstance(node, tuple):
                here = len(ancestors) - 1
                for child in node[1:]:
                    visit(child, above + [here])

        visit(spec, [])
        xml_end = TreeIndex(BinaryTree.from_xml(spec_xml(spec))).xml_end_array()
        assert xml_end.size == len(ancestors)
        for v, above in enumerate(ancestors):
            for u in range(len(ancestors)):
                assert (u < v < xml_end[u]) == (u in above), (u, v)


class TestOracleIdentity:
    @pytest.mark.parametrize("query", FORWARD_QUERIES + BACKWARD_QUERIES)
    def test_matches_the_oracle(self, index, query):
        path = parse_xpath(query)
        expected = oracle_sqlite.select(XML, query)
        accepted, got = run_as("window", path, index)
        assert got == expected
        assert accepted == bool(expected)

    def test_matches_the_oracle_on_encoded_doc(self):
        xml = '<r a="1"><x b="2">text</x><y>more</y></r>'
        encode = dict(encode_attributes=True, encode_text=True)
        index = TreeIndex(BinaryTree.from_document(parse_xml(xml), **encode))
        for query in (
            "//x[@b]",
            "/r[@a]/x",
            "//@b",
            "//x/text()",
            "//*",
            "//node()",
            "/r/*[text()]",
            "//@b/parent::x",
            "//x[@b]/ancestor::r",
        ):
            _, got = run_as("window", parse_xpath(query), index)
            assert got == oracle_sqlite.select(xml, query, **encode), query

    def test_matches_the_oracle_on_reopened_bundle(self, tmp_path):
        bundle = str(tmp_path / "doc")
        save_document(XML, bundle)
        with open_document(bundle) as stored:
            for query in FORWARD_QUERIES + BACKWARD_QUERIES:
                _, got = run_as("window", parse_xpath(query), stored.index)
                assert got == oracle_sqlite.select(XML, query), query

    def test_degenerate_single_node_document(self):
        index = TreeIndex(BinaryTree.from_spec("r"))
        assert run_as("window", "/r", index) == (True, [0])
        assert run_as("window", "/x", index) == (False, [])
        assert run_as("window", "//r[x]", index) == (False, [])
        assert run_as("window", "//r/ancestor::r", index) == (False, [])

    def test_fig4_mix_on_xmark(self, xmark_xml, xmark_index):
        from repro.xmark.queries import QUERIES as FIG4

        for qid, query in FIG4.items():
            expected = oracle_sqlite.select(xmark_xml, query)
            _, got = run_as("window", query, xmark_index)
            assert got == expected, qid

    def test_results_sorted_and_unique(self, index):
        _, ids = run_as("window", "//a//b", index)
        assert ids == sorted(set(ids))
        assert all(isinstance(v, int) for v in ids)


class TestFragment:
    def test_supports_every_absolute_path(self):
        strategy = get_strategy("window")
        assert strategy.supports(parse_xpath("//a//b[c]"))
        assert strategy.supports(parse_xpath("/a/following-sibling::b"))
        # Backward axes are native here -- the vectorized fragment's gap.
        assert strategy.supports(parse_xpath("//a/parent::b"))
        assert strategy.supports(parse_xpath("//b/ancestor::a"))
        assert not strategy.supports(parse_xpath("a/b"))  # relative

    def test_relative_path_resolves_to_optimized(self):
        assert resolve("window", parse_xpath("a/b")).name == "optimized"

    def test_backward_absolute_stays_window(self):
        assert resolve("window", parse_xpath("//a/parent::b")).name == "window"

    def test_is_window_evaluable(self):
        assert is_window_evaluable(parse_xpath("//a"))
        assert not is_window_evaluable(parse_xpath("a"))

    def test_engine_integration(self, index):
        engine = Engine(index, strategy="window")
        assert engine.select("//a//b") == [3, 5, 9]
        plan = engine.prepare("//a//b")
        assert plan.strategy.name == "window"
        # Backward axes do NOT fall back to the mixed pipeline.
        backward = engine.prepare("//b/ancestor::a")
        assert backward.strategy.name == "window"
        assert backward.select() == oracle_sqlite.select(XML, "//b/ancestor::a")

    def test_explain_describes_native_backward_plan(self, index):
        engine = Engine(index, strategy="window")
        text = engine.prepare("//b/ancestor::a").explain()
        assert "reverse window containment" in text
        assert "mixed pipeline" not in text


class TestParallelIdentity:
    QUERIES = [
        "//a//b",
        "//c/following-sibling::b",
        "//b/ancestor::a",
        "//a[.//b and c]",
        "//listitem[.//keyword and .//emph]",
    ]

    @pytest.mark.parametrize("executor", ["thread", "pool"])
    def test_parallel_matches_the_oracle(self, executor):
        ws = Workspace(strategy="window")
        ws.add("doc", XML)
        try:
            with QueryService(ws, jobs=2, executor=executor) as service:
                for query in self.QUERIES:
                    got = list(service.execute(query, "doc").ids)
                    assert got == oracle_sqlite.select(XML, query), query
        finally:
            ws.close()

    def test_parallel_store_reopened(self, tmp_path):
        bundle = str(tmp_path / "doc")
        save_document(XML, bundle)
        ws = Workspace(strategy="window")
        ws.open_store(str(tmp_path))
        try:
            with QueryService(ws, jobs=2) as service:
                for query in self.QUERIES:
                    got = list(service.execute(query, "doc").ids)
                    assert got == oracle_sqlite.select(XML, query), query
        finally:
            ws.close()


class TestPlannerIntegration:
    def test_auto_runs_backward_paths_on_window(self, index):
        engine = Engine(index, strategy="auto")
        plan = engine.prepare("//b/ancestor::a")
        assert plan.strategy.name == "auto"
        assert plan.strategy.executes_as == "window"
        assert plan.select() == oracle_sqlite.select(XML, "//b/ancestor::a")
        # No mixed split, no planner state: the bound program only.
        assert list(plan.artifacts) == ["kernel"]


class TestDenseColumns:
    """The rank-column LRU and the child CSR (``TreeIndex.rank`` /
    ``child_csr``; the joins read nothing else)."""

    def fresh(self):
        return TreeIndex(BinaryTree.from_document(parse_xml(XML)))

    def test_rank_column_counts_members_below(self, index):
        cand = index.labels.nodes_array("b")
        rank = rank_column(cand, index.tree.n)
        assert rank.dtype == np.int32 and rank.size == index.tree.n + 2
        for p in range(index.tree.n + 2):
            assert rank[p] == sum(1 for c in cand if c < p)

    def test_child_csr_lists_children_in_document_order(self, index):
        order, start = index.child_csr()
        tree = index.tree
        assert order.dtype == np.int32 and start.size == tree.n + 1
        for p in range(tree.n):
            kids = [c for c in range(tree.n) if tree.parent[c] == p]
            assert order[start[p] : start[p + 1]].tolist() == kids
        assert index.child_csr() is index.child_csr()  # built once

    def test_rank_cache_is_bounded_and_counted(self, monkeypatch):
        index = self.fresh()
        index._ranks.maxsize = 2
        labels = ["a", "b", "keyword"]
        for name in labels:
            key = (index.tree.label_ids[name],)
            index.rank(key, index.labels.nodes_array(name))
        info = index._ranks.cache_info()
        assert (info["size"], info["evictions"], info["misses"]) == (2, 1, 3)
        key = (index.tree.label_ids["keyword"],)
        index.rank(key, index.labels.nodes_array("keyword"))  # resident
        assert index._ranks.cache_info()["hits"] == 1
        assert jumping.RANK_CACHE_SIZE == 8  # a constant, < 5% of RSS at 212k

    def test_evicted_column_rebuilds_to_identical_answers(self, monkeypatch):
        # Every whole-label-set probe ranked, one cache slot: each of the
        # two predicates evicts the other's column, every time.
        monkeypatch.setattr(joins, "RANK_FACTOR", 10**9)
        index = self.fresh()
        index._ranks.maxsize = 1
        query = "//a[.//b and .//d]"
        expected = oracle_sqlite.select(XML, query)
        for _ in range(3):
            assert kernel_as("window", parse_xpath(query), index)[1] == expected
        info = index._ranks.cache_info()
        assert info["size"] == 1 and info["evictions"] >= 4

    def test_repeated_execution_hits_the_rank_cache(self, monkeypatch):
        monkeypatch.setattr(joins, "RANK_FACTOR", 10**9)
        index = self.fresh()
        plan = Engine(index, strategy="window").prepare("//a[.//b]")
        plan.execute()
        misses = index._ranks.cache_info()["misses"]
        assert misses >= 1
        plan.execute()
        info = index._ranks.cache_info()
        assert info["misses"] == misses and info["hits"] >= 1  # no rebuild

    def test_index_with_columns_survives_pickling(self, index):
        import pickle

        index.child_csr()
        key = (index.tree.label_ids["b"],)
        index.rank(key, index.labels.nodes_array("b"))
        clone = pickle.loads(pickle.dumps(index))
        clone.rank(key, clone.labels.nodes_array("b"))  # the lock works
        path = parse_xpath("//b/ancestor::a")
        assert run_as("window", path, clone) == run_as("window", path, index)


class TestCounters:
    """Counters of one kernel run on a fresh index, which no earlier
    run has given its path summary."""

    @pytest.fixture()
    def index(self):
        return TreeIndex(BinaryTree.from_document(parse_xml(XML)))

    def test_child_join_books_what_it_gathers(self, index):
        stats = EvalStats()
        # Through //site: a rooted /site/a is answered without a join.
        frontier.run_kernel(parse_xpath("//site/a"), index, stats)
        # The root has more children than there are 'a' nodes, so the
        # join runs from the candidates: the root read once per step (it
        # is selected, then marked), each 'a' probed in the bitmap.
        assert stats.visited == 1 + 1
        assert stats.index_probes == index.labels.count("a")
        assert stats.selected == 1
        assert stats.jumps >= 1

    def test_probes_count_batched_searches(self, index):
        stats = EvalStats()
        frontier.run_kernel(parse_xpath("//b/ancestor::a"), index, stats)
        assert stats.index_probes > 0

    def test_predicate_candidates_are_counted(self, index):
        plain, with_pred = EvalStats(), EvalStats()
        frontier.run_kernel(parse_xpath("//a"), index, plain)
        frontier.run_kernel(parse_xpath("//a[.//b]"), index, with_pred)
        assert with_pred.visited > plain.visited
