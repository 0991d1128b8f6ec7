"""The window-join strategy (repro.engine.window): XPath accelerator.

Pins the pre/post encoding identity, each axis join against the
reference evaluator, native backward axes, predicate window counts, the
optional ``post`` store column (round trip + legacy bundles), thread /
pooled execution identity, planner integration, and the dense columns
the joins gather from (rank-column LRU bound, child CSR).
"""

import json
import os

import numpy as np
import pytest

from repro.counters import EvalStats
from repro.engine import joins, window
from repro.engine.api import Engine
from repro.engine.parallel import QueryService
from repro.engine.registry import get_strategy, resolve
from repro.engine.window import is_window_evaluable
from repro.engine.workspace import Workspace
from repro.index import jumping
from repro.index.jumping import TreeIndex, postorder_from_xml_end, rank_column
from repro.store import open_document, save_document
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

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
    def test_postorder_matches_recursive_definition(self, index):
        tree = index.tree
        post = np.empty(tree.n, dtype=np.int64)
        clock = 0

        def visit(v):
            nonlocal clock
            child = tree.left[v]
            while child != -1:
                visit(child)
                child = tree.right[child]
            post[v] = clock
            clock += 1

        visit(0)
        derived = postorder_from_xml_end(index.xml_end_array())
        assert derived.tolist() == post.tolist()

    def test_ancestor_iff_window_dominates(self, index):
        """The defining property: u is a proper ancestor of v iff
        pre(u) < pre(v) and post(u) > post(v)."""
        tree = index.tree
        post = index.post_array()

        def is_ancestor(u, v):
            while tree.parent[v] != -1:
                v = tree.parent[v]
                if v == u:
                    return True
            return False

        for u in range(tree.n):
            for v in range(tree.n):
                window_says = u < v and post[u] > post[v]
                assert window_says == is_ancestor(u, v), (u, v)


class TestOracleIdentity:
    @pytest.mark.parametrize("query", FORWARD_QUERIES + BACKWARD_QUERIES)
    def test_matches_reference(self, index, query):
        path = parse_xpath(query)
        expected = evaluate_reference(index.tree, path)
        accepted, got = window.evaluate(path, index)
        assert got == expected
        assert accepted == bool(expected)

    def test_matches_reference_on_encoded_doc(self):
        tree = BinaryTree.from_document(
            parse_xml('<r a="1"><x b="2">text</x><y>more</y></r>'),
            encode_attributes=True,
            encode_text=True,
        )
        index = TreeIndex(tree)
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
            path = parse_xpath(query)
            _, got = window.evaluate(path, index)
            assert got == evaluate_reference(tree, path), query

    def test_degenerate_single_node_document(self):
        index = TreeIndex(BinaryTree.from_spec("r"))
        assert window.evaluate(parse_xpath("/r"), index) == (True, [0])
        assert window.evaluate(parse_xpath("/x"), index) == (False, [])
        assert window.evaluate(parse_xpath("//r[x]"), index) == (False, [])
        assert window.evaluate(parse_xpath("//r/ancestor::r"), index) == (
            False,
            [],
        )

    def test_fig4_mix_on_xmark(self, xmark_index):
        from repro.xmark.queries import QUERIES as FIG4

        naive = Engine(xmark_index, strategy="naive")
        for qid, query in FIG4.items():
            expected = list(naive.prepare(query).execute().ids)
            _, got = window.evaluate(parse_xpath(query), xmark_index)
            assert got == expected, qid

    def test_results_sorted_and_unique(self, index):
        _, ids = window.evaluate(parse_xpath("//a//b"), index)
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

    def test_evaluate_rejects_relative_queries(self, index):
        with pytest.raises(ValueError, match="window-join fragment"):
            window.evaluate(parse_xpath("a/b"), index)

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
        assert backward.select() == evaluate_reference(
            index.tree, parse_xpath("//b/ancestor::a")
        )

    def test_explain_describes_native_backward_plan(self, index):
        engine = Engine(index, strategy="window")
        text = engine.prepare("//b/ancestor::a").explain()
        assert "reverse window containment" in text
        assert "mixed pipeline" not in text


class TestStoreColumn:
    def test_round_trip_persists_post(self, tmp_path):
        bundle = str(tmp_path / "doc")
        save_document(XML, bundle)
        header = json.load(open(os.path.join(bundle, "header.json")))
        assert "post" in header["arrays"]
        fresh = TreeIndex(BinaryTree.from_document(parse_xml(XML)))
        expected = fresh.post_array().tolist()
        stored = open_document(bundle)
        try:
            # The column arrives pre-seeded from the mapped file.
            assert stored.index._post_arr.tolist() == expected
            assert stored.index.post_array().tolist() == expected
            _, got = window.evaluate(
                parse_xpath("//b/ancestor::a"), stored.index
            )
            assert got == evaluate_reference(
                fresh.tree, parse_xpath("//b/ancestor::a")
            )
        finally:
            stored.close()

    def test_legacy_bundle_without_post_still_opens(self, tmp_path):
        """A bundle written before the column existed (same format v2,
        no ``post`` in the manifest) opens fine; the index re-derives
        the column on demand."""
        bundle = str(tmp_path / "doc")
        save_document(XML, bundle)
        os.remove(os.path.join(bundle, "post.npy"))
        header_path = os.path.join(bundle, "header.json")
        header = json.load(open(header_path))
        meta = header["arrays"].pop("post")
        assert meta["dtype"] == "int64"
        with open(header_path, "w") as handle:
            json.dump(header, handle)
        fresh = TreeIndex(BinaryTree.from_document(parse_xml(XML)))
        stored = open_document(bundle)
        try:
            assert getattr(stored.index, "_post_arr", None) is None
            assert (
                stored.index.post_array().tolist()
                == fresh.post_array().tolist()
            )
            for query in ("//a//b", "//b/ancestor::a"):
                _, got = window.evaluate(parse_xpath(query), stored.index)
                assert got == evaluate_reference(
                    fresh.tree, parse_xpath(query)
                )
        finally:
            stored.close()

    def test_deep_verify_covers_post(self, tmp_path):
        from repro.store.format import verify_bundle

        bundle = str(tmp_path / "doc")
        save_document(XML, bundle)
        report = verify_bundle(bundle, deep=True)
        assert "post" in report["arrays"]
        assert "crc32" in report["arrays"]["post"]


class TestParallelIdentity:
    QUERIES = [
        "//a//b",
        "//c/following-sibling::b",
        "//b/ancestor::a",
        "//a[.//b and c]",
        "//listitem[.//keyword and .//emph]",
    ]

    @pytest.mark.parametrize("executor", ["thread", "pool"])
    def test_parallel_matches_reference(self, executor):
        ws = Workspace(strategy="window")
        ws.add("doc", XML)
        tree = ws.engine("doc").tree
        try:
            with QueryService(ws, jobs=2, executor=executor) as service:
                for query in self.QUERIES:
                    got = list(service.execute(query, "doc").ids)
                    assert got == evaluate_reference(
                        tree, parse_xpath(query)
                    ), query
        finally:
            ws.close()

    def test_parallel_store_reopened(self, tmp_path):
        bundle = str(tmp_path / "doc")
        save_document(XML, bundle)
        ws = Workspace(strategy="window")
        stored = open_document(bundle)
        ws.add_stored("doc", stored)
        tree = stored.index.tree
        try:
            with QueryService(ws, jobs=2) as service:
                for query in self.QUERIES:
                    got = list(service.execute(query, "doc").ids)
                    assert got == evaluate_reference(
                        tree, parse_xpath(query)
                    ), query
        finally:
            ws.close()


class TestPlannerIntegration:
    def test_auto_runs_backward_paths_on_window(self, index):
        engine = Engine(index, strategy="auto")
        plan = engine.prepare("//b/ancestor::a")
        assert plan.strategy.name == "auto"
        assert plan.strategy.executes_as == "window"
        assert plan.select() == evaluate_reference(
            index.tree, parse_xpath("//b/ancestor::a")
        )
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
        assert order.dtype == np.int64 and start.size == tree.n + 1
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
        expected = evaluate_reference(index.tree, parse_xpath(query))
        for _ in range(3):
            assert window.evaluate(parse_xpath(query), index)[1] == expected
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
        assert window.evaluate(path, clone) == window.evaluate(path, index)


class TestCounters:
    def test_child_join_books_what_it_gathers(self, index):
        stats = EvalStats()
        # Through //site: a rooted /site/a is answered without a join.
        window.evaluate(parse_xpath("//site/a"), index, stats)
        # The root has more children than there are 'a' nodes, so the
        # join runs from the candidates: the root read once per step (it
        # is selected, then marked), each 'a' probed in the bitmap.
        assert stats.visited == 1 + 1
        assert stats.index_probes == index.labels.count("a")
        assert stats.selected == 1
        assert stats.jumps >= 1

    def test_probes_count_batched_searches(self, index):
        stats = EvalStats()
        window.evaluate(parse_xpath("//b/ancestor::a"), index, stats)
        assert stats.index_probes > 0

    def test_predicate_candidates_are_counted(self, index):
        plain, with_pred = EvalStats(), EvalStats()
        window.evaluate(parse_xpath("//a"), index, plain)
        window.evaluate(parse_xpath("//a[.//b]"), index, with_pred)
        assert with_pred.visited > plain.visited
