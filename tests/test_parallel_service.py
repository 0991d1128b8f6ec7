"""Parallel QueryService: determinism, thread safety, merging, errors.

The load-bearing property is *byte-identical results*: for every shard
count, worker count, executor flavour, and document shape (including the
degenerate bare-root and single-child documents), the parallel service
must return exactly what the serial :class:`Workspace` paths return.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Workspace
from repro.counters import EvalStats
from repro.engine.api import PLAN_CACHE_SIZE
from repro.engine.parallel import (
    QueryService,
    Shard,
    plan_shard_query,
    shard_document,
)
from repro.engine.plan import CompiledQueryCache, ExecutionResult
from repro.engine.pool import PATH_CACHE_SIZE
from repro.engine.registry import StrategyBase, register_strategy, unregister_strategy
from repro.index.jumping import TreeIndex
from repro.lru import LRUCache
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator
from strategies import fuzz_corpus, random_core_query, random_document

FIG4_SUBSET = [
    "/site/regions",
    "/site/regions/*/item",
    "//listitem//keyword",
    "/site/people/person[ address and (phone or homepage) ]",
    "//listitem[ .//keyword and .//emph]//parlist",
    "/site[ .//keyword]",
    "/site[ .//keyword ]//keyword",
    "/site[ .//*//* ]//keyword",
]

DEGENERATE_DOCS = {
    "bare": "<r/>",
    "one-child": "<r><a/></r>",
    "chain": "<r><a><a><a><b/></a></a></a></r>",
    "flat": "<r>" + "<a/>" * 7 + "<b/></r>",
}

DEGENERATE_QUERIES = [
    "/r",
    "//r",
    "//a",
    "/r/a",
    "//*",
    "/r[a]",
    "/r[not(a)]",
    "/r[not(c)]//b",
    "//a[not(a)]",
    "/node()",
]


@pytest.fixture(scope="module")
def xmark_workspace():
    ws = Workspace()
    ws.add("xm", XMarkGenerator(scale=0.1, seed=42).tree())
    yield ws
    ws.close()


# -- sharding ----------------------------------------------------------------


class TestSharding:
    def test_shards_cover_document_in_order(self, xmark_workspace):
        index = xmark_workspace.engine("xm").index
        shards = shard_document(index)
        assert shards, "XMark root has top-level children"
        expect_lo = 1
        for ordinal, shard in enumerate(shards):
            assert shard.ordinal == ordinal
            assert shard.lo == expect_lo
            assert shard.offset == shard.lo - 1
            assert len(shard) == shard.hi - shard.lo + 1
            expect_lo = shard.hi
        assert shards[-1].hi == index.tree.n

    def test_grouping_respects_target(self, xmark_workspace):
        index = xmark_workspace.engine("xm").index
        n_children = len(list(index.tree.children(0)))
        for parts in (1, 2, 3, n_children, n_children + 5):
            shards = shard_document(index, parts=parts)
            assert 1 <= len(shards) <= min(parts, n_children)
            assert shards[-1].hi == index.tree.n

    def test_shard_label_index_matches_fresh_build(self, xmark_workspace):
        from repro.index.labels import LabelIndex

        index = xmark_workspace.engine("xm").index
        shard = shard_document(index, parts=3)[1]
        fresh = LabelIndex(shard.index.tree)
        for lab in range(len(index.tree.labels)):
            assert fresh._lists[lab] == shard.index.labels._lists[lab]

    def test_shard_succinct_bp_slice(self, xmark_workspace):
        index = xmark_workspace.engine("xm").index
        shard = shard_document(index, parts=4)[0]
        succ = shard.succinct()
        assert len(succ) == len(shard)
        assert succ.label(0) == "site"
        # Same navigation answers as the pointer slice.
        tree = shard.index.tree
        for v in range(min(len(shard), 50)):
            assert succ.first_child(v) == tree.first_child(v)
            assert succ.next_sibling(v) == tree.next_sibling(v)
        assert shard.succinct() is succ  # built once

    def test_no_shards_for_bare_root(self):
        index = TreeIndex(BinaryTree.from_xml("<r/>"))
        assert shard_document(index) == []

    def test_bad_slice_ranges_rejected(self, xmark_workspace):
        index = xmark_workspace.engine("xm").index
        with pytest.raises(ValueError, match="invalid shard range"):
            index.shard_slice(0, 5)
        with pytest.raises(ValueError, match="top-level"):
            index.shard_slice(2, 3)  # not a child of the root
        with pytest.raises(ValueError, match="parts"):
            shard_document(index, parts=0)


# -- the query rewrite -------------------------------------------------------


class TestShardQueryPlan:
    @pytest.mark.parametrize(
        "query,reason",
        [
            ("//a/following-sibling::b", "following-sibling"),
            ("//a[b/following-sibling::c]", "following-sibling"),
            ("//a/parent::b", "backward"),
            ("//a/..", "backward"),
            ("//a[ancestor::b]", "backward"),
            ("//a[//b]", "absolute path inside a predicate"),
            ("a/b", "relative"),
        ],
    )
    def test_unshardable_queries_are_detected(self, query, reason):
        plan = plan_shard_query(query)
        assert not plan.shardable
        assert reason in plan.reason

    def test_shardable_plan_shapes(self):
        plan = plan_shard_query("//a[b]//c")
        assert plan.shardable
        assert str(plan.root_probe) == "/child::a[child::b]"
        assert not plan.include_root_if_gate
        assert len(plan.paths_always) == 1  # non-root descendant matches
        assert len(plan.paths_gated) == 1  # chains starting at the root
        assert plan.shard_paths(root_gate=False) == plan.paths_always

        single = plan_shard_query("/r")
        assert single.include_root_if_gate
        assert single.shard_paths(root_gate=True) == ()


# -- determinism: parallel == serial ----------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 3, 6])
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_xmark_batch_identical_across_shards_and_jobs(
        self, xmark_workspace, shards, jobs
    ):
        serial = xmark_workspace.select_many(FIG4_SUBSET, document="xm")
        with QueryService(
            xmark_workspace, jobs=jobs, shards=shards
        ) as service:
            assert service.select_many(FIG4_SUBSET, document="xm") == serial

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzzed_documents_and_queries_identical(self, seed):
        rng = random.Random(seed)
        ws = Workspace()
        for i in range(3):
            ws.add(f"d{i}", random_document(rng, max_depth=5, max_children=4))
        queries = [
            random_core_query(rng, following=True, backward=(seed == 2))
            for _ in range(25)
        ]
        serial = ws.select_many(queries)
        for shards, jobs in [(1, 2), (2, 2), (4, 3), (None, 2)]:
            with QueryService(ws, jobs=jobs, shards=shards) as service:
                assert serial == service.select_many(queries), (shards, jobs)
        ws.close()

    @pytest.mark.parametrize("doc", sorted(DEGENERATE_DOCS))
    def test_degenerate_documents(self, doc):
        ws = Workspace()
        ws.add("d", DEGENERATE_DOCS[doc])
        serial = ws.select_many(DEGENERATE_QUERIES, document="d")
        for shards in (1, 2, 5):
            with QueryService(ws, jobs=2, shards=shards) as service:
                got = service.select_many(DEGENERATE_QUERIES, document="d")
                assert got == serial, (doc, shards)
        ws.close()

    def test_select_all_and_count_all_match_serial(self, xmark_workspace):
        with QueryService(xmark_workspace, jobs=2) as service:
            assert service.select_all("//keyword") == (
                xmark_workspace.select_all("//keyword")
            )
            assert service.count_all("//keyword") == (
                xmark_workspace.count_all("//keyword")
            )

    def test_execute_merges_to_serial_result(self, xmark_workspace):
        serial = xmark_workspace.execute("//listitem//keyword", "xm")
        with QueryService(xmark_workspace, jobs=2, shards=4) as service:
            merged = service.execute("//listitem//keyword", "xm")
        assert merged.ids == serial.ids
        assert merged.accepted == serial.accepted
        assert merged.stats.selected == serial.stats.selected

    def test_worker_pool_spawn_payload_is_picklable(self):
        """Under the spawn start method the pool's static payload of an
        in-memory document (trees, label arrays, fused caches) travels
        by pickle -- prove it."""
        import multiprocessing

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("no spawn start method on this platform")
        ws = Workspace()
        ws.add("xm", XMarkGenerator(scale=0.02, seed=5).tree())
        queries = ["//keyword", "/site/regions", "/site[.//keyword]//keyword"]
        serial = ws.select_many(queries, document="xm")
        with QueryService(
            ws, jobs=2, shards=2, executor="pool", mp_start_method="spawn"
        ) as service:
            assert service.select_many(queries, document="xm") == serial
        ws.close()

    def test_worker_pool_identical(self, xmark_workspace):
        """The persistent pool executor obeys the same identity contract
        (its own behaviours -- warmth, stealing, chaos -- live in
        test_pool.py)."""
        serial = xmark_workspace.select_many(FIG4_SUBSET, document="xm")
        with QueryService(
            xmark_workspace, jobs=2, shards=3, executor="pool"
        ) as service:
            assert service.select_many(FIG4_SUBSET, document="xm") == serial

    def test_workspace_jobs_fast_path(self, xmark_workspace):
        serial = xmark_workspace.select_many(FIG4_SUBSET, document="xm")
        assert (
            xmark_workspace.select_many(FIG4_SUBSET, document="xm", jobs=2)
            == serial
        )
        assert xmark_workspace.select_all("//keyword", jobs=2) == (
            xmark_workspace.select_all("//keyword")
        )

    def test_encoded_documents_identical(self):
        rng = random.Random(7)
        ws = Workspace(encode_attributes=True, encode_text=True)
        for i in range(2):
            ws.add(
                f"d{i}",
                random_document(rng, attributes=True, text=True, max_depth=5),
            )
        queries = [
            random_core_query(rng, attributes=True, text=True)
            for _ in range(20)
        ] + ["//*", "//*/@id", "//node()", "//text()"]
        serial = ws.select_many(queries)
        with QueryService(ws, jobs=2, shards=3) as service:
            assert service.select_many(queries) == serial
        ws.close()


# -- thread safety -----------------------------------------------------------


class TestThreadSafety:
    def test_compiled_cache_single_compilation_under_contention(
        self, monkeypatch
    ):
        """Two threads compiling one key must not duplicate work."""
        from repro.engine import plan as plan_module

        cache = CompiledQueryCache()
        in_compile = threading.Semaphore(0)
        concurrent = []
        real_compile = plan_module.compile_xpath

        def slow_compile(source, wildcard_labels=None):
            concurrent.append(threading.get_ident())
            in_compile.release()
            # Give every other thread a chance to pile onto the key.
            threading.Event().wait(0.02)
            return real_compile(source, wildcard_labels=wildcard_labels)

        monkeypatch.setattr(plan_module, "compile_xpath", slow_compile)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = []

        def worker():
            barrier.wait()
            results.append(cache.get("//a//b[c]"))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.compilations == 1
        assert cache.hits == n_threads - 1
        assert len(cache) == 1
        assert len(set(id(a) for a in results)) == 1  # one shared automaton
        assert len(concurrent) == 1  # the compiler ran exactly once

    def test_engine_plan_cache_safe_under_concurrent_prepare(self):
        ws = Workspace()
        ws.add("d", "<r>" + "<a><b/></a>" * 5 + "</r>")
        engine = ws.engine("d")
        queries = ["//a", "//b", "//a/b", "/r/a", "//a[b]", "/r[a]//b"]
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        plans = [[] for _ in range(n_threads)]

        def worker(slot):
            barrier.wait()
            for q in queries:
                plans[slot].append(engine.prepare(q))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for slot in range(1, n_threads):
            assert plans[slot] == plans[0]  # identical plan objects

    def test_same_plan_executions_are_serialized(self):
        """Two batch queries can rewrite to one shard path and land on
        one PreparedQuery; its warmed tables mutate during a run, so
        plan.execute() must never interleave on one plan."""
        import time

        running = []
        overlaps = []

        @register_strategy
        class SlowStrategy(StrategyBase):
            """Records overlapping executions of the same plan."""

            name = "slow-test"
            fallback = "optimized"
            needs_asta = True

            def execute(self, plan, index, stats):
                if running:
                    overlaps.append(plan.query)
                running.append(plan.query)
                time.sleep(0.005)
                running.pop()
                from repro.engine.optimized import evaluate

                return evaluate(plan.asta, index, stats)

        try:
            ws = Workspace(strategy="slow-test")
            ws.add("d", "<r>" + "<a><b/></a>" * 4 + "</r>")
            plan = ws.engine("d").prepare("//a/b")
            n_threads = 6
            barrier = threading.Barrier(n_threads)
            results = []

            def worker():
                barrier.wait()
                results.append(list(plan.execute().ids))

            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert overlaps == []  # never two executions inside one plan
            assert all(ids == results[0] for ids in results)
            ws.close()
        finally:
            unregister_strategy("slow-test")

    def test_coinciding_shard_rewrites_stay_correct(self, xmark_workspace):
        """Q11/Q12/Q15 rewrite to the same per-shard '//keyword' path;
        fanning them out together must still match serial exactly."""
        batch = [
            "/site//keyword",
            "/site[ .//keyword ]//keyword",
            "/site[ .//*//* ]//keyword",
        ]
        serial = xmark_workspace.select_many(batch, document="xm")
        for _ in range(5):
            with QueryService(xmark_workspace, jobs=3, shards=4) as service:
                assert service.select_many(batch, document="xm") == serial

    def test_non_parallel_safe_strategy_runs_serially(self, xmark_workspace):
        calls = []

        @register_strategy
        class StatefulStrategy(StrategyBase):
            """Keeps run state on self: must not be fanned out."""

            name = "stateful-test"
            fallback = "optimized"
            parallel_safe = False

            def supports(self, path):
                return not path.has_backward_axes()

            def execute(self, plan, index, stats):
                calls.append(threading.get_ident())
                from repro.engine.optimized import evaluate

                return evaluate(plan.asta, index, stats)

            @property
            def needs_asta(self):
                return True

        try:
            ws = Workspace(strategy="stateful-test")
            ws.add("xm", XMarkGenerator(scale=0.02, seed=1).tree())
            serial = ws.select_many(["//keyword", "//listitem"], document="xm")
            with QueryService(ws, jobs=3) as service:
                got = service.select_many(
                    ["//keyword", "//listitem"], document="xm"
                )
            assert got == serial
            # Every execution happened on the submitting (main) thread.
            assert set(calls) == {threading.get_ident()}
            ws.close()
        finally:
            unregister_strategy("stateful-test")


# -- result merging and error paths ------------------------------------------


class TestWorkerPathCache:
    def test_lru_evicts_oldest_first_and_counts_it(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # "b" is now the least recently used
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        cache.put("d", 4)  # evicts "a": "c" was read after it
        assert cache.get("a") is None
        assert cache.cache_info() == {
            "size": 2,
            "maxsize": 2,
            "hits": 3,
            "misses": 2,
            "evictions": 2,
        }

    def test_pool_driven_past_the_bound_reports_evictions(self):
        ws = Workspace()
        ws.add("d", "<r><a/><a/></r>")
        queries = [f"//a[not(x{i})]" for i in range(PATH_CACHE_SIZE + 8)]
        serial = ws.select_many(queries, document="d")
        with QueryService(ws, jobs=1, executor="pool") as service:
            assert service.select_many(queries, document="d") == serial
            stats = service.pool_stats()
        assert stats["path_evictions"] == 8
        ws.close()


class TestServicePlanCache:
    def test_a_stream_of_distinct_queries_stays_at_the_bound(self):
        """One ``ShardQueryPlan`` per distinct query string used to stay
        for the life of the service."""
        ws = Workspace()
        ws.add("d", "<r><a><b/></a><a/></r>")
        queries = [f"//a[not(x{i})]" for i in range(PLAN_CACHE_SIZE + 8)]
        with QueryService(ws, jobs=2) as service:
            first = service.select(queries[0], "d")
            for query in queries[1:]:
                assert service.select(query, "d") == first
            assert len(service._plans) == PLAN_CACHE_SIZE
            assert service._plans.maxsize == PLAN_CACHE_SIZE
            assert service._plans.evictions == 8
            assert queries[0] not in service._plans.data
            # An evicted query is planned again and answers the same.
            assert service.select(queries[0], "d") == first == ws.select(queries[0], "d")
        ws.close()


class TestExecutionResultMerge:
    @staticmethod
    def _result(ids, **counters):
        return ExecutionResult(bool(ids), tuple(ids), EvalStats(**counters))

    def test_counters_sum_and_ids_concatenate(self):
        merged = ExecutionResult.merge(
            [
                self._result((0,), visited=2, selected=1, jumps=1),
                self._result((3, 5), visited=7, selected=2, memo_hits=4),
                self._result((), visited=1, index_probes=3),
                self._result((9,), visited=1, selected=1, memo_entries=2),
            ]
        )
        assert merged.ids == (0, 3, 5, 9)
        assert merged.accepted
        assert merged.stats.visited == 11
        assert merged.stats.selected == 4
        assert merged.stats.jumps == 1
        assert merged.stats.memo_hits == 4
        assert merged.stats.memo_entries == 2
        assert merged.stats.index_probes == 3

    def test_empty_merge(self):
        merged = ExecutionResult.merge([])
        assert merged.ids == () and not merged.accepted
        assert merged.stats.snapshot() == EvalStats().snapshot()

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            ExecutionResult.merge(
                [self._result((1, 5)), self._result((4, 9))]
            )


class TestWorkspaceErrorPaths:
    def test_duplicate_add_rejected(self):
        ws = Workspace()
        ws.add("d", "<r/>")
        with pytest.raises(ValueError, match="already registered"):
            ws.add("d", "<r><a/></r>")
        assert ws.documents() == ["d"]  # failed add left no residue

    def test_unknown_document_in_select_many(self):
        ws = Workspace()
        ws.add("d", "<r/>")
        with pytest.raises(KeyError, match="registered"):
            ws.select_many(["//a"], document="nope")
        with pytest.raises(KeyError, match="registered"):
            ws.select_many(["//a"], document="nope", jobs=2)
        ws.close()

    def test_unknown_document_in_service_execute(self):
        ws = Workspace()
        ws.add("d", "<r/>")
        with QueryService(ws, jobs=2) as service:
            with pytest.raises(KeyError, match="registered"):
                service.execute("//a", "nope")

    def test_empty_batch(self):
        ws = Workspace()
        ws.add("d1", "<r><a/></r>")
        ws.add("d2", "<r><b/></r>")
        assert ws.select_many([], document="d1") == {}
        assert ws.select_many([]) == {"d1": {}, "d2": {}}
        assert ws.select_many([], document="d1", jobs=2) == {}
        assert ws.select_many([], jobs=2) == {"d1": {}, "d2": {}}
        ws.close()

    def test_remove_unknown_document(self):
        ws = Workspace()
        with pytest.raises(KeyError):
            ws.remove("ghost")

    def test_invalid_executor_rejected(self):
        ws = Workspace()
        with pytest.raises(ValueError, match="executor"):
            QueryService(ws, executor="goroutine")
        with pytest.raises(ValueError, match="'thread' or 'pool'"):
            QueryService(ws, executor="process")

    def test_remove_and_readd_invalidates_service_shards(self):
        """A re-registered name must never answer from the old shards."""
        ws = Workspace()
        ws.add("d", "<r><a/><a/><a/><a/></r>")
        assert ws.select_many(["//a", "//b"], document="d", jobs=2) == {
            "//a": [1, 2, 3, 4],
            "//b": [],
        }
        ws.remove("d")
        ws.add("d", "<r><b/><b/></r>")
        serial = ws.select_many(["//a", "//b"], document="d")
        assert serial == {"//a": [], "//b": [1, 2]}
        assert ws.select_many(["//a", "//b"], document="d", jobs=2) == serial
        ws.close()

    def test_remove_and_readd_invalidates_worker_pool(self):
        """An in-memory document shipped at pool start forces a rebuild
        on re-registration; the rebuilt pool must see the new content."""
        ws = Workspace()
        ws.add("d", "<r><a/><a/></r>")
        service = ws.service(jobs=2, executor="pool")
        assert service.select_many(["//a"], document="d") == {"//a": [1, 2]}
        ws.remove("d")
        ws.add("d", "<r><b/><a/></r>")
        assert service.select_many(["//a"], document="d") == {"//a": [2]}
        ws.close()

    def test_concurrent_service_calls_share_one_instance(self):
        ws = Workspace()
        ws.add("d", "<r><a/></r>")
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        got = []

        def worker():
            barrier.wait()
            got.append(ws.service(jobs=2))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(id(s) for s in got)) == 1
        ws.close()

    def test_duplicate_queries_collapse_like_serial(self, xmark_workspace):
        batch = ["//keyword", "//keyword", "/site/regions"]
        serial = xmark_workspace.select_many(batch, document="xm")
        assert list(serial) == ["//keyword", "/site/regions"]
        with QueryService(xmark_workspace, jobs=2) as service:
            assert service.select_many(batch, document="xm") == serial
