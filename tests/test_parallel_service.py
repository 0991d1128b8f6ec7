"""Parallel QueryService: determinism, dispatch, thread safety, errors.

The load-bearing property is *byte-identical results*: for every worker
count, executor flavour, and document shape (including the degenerate
bare-root and single-child documents), the parallel service must return
exactly what the serial :class:`Workspace` paths return -- and it runs
every (document, query) pair as one whole-document task.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import Workspace
from repro.engine.api import PLAN_CACHE_SIZE
from repro.engine.parallel import QueryService
from repro.engine.plan import CompiledQueryCache
from repro.engine.pool import PATH_CACHE_SIZE
from repro.engine.registry import Strategy, register_strategy, unregister_strategy
from repro.lru import LRUCache
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import XPathCompileError
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

#: Fig-4 Q01-Q15 plus five sibling / backward shapes (the engine-mix
#: benchmark's query mix).
MIX20 = list(QUERIES.values()) + [
    "//listitem/following-sibling::listitem",
    "//keyword/ancestor::listitem",
    "//keyword/parent::text",
    "//keyword[ancestor::mail]",
    "//item[mailbox/mail]/following-sibling::item",
]

#: One query of each shape the parallel path must serve: root-only,
#: root-gated, empty, sibling, backward, absolute-in-predicate.
SHAPES = [
    "/site",
    "/site/regions/*/item",
    "//item[mailbox]//keyword",
    "/site[.//keyword]//keyword",
    "/site[not(closed_auctions)]",
    "/site/people/person[not(phone)]",
    "//keyword",
    "//*",
    "//listitem/following-sibling::listitem",
    "//parlist[listitem/following-sibling::listitem]",
    "//keyword/parent::text",
    "//keyword/..",
    "//keyword[ancestor::mail]",
    "//item[//keyword]",
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


# -- determinism: parallel == serial ----------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 6])
    def test_xmark_batch_identical_across_jobs(self, xmark_workspace, jobs):
        serial = xmark_workspace.select_many(FIG4_SUBSET, document="xm")
        with QueryService(xmark_workspace, jobs=jobs) as service:
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
        for jobs in (2, 3):
            with QueryService(ws, jobs=jobs) as service:
                assert serial == service.select_many(queries), jobs
        ws.close()

    @pytest.mark.parametrize("doc", sorted(DEGENERATE_DOCS))
    def test_degenerate_documents(self, doc):
        ws = Workspace()
        ws.add("d", DEGENERATE_DOCS[doc])
        serial = ws.select_many(DEGENERATE_QUERIES, document="d")
        with QueryService(ws, jobs=2) as service:
            got = service.select_many(DEGENERATE_QUERIES, document="d")
            assert got == serial, doc
        ws.close()

    def test_select_all_and_count_all_match_serial(self, xmark_workspace):
        with QueryService(xmark_workspace, jobs=2) as service:
            assert service.select_all("//keyword") == (
                xmark_workspace.select_all("//keyword")
            )
            assert service.count_all("//keyword") == (
                xmark_workspace.count_all("//keyword")
            )

    def test_execute_matches_serial_result(self, xmark_workspace):
        serial = xmark_workspace.execute("//listitem//keyword", "xm")
        with QueryService(xmark_workspace, jobs=2) as service:
            got = service.execute("//listitem//keyword", "xm")
        assert got.ids == serial.ids
        assert got.accepted == serial.accepted
        assert got.stats.selected == serial.stats.selected

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
            ws, jobs=2, executor="pool", mp_start_method="spawn"
        ) as service:
            assert service.select_many(queries, document="xm") == serial
        ws.close()

    def test_worker_pool_identical(self, xmark_workspace):
        """The persistent pool executor obeys the same identity contract
        (its own behaviours -- warmth, stealing, chaos -- live in
        test_pool.py)."""
        serial = xmark_workspace.select_many(FIG4_SUBSET, document="xm")
        with QueryService(
            xmark_workspace, jobs=2, executor="pool"
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
        with QueryService(ws, jobs=2) as service:
            assert service.select_many(queries) == serial
        ws.close()


# -- dispatch -----------------------------------------------------------------


class TestDispatch:
    def test_one_pool_task_per_document_and_query(self):
        """Every (document, query) pair is one whole-document task: no
        query is split into pieces, whatever the document's size."""
        ws = Workspace()
        for seed in (1, 2):
            ws.add(f"d{seed}", XMarkGenerator(scale=0.2, seed=seed).tree())
        assert all(ws.engine(name).tree.n >= 4096 for name in ws.documents())
        serial = ws.select_many(MIX20)
        with QueryService(ws, jobs=2, executor="pool") as service:
            assert service.select_many(MIX20) == serial
            assert service.pool_stats()["tasks"] == 2 * len(MIX20) == 40
        ws.close()

    @pytest.fixture(scope="class", params=["thread", "pool"])
    def shape_service(self, request, xmark_workspace):
        with QueryService(
            xmark_workspace, jobs=2, executor=request.param
        ) as service:
            service.ensure_pool()
            yield service

    @staticmethod
    def _tasks(service):
        stats = service.pool_stats()
        return None if stats is None else stats["tasks"]

    @pytest.mark.parametrize("query", SHAPES)
    def test_each_shape_runs_whole_document(
        self, shape_service, xmark_workspace, query
    ):
        """Root-only, gated, sibling, backward and absolute-in-predicate
        shapes all take the one whole-document path: serial answers, and
        on the pool exactly one task per query."""
        serial = xmark_workspace.select(query, "xm")
        before = self._tasks(shape_service)
        assert shape_service.select(query, "xm") == serial
        if shape_service.executor == "pool":
            assert self._tasks(shape_service) == before + 1

    def test_relative_query_fails_before_fan_out(
        self, shape_service, xmark_workspace
    ):
        with pytest.raises(XPathCompileError, match="absolute"):
            xmark_workspace.select("site/regions", "xm")
        before = self._tasks(shape_service)
        with pytest.raises(XPathCompileError, match="absolute"):
            shape_service.select("site/regions", "xm")
        assert self._tasks(shape_service) == before


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
        """Two concurrent batches can land on one PreparedQuery; its
        warmed tables mutate during a run, so plan.execute() must never
        interleave on one plan."""
        import time

        running = []
        overlaps = []

        @register_strategy
        class SlowStrategy(Strategy):
            """Records overlapping executions of the same plan."""

            name = "slow-test"
            fallback = "optimized"

            def prepare(self, plan):
                plan.asta  # compiled at prepare, not inside the runs

            def execute(self, plan, index, stats):
                if running:
                    overlaps.append(plan.query)
                running.append(plan.query)
                time.sleep(0.005)
                running.pop()
                from repro.engine.core import run_asta

                return run_asta(plan.asta, index, stats=stats)

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

    def test_overlapping_queries_on_one_engine_stay_correct(
        self, xmark_workspace
    ):
        """Q11/Q12/Q15 select the same keywords and run concurrently on
        one shared engine; fanning them out together must still match
        serial exactly."""
        batch = [
            "/site//keyword",
            "/site[ .//keyword ]//keyword",
            "/site[ .//*//* ]//keyword",
        ]
        serial = xmark_workspace.select_many(batch, document="xm")
        for _ in range(5):
            with QueryService(xmark_workspace, jobs=3) as service:
                assert service.select_many(batch, document="xm") == serial


# -- caches and error paths ---------------------------------------------------


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
        """The service keeps no per-query state: a stream of distinct
        queries fills only the engine's bounded plan LRU."""
        ws = Workspace()
        ws.add("d", "<r><a><b/></a><a/></r>")
        queries = [f"//a[not(x{i})]" for i in range(PLAN_CACHE_SIZE + 8)]
        plans = ws.engine("d")._plans
        with QueryService(ws, jobs=2) as service:
            first = service.select(queries[0], "d")
            for query in queries[1:]:
                assert service.select(query, "d") == first
            assert len(plans) == PLAN_CACHE_SIZE
            assert plans.maxsize == PLAN_CACHE_SIZE
            assert plans.evictions == 8
            assert (queries[0], "auto") not in plans.data
            # An evicted query is planned again and answers the same.
            assert service.select(queries[0], "d") == first == ws.select(queries[0], "d")
        ws.close()


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

    def test_remove_and_readd_invalidates_service_state(self):
        """A re-registered name must never answer from the old document."""
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
