"""Persistent shared-memory worker pool: identity, warmth, chaos, teardown.

The pool executor's contract mirrors every other executor: results
byte-identical to serial execution -- while its *point* is what it keeps
across batches (warm engines, compiled paths, worker processes) and what
it survives (killed workers, store generation swaps, injected slow
reads).  Each of those is pinned here.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import Workspace, faults
from repro.engine.parallel import QueryService
from repro.engine.pool import (
    CHUNK_MIN_COST,
    PoolClosedError,
    PoolTask,
    WorkerPool,
    plan_chunks,
)
from repro.store import DocumentStore
from repro.xmark.generator import XMarkGenerator

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


def _pid_alive(pid: int) -> bool:
    """Is ``pid`` a live (non-zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat", "r") as fh:
            return fh.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def _wait_pids_dead(pids, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        # Reap any finished-but-unjoined children (a terminated daemon
        # process stays a zombie until someone polls it).
        multiprocessing.active_children()
        if not any(_pid_alive(p) for p in pids):
            return True
        time.sleep(0.05)
    return False


@pytest.fixture(scope="module")
def xmark_workspace():
    ws = Workspace()
    ws.add("xm", XMarkGenerator(scale=0.1, seed=42).tree())
    yield ws
    ws.close()


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool-store")
    store = DocumentStore(str(root))
    store.add("sa", XMarkGenerator(scale=0.05, seed=3).tree())
    store.add("sb", XMarkGenerator(scale=0.02, seed=4).tree())
    return str(root)


# -- chunk planning ----------------------------------------------------------


def _task(doc: str, cost: int) -> PoolTask:
    return PoolTask(doc, ("static", 0), "//a", cost=cost)


class TestPlanChunks:
    def test_empty(self):
        assert plan_chunks([], 4) == []

    def test_preserves_order_and_covers_all(self):
        tasks = [_task("d", 10) for _ in range(37)]
        chunks = plan_chunks(tasks, 4)
        assert [t for c in chunks for t in c] == tasks

    def test_never_spans_documents(self):
        tasks = [_task("a", 1), _task("a", 1), _task("b", 1), _task("a", 1)]
        for chunk in plan_chunks(tasks, 2):
            assert len({t.doc for t in chunk}) == 1

    def test_big_task_travels_alone(self):
        tasks = [
            _task("d", 5),
            _task("d", 10 * CHUNK_MIN_COST),
            _task("d", 5),
        ]
        chunks = plan_chunks(tasks, 2)
        solo = [c for c in chunks if c[0].cost >= CHUNK_MIN_COST]
        assert len(solo) == 1 and len(solo[0]) == 1

    def test_plentiful_batch_gives_scheduling_slack(self):
        # Total cost >> min_cost: the adaptive budget must produce at
        # least one chunk of freedom per worker, not one giant message.
        tasks = [_task("d", CHUNK_MIN_COST) for _ in range(32)]
        chunks = plan_chunks(tasks, 4)
        assert len(chunks) >= 4

    def test_tiny_batch_coalesces(self):
        tasks = [_task("d", 1) for _ in range(20)]
        assert len(plan_chunks(tasks, 4)) == 1


# -- identity ----------------------------------------------------------------


class TestPoolIdentity:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_fig4_identical_to_serial(self, xmark_workspace, jobs):
        ws = xmark_workspace
        serial = ws.select_many(FIG4_SUBSET, "xm")
        with QueryService(ws, jobs=jobs, executor="pool") as service:
            assert service.select_many(FIG4_SUBSET, "xm") == serial

    def test_degenerate_documents(self):
        ws = Workspace()
        for name, xml in DEGENERATE_DOCS.items():
            ws.add(name, xml)
        serial = {
            name: ws.select_many(DEGENERATE_QUERIES, name)
            for name in DEGENERATE_DOCS
        }
        with QueryService(ws, jobs=2, executor="pool") as service:
            got = service.select_many(DEGENERATE_QUERIES)
        assert got == serial
        ws.close()

    def test_store_backed_documents(self, store_dir):
        ws = Workspace()
        ws.open_store(store_dir)
        serial = {
            name: ws.select_many(FIG4_SUBSET, name) for name in ("sa", "sb")
        }
        with QueryService(ws, jobs=2, executor="pool") as service:
            for name in ("sa", "sb"):
                assert service.select_many(FIG4_SUBSET, name) == serial[name]
        ws.close()

    def test_execute_merges_stats(self, xmark_workspace):
        ws = xmark_workspace
        with QueryService(ws, jobs=2, executor="pool") as service:
            result = service.execute("//listitem//keyword", "xm")
        reference = ws.engine("xm").execute("//listitem//keyword")
        assert list(result.ids) == list(reference.ids)
        assert result.stats.snapshot()  # counters did travel back

    def test_workspace_select_many_routes_pool(self, xmark_workspace):
        ws = xmark_workspace
        serial = ws.select_many(FIG4_SUBSET, "xm")
        assert (
            ws.select_many(FIG4_SUBSET, "xm", jobs=1, executor="pool")
            == serial
        )


# -- warmth (the point of persistence) ---------------------------------------


class TestWarmth:
    def test_second_batch_warm_same_pool_no_reparse(self, xmark_workspace):
        ws = xmark_workspace
        with QueryService(ws, jobs=1, executor="pool") as service:
            service.select_many(FIG4_SUBSET, "xm")
            pool = service._pool
            assert pool is not None
            first = service.pool_stats()
            service.select_many(FIG4_SUBSET, "xm")
            # No per-batch pool rebuild: the same WorkerPool object (and
            # hence the same worker processes) served both batches.
            assert service._pool is pool
            second = service.pool_stats()
        # Every second-batch subtask hit warm engines *and* warm
        # compiled paths (jobs=1: one worker sees every task).
        new = second["warm_hits"] - first["warm_hits"]
        cold = second["cold_misses"] - first["cold_misses"]
        assert new > 0 and cold == 0
        assert second["warm_hit_rate"] > 0

    def test_pool_survives_across_select_many_calls(self, store_dir):
        ws = Workspace()
        ws.open_store(store_dir)
        with QueryService(ws, jobs=2, executor="pool") as service:
            pids_before = service.ensure_pool().worker_pids()
            for _ in range(3):
                service.select_many(FIG4_SUBSET, "sa")
            assert service.ensure_pool().worker_pids() == pids_before
        ws.close()


# -- chaos -------------------------------------------------------------------


class TestChaos:
    def test_worker_killed_mid_task_respawns_and_retries(
        self, xmark_workspace
    ):
        ws = xmark_workspace
        serial = ws.select_many(FIG4_SUBSET, "xm")
        plan = faults.FaultPlan()
        # Each subtask on this document stalls inside the worker, so the
        # kill below lands mid-task deterministically enough.
        plan.add(
            "pool.task", "slow_read", delay_s=0.1, match={"document": "xm"}
        )
        with faults.active(plan):
            with QueryService(ws, jobs=2, executor="pool") as service:
                pool = service.ensure_pool()
                pids = pool.worker_pids()
                got: dict = {}
                runner = threading.Thread(
                    target=lambda: got.update(
                        service.select_many(FIG4_SUBSET, "xm")
                    )
                )
                runner.start()
                time.sleep(0.3)
                os.kill(pids[0], signal.SIGKILL)
                runner.join(timeout=120)
                assert not runner.is_alive(), "batch hung after worker death"
                stats = pool.stats()
        assert got == serial
        assert stats["respawns"] >= 1
        assert stats["retries"] >= 1
        assert stats["failures"] == 0

    def test_store_replace_and_compact_under_live_pool(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("mut", XMarkGenerator(scale=0.05, seed=5).tree())
        store.add("stable", XMarkGenerator(scale=0.02, seed=6).tree())
        queries = FIG4_SUBSET[:4]
        ws = Workspace()
        ws.open_store(str(tmp_path))
        with QueryService(ws, jobs=2, executor="pool") as service:
            before_stable = service.select_many(queries, "stable")
            before_mut = service.select_many(queries, "mut")

            new_tree = XMarkGenerator(scale=0.05, seed=9).tree()
            reference = Workspace()
            reference.add("mut", new_tree)
            after_serial = reference.select_many(queries, "mut")
            assert after_serial != before_mut, "test needs distinct content"

            store.replace("mut", new_tree)
            old = ws.swap_stored("mut", store.open("mut"))
            if old is not None:
                old.close()
            store.compact()

            # The version bump travels with the next tasks: no worker
            # may answer from the retired generation.
            assert service.select_many(queries, "mut") == after_serial
            # The untouched document kept its warm caches.
            warm_before = service.pool_stats()["warm_hits"]
            assert service.select_many(queries, "stable") == before_stable
            assert service.pool_stats()["warm_hits"] > warm_before
            reference.close()
        ws.close()

    def test_slow_read_inside_worker_is_correct(self, store_dir):
        ws = Workspace()
        ws.open_store(store_dir)
        serial = ws.select_many(FIG4_SUBSET, "sb")
        plan = faults.FaultPlan()
        plan.add("store.load_array", "slow_read", delay_s=0.005)
        with faults.active(plan):
            # Workers fork with the plan active and re-check the site
            # when they reopen the bundle's arrays themselves.
            with QueryService(ws, jobs=2, executor="pool") as service:
                assert service.select_many(FIG4_SUBSET, "sb") == serial
        ws.close()


# -- teardown (no orphaned workers) ------------------------------------------


class TestTeardown:
    def test_close_is_idempotent_and_rejects_new_work(self):
        pool = WorkerPool(workers=1, strategy="naive")
        pids = pool.worker_pids()
        pool.close()
        pool.close()
        assert _wait_pids_dead(pids)
        with pytest.raises(PoolClosedError):
            pool.submit_many([_task("d", 1)])

    def test_workspace_close_kills_workers(self, store_dir):
        ws = Workspace()
        ws.open_store(store_dir)
        service = ws.service(jobs=2, executor="pool")
        pids = service.ensure_pool().worker_pids()
        assert pids and all(_pid_alive(p) for p in pids)
        ws.close()
        assert _wait_pids_dead(pids)

    def test_garbage_collected_pool_reaps_workers(self):
        pool = WorkerPool(workers=2, strategy="naive")
        pids = pool.worker_pids()
        assert all(_pid_alive(p) for p in pids)
        del pool
        gc.collect()
        assert _wait_pids_dead(pids)

    def test_daemon_stop_kills_workers(self, store_dir):
        daemon_mod = pytest.importorskip("repro.serve.daemon")
        daemon = daemon_mod.QueryDaemon(store_dir, pool_workers=2)
        with daemon_mod.DaemonThread(daemon) as handle:
            pids = daemon._pool_service.ensure_pool().worker_pids()
            assert pids and all(_pid_alive(p) for p in pids)
            assert handle.port > 0
        assert _wait_pids_dead(pids)


# -- validation ---------------------------------------------------------------


class TestValidation:
    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(workers=0, strategy="naive")

    def test_pool_executor_accepted_by_service(self, xmark_workspace):
        service = QueryService(xmark_workspace, jobs=1, executor="pool")
        service.close()  # never built a pool: close is a no-op
