"""Parallel query execution: batches and broadcasts on a pool.

:class:`QueryService` scales a :class:`~repro.engine.workspace.Workspace`
to batch and multi-core execution.  Every unit of work is one
whole-document ``(document, query)`` task: the kernel touches only the
candidates of each step, so splitting one query by subtree would save no
touches and add a fixed cost per piece (DESIGN.md, "Parallel
execution").  Tasks fan out to a ``ThreadPoolExecutor`` by default, or
to the persistent worker-process pool (``executor="pool"``); results are
byte-identical to serial execution.

Two executors, one contract:

- ``"thread"`` -- a ``ThreadPoolExecutor`` sharing the workspace's
  engines and compiled cache (best when evaluation releases the GIL or
  interleaves with I/O).
- ``"pool"`` -- the persistent shared-memory
  :class:`~repro.engine.pool.WorkerPool`: long-lived workers that
  reopen store bundles zero-copy via mmap, keep engines / compiled
  paths / prepared plans warm across batches, and pull chunks of tasks
  from one shared queue (dynamic load balancing with steal accounting;
  cheap tasks are chunked together to amortize IPC).  Store mutations
  survive via generation-versioned worker cache invalidation -- see
  :mod:`repro.engine.pool`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine.plan import ExecutionResult
from repro.engine.pool import PoolTask, WorkerPool
from repro.xpath.ast import Path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.workspace import Workspace

Query = Union[str, Path]


class QueryService:
    """Parallel batch/broadcast execution over a workspace's documents.

    Parameters
    ----------
    workspace:
        The :class:`~repro.engine.workspace.Workspace` whose documents
        (and shared compiled-query cache, for the thread executor) the
        service uses.
    jobs:
        Worker count (default: ``os.cpu_count()``).  ``jobs=1`` still
        routes through the service machinery but runs tasks inline.
    executor:
        ``"thread"`` (default) shares the workspace's engines and
        compiled-query cache across pool threads -- the right choice
        when evaluation releases the GIL or tasks interleave with I/O.
        ``"pool"`` keeps a persistent
        :class:`~repro.engine.pool.WorkerPool` of shared-memory worker
        processes alive across batches: warm engines and compiled
        paths, zero-copy mmap reopens of store bundles, one shared
        task queue with steal accounting, and generation-versioned
        cache invalidation that survives store mutations without a
        pool rebuild.  Unlike ``"thread"``, ``"pool"`` uses its worker
        processes even at ``jobs=1`` (the persistence is the point).
    mp_start_method:
        Start method for the ``"pool"`` executor's worker processes
        (``"fork"``, ``"spawn"``, ``"forkserver"``); ``None`` uses the
        platform default -- forking a process that already runs threads
        is unsafe, so the service never second-guesses the platform
        here.  Under spawn the in-memory documents' payload travels by
        pickle and workers re-import the registry, so strategies
        registered at runtime need ``fork``.

    Results are byte-identical to the serial :class:`Workspace` paths:
    ``select_many``/``select_all`` return the same shapes, and
    :meth:`execute` returns the same :class:`ExecutionResult`.
    """

    def __init__(
        self,
        workspace: "Workspace",
        *,
        jobs: Optional[int] = None,
        executor: str = "thread",
        mp_start_method: Optional[str] = None,
    ) -> None:
        if executor not in ("thread", "pool"):
            raise ValueError(
                f"executor must be 'thread' or 'pool', got {executor!r}"
            )
        self.workspace = workspace
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.executor = executor
        self.mp_start_method = mp_start_method
        self._pool = None
        # Pool-executor state: which documents the persistent pool's
        # static payload covers, and a per-document version counter the
        # workers compare against (generation invalidation).
        self._pool_static: Tuple[str, ...] = ()
        self._doc_versions: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    @staticmethod
    def _shutdown_pool(pool) -> None:
        """Stop any pool flavour: executors shut down, WorkerPools close."""
        if pool is None:
            return
        if hasattr(pool, "shutdown"):
            pool.shutdown(wait=True)
        else:
            pool.close()

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        For the persistent ``pool`` executor this joins (then, past a
        timeout, terminates) every worker process -- after
        :meth:`close` or :meth:`Workspace.close` no orphaned workers
        survive.  Garbage collection of an
        unclosed service is backstopped by the pool's own finalizer
        (:class:`~repro.engine.pool.WorkerPool` terminates its
        processes when collected).
        """
        with self._lock:
            pool, self._pool = self._pool, None
            self._pool_static = ()
        self._shutdown_pool(pool)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def invalidate(self, name: str) -> None:
        """Forget every worker cache derived from document ``name``.

        Called by :meth:`Workspace.add`/:meth:`Workspace.remove`/
        :meth:`Workspace.swap_stored` so a removed or re-registered
        document can never be answered from stale state.  The thread
        pool keeps no document state and survives.  The persistent
        ``pool`` executor survives *store* mutations without a rebuild:
        the document's version counter is bumped, every future task
        carries it, and each worker drops its caches for that document
        (and reopens the bundle at its current generation) on the first
        version mismatch -- unrelated documents stay warm.  Only an
        in-memory document (part of the pool's start-time payload)
        forces a pool rebuild.
        """
        stale_pool = None
        with self._lock:
            self._doc_versions[name] = self._doc_versions.get(name, 0) + 1
            if self._pool is not None and name in self._pool_static:
                stale_pool, self._pool = self._pool, None
                self._pool_static = ()
        self._shutdown_pool(stale_pool)

    # -- pool ---------------------------------------------------------------

    def ensure_pool(self):
        """Build the worker pool eagerly (idempotent).

        A long-lived host calls this at startup, while the process is
        still single-threaded -- forking workers before any event loop
        or request threads exist sidesteps the classic
        fork-after-threads hazards.  Returns the pool, or ``None`` when
        this configuration runs inline (``thread`` at ``jobs=1``).
        """
        if self.executor == "pool":
            return self._get_worker_pool()
        if self.jobs == 1:
            return None
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="repro-qs"
                )
            return self._pool

    def pool_stats(self) -> Optional[dict]:
        """The persistent pool's health snapshot (``None`` otherwise)."""
        with self._lock:
            pool = self._pool
        if pool is None or not hasattr(pool, "stats"):
            return None
        return pool.stats()

    def _store_path(self, name: str) -> Optional[str]:
        """The bundle path pool tasks ship for ``name`` (in-memory: None)."""
        return getattr(self.workspace.engine(name).index, "store_path", None)

    def _get_worker_pool(self):
        static = tuple(
            name
            for name in self.workspace.documents()
            if self._store_path(name) is None
        )
        stale = None
        with self._lock:
            if self._pool is not None and self._pool_static != static:
                stale, self._pool = self._pool, None
                self._pool_static = ()
        self._shutdown_pool(stale)
        with self._lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    workers=self.jobs,
                    strategy=self.workspace.strategy,
                    static_docs={
                        name: self.workspace.engine(name).index
                        for name in static
                    },
                    mp_start_method=self.mp_start_method,
                )
                self._pool_static = static
            return self._pool

    def _pool_descriptor(self, name: str) -> tuple:
        """How a pool worker materializes (and version-checks) ``name``.

        Store-backed documents ship their bundle path + version on every
        task (a few bytes); workers reopen the mmap themselves and the
        OS page cache shares the physical pages.  In-memory documents
        were shipped at pool start and are named by version only.
        """
        store_path = self._store_path(name)
        with self._lock:
            version = self._doc_versions.get(name, 0)
        if store_path is not None:
            return ("store", store_path, version)
        return ("static", version)

    # -- execution core ------------------------------------------------------

    def execute(self, query: Query, document: str) -> ExecutionResult:
        """Run one query on one document as one task."""
        return self.run_batch([document], [query])[document][
            self._qkey(query)
        ]

    def select(self, query: Query, document: str) -> List[int]:
        """Selected node ids of ``query`` on the named document."""
        return self.execute(query, document).nodes

    def select_many(
        self, queries: Iterable[Query], document: Optional[str] = None
    ) -> Dict[str, object]:
        """Parallel counterpart of :meth:`Workspace.select_many`."""
        queries = list(queries)
        if document is not None:
            results = self.run_batch([document], queries)[document]
            return {k: r.nodes for k, r in results.items()}
        out = {}
        all_results = self.run_batch(self.workspace.documents(), queries)
        for name, results in all_results.items():
            out[name] = {k: r.nodes for k, r in results.items()}
        return out

    def select_all(self, query: Query) -> Dict[str, List[int]]:
        """Parallel counterpart of :meth:`Workspace.select_all`."""
        results = self.run_batch(self.workspace.documents(), [query])
        qkey = self._qkey(query)
        return {name: res[qkey].nodes for name, res in results.items()}

    def count_all(self, query: Query) -> Dict[str, int]:
        """Result cardinality per document, computed on the pool."""
        results = self.run_batch(self.workspace.documents(), [query])
        qkey = self._qkey(query)
        return {name: len(res[qkey]) for name, res in results.items()}

    @staticmethod
    def _qkey(query: Query) -> str:
        return query if isinstance(query, str) else str(query)

    def run_batch(
        self, doc_names: Sequence[str], queries: Sequence[Query]
    ) -> Dict[str, Dict[str, ExecutionResult]]:
        """Fan out a (documents x queries) batch, one task per pair, and
        gather ``{document: {query: result}}`` in submission order.

        Plans are prepared here, so a malformed or relative query fails
        in the caller before anything runs.  A plan whose strategy keeps
        run state on itself (``parallel_safe = False``) runs in this
        thread.  Worker-pool tasks are submitted in one call, which is
        what lets the pool chunk cheap tasks together.
        """
        unique: Dict[str, Query] = {}
        for query in queries:
            unique.setdefault(self._qkey(query), query)
        # Validate every document name up front (fail before fan-out).
        engines = {name: self.workspace.engine(name) for name in doc_names}
        out: Dict[str, Dict[str, object]] = {
            name: dict.fromkeys(unique) for name in engines
        }
        pool = self.ensure_pool() if unique else None
        pending: List[Tuple[str, str, object]] = []
        tasks: List[PoolTask] = []
        for name, engine in engines.items():
            descriptor = (
                self._pool_descriptor(name) if self.executor == "pool" else None
            )
            for qkey, query in unique.items():
                plan = engine.prepare(query)
                if pool is None or not getattr(plan.strategy, "parallel_safe", True):
                    out[name][qkey] = plan.execute()
                elif descriptor is not None:
                    tasks.append(
                        PoolTask(name, descriptor, qkey, cost=engine.index.tree.n)
                    )
                else:
                    pending.append((name, qkey, pool.submit(plan.execute)))
        if tasks:
            futures = pool.submit_many(tasks)
            pending += [(t.doc, t.query, f) for t, f in zip(tasks, futures)]
        for name, qkey, future in pending:
            out[name][qkey] = future.result()
        return out
