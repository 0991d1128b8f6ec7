"""Persistent shared-memory worker pool with query-granularity stealing.

:class:`WorkerPool` is what ``executor="pool"`` of
:class:`~repro.engine.parallel.QueryService` runs on: worker
*processes* that survive across tasks, across batches, and across
:meth:`~repro.engine.parallel.QueryService.select_many` calls, pulling
work from one **shared task queue** instead of a static per-worker
assignment.  Three properties keep its per-batch overhead small:

- **Shared memory, not pickled payloads.**  Store-backed documents
  travel as ``(bundle path, generation)`` -- a few bytes -- and every
  worker reopens the same bundle zero-copy via
  ``np.load(mmap_mode="r")``; the OS page cache shares one set of
  physical pages across the whole pool.  In-memory documents ship once
  at pool start (copy-on-write under ``fork``).
- **Warm workers.**  Each worker keeps one engine per document, its
  compiled XPath paths and prepared-plan LRUs **across tasks and
  batches**.  The second batch of a warm pool does zero re-parsing,
  zero re-compilation and zero plan resolution;
  the per-task ``warm`` flag feeds the pool-wide warm-hit rate.
- **Dynamic scheduling.**  A task is one whole-document query; cheap
  tasks are chunked together to amortize IPC, onto one shared queue.
  Every chunk carries the worker id a static round-robin schedule
  would have assigned; any idle worker may take it instead, and
  executing a chunk off its home worker is counted as a **steal** --
  the observable difference between dynamic and static scheduling.

Results travel back as compact ``int64`` id arrays (never trees, never
node objects), so a selective query's reply is a few cache lines of
pickle however large the document is.

Fault model
-----------

A worker killed mid-task (OOM, operator, chaos test) is detected by
liveness polling on the result-collector thread: the worker is
respawned, and every chunk it had claimed -- plus any chunk that may
have been lost in its queue window -- is re-enqueued **exactly once**
(``retried`` flag; duplicate completions are idempotently dropped).  A
chunk whose retry also dies fails its futures with
:class:`WorkerDiedError` instead of hanging the caller.  Workers check
the deterministic fault-injection site ``pool.task``
(:mod:`repro.faults`) before every task; under the ``fork`` start
method a plan active at spawn time is inherited by the workers, which
is how the chaos suite injects slow reads *inside* a worker.

Generation invalidation
-----------------------

Every task names the document *version* the parent expects
(monotonically bumped by
:meth:`~repro.engine.parallel.QueryService.invalidate`, which rides on
the store manifest's generation bumps via
``Workspace.swap_stored``/``add``/``remove``).  A worker whose cached
state for the document carries a different version drops that
document's engine and mmap handles and reopens the bundle
path -- which, after a ``DocumentStore.replace``, resolves to the new
generation.  Workers therefore can never serve a retired generation,
and unrelated documents stay warm across the swap.
"""

from __future__ import annotations

import itertools
import queue as _queue
import threading
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.counters import EvalStats
from repro.engine.plan import ExecutionResult
from repro.lru import LRUCache

#: Minimum per-chunk cost (in node-count units) -- chunks smaller than
#: this are IPC-bound, not compute-bound.
CHUNK_MIN_COST = 16384
#: Target chunks per worker when work is plentiful: enough scheduling
#: slack that one slow chunk cannot convoy the batch.
CHUNK_SLACK = 4
#: Liveness-poll interval of the collector thread, seconds.
_POLL_S = 0.1

#: Bound on each worker's compiled-path cache.  Under query churn an
#: unbounded cache grows one parsed AST per distinct query for the life
#: of the worker.
PATH_CACHE_SIZE = 256


class PoolError(RuntimeError):
    """Base class for worker-pool failures."""


class PoolClosedError(PoolError):
    """The pool was shut down while (or before) a task ran."""


class WorkerDiedError(PoolError):
    """A task's worker died, and its single retry died too."""


class PoolTaskError(PoolError):
    """A task raised inside its worker; the message carries the cause."""


@dataclass(frozen=True)
class PoolTask:
    """One unit of pool work: one query against one whole document.

    ``descriptor`` tells the worker how to materialize the document:
    ``("store", bundle_path, version)`` for store-backed documents
    (reopened zero-copy in the worker) or ``("static", version)`` for
    in-memory documents shipped at pool start.  ``cost`` is the
    scheduling estimate (node count) chunking balances on.
    """

    doc: str
    descriptor: tuple
    query: str
    cost: int = 1


class PoolFuture:
    """Minimal single-assignment future for one :class:`PoolTask`.

    Exposes exactly the ``result()`` surface the service's gather loop
    uses; resolved by the pool's collector thread to the task's
    :class:`~repro.engine.plan.ExecutionResult`.
    """

    __slots__ = ("_event", "_value", "_exc")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._exc: Optional[BaseException] = None

    def _set(self, value) -> None:
        if not self._event.is_set():
            self._value = value
            self._event.set()

    def _fail(self, exc: BaseException) -> None:
        if not self._event.is_set():
            self._exc = exc
            self._event.set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError("pool task did not complete in time")
        if self._exc is not None:
            raise self._exc
        return self._value


@dataclass
class _Chunk:
    """Parent-side bookkeeping for one enqueued chunk of tasks."""

    chunk_id: int
    affinity: int
    tasks: List[PoolTask]
    futures: List[PoolFuture]
    claimed_by: Optional[int] = None
    started: bool = False
    retried: bool = False
    done: bool = False
    results: list = field(default_factory=list)


def plan_chunks(
    tasks: Sequence[PoolTask],
    workers: int,
    *,
    min_cost: int = CHUNK_MIN_COST,
    slack: int = CHUNK_SLACK,
) -> List[List[PoolTask]]:
    """Pack tasks into chunks that amortize IPC without convoying.

    The chunk budget adapts to the batch: ``max(min_cost,
    total_cost / (workers * slack))``, so a plentiful batch yields at
    least ``slack`` chunks per worker (scheduling freedom for the
    shared queue) while a tiny batch still coalesces into few messages.
    Chunks never span documents (worker cache locality), preserve
    submission order (the parent's merge relies on per-task futures,
    not chunk order), and a task at or above the budget travels alone.
    With a single worker there is nobody to steal from, so the budget
    is unbounded and the batch collapses to one chunk per document --
    the minimum number of IPC round trips.
    """
    if not tasks:
        return []
    total = sum(t.cost for t in tasks)
    if workers == 1:
        budget = total
    else:
        budget = max(min_cost, total // max(1, workers * slack))
    chunks: List[List[PoolTask]] = []
    current: List[PoolTask] = []
    current_cost = 0
    for task in tasks:
        if current and (
            current[0].doc != task.doc or current_cost + task.cost > budget
        ):
            chunks.append(current)
            current, current_cost = [], 0
        current.append(task)
        current_cost += task.cost
    if current:
        chunks.append(current)
    return chunks


# -- worker side --------------------------------------------------------------


class _WorkerState:
    """Everything one worker process keeps warm across tasks."""

    def __init__(self, wid: int, static_docs: dict, strategy: str) -> None:
        self.wid = wid
        self.static = static_docs
        self.strategy = strategy
        self.versions: Dict[str, int] = {}
        self.engines: dict = {}
        self.stored: dict = {}
        self.paths = LRUCache(PATH_CACHE_SIZE)
        self._evictions_reported = 0

    def _purge_doc(self, doc: str) -> None:
        """Drop every cache derived from ``doc`` (generation change)."""
        self.engines.pop(doc, None)
        stored = self.stored.pop(doc, None)
        if stored is not None:
            try:
                # The engine is gone: the mmap handles of the retired
                # generation can be released for real.
                stored.close()
            except Exception:
                pass

    def _index(self, doc: str, descriptor: tuple):
        if descriptor[0] == "static":
            return self.static[doc]
        from repro.store import open_document

        document = self.stored[doc] = open_document(descriptor[1])
        return document.index

    def run(self, task: tuple) -> tuple:
        """One task; returns
        ``(int64 ids, stats dict, accepted, warm, path evictions)`` --
        the last element is the delta of compiled-path LRU evictions
        since this worker's previous report (the parent accumulates it
        into the pool-wide ``path_evictions`` counter)."""
        from repro import faults
        from repro.engine.api import Engine
        from repro.xpath.parser import parse_xpath

        doc, descriptor, query = task
        warm = True
        if self.versions.get(doc) != descriptor[-1]:
            self._purge_doc(doc)
            self.versions[doc] = descriptor[-1]
            warm = False
        engine = self.engines.get(doc)
        if engine is None:
            warm = False
            engine = self.engines[doc] = Engine(
                self._index(doc, descriptor), strategy=self.strategy
            )
        path = self.paths.get(query)
        if path is None:
            warm = False
            path = parse_xpath(query)
            self.paths.put(query, path)
        faults.check("pool.task", document=doc, worker=self.wid)
        result = engine.execute(path)
        evictions = self.paths.evictions - self._evictions_reported
        self._evictions_reported = self.paths.evictions
        return (
            result.ids_array,
            result.stats.snapshot(),
            result.accepted,
            warm,
            evictions,
        )


def _pool_worker_main(
    wid: int, tasks, results, static_docs: dict, strategy: str
) -> None:
    """Worker-process main loop: pull chunks until the ``None`` pill."""
    state = _WorkerState(wid, static_docs, strategy)
    while True:
        item = tasks.get()
        if item is None:
            break
        chunk_id, _affinity, chunk = item
        results.put(("start", chunk_id, wid))
        try:
            payload = [state.run(task) for task in chunk]
        except BaseException as exc:  # surfaced as PoolTaskError upstream
            results.put(
                ("error", chunk_id, wid, f"{type(exc).__name__}: {exc}")
            )
        else:
            results.put(("done", chunk_id, wid, payload))


# -- parent side --------------------------------------------------------------


def _reap(procs: list) -> None:
    """GC/exit safety net: no orphaned worker processes, ever."""
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass


def _collector_loop(pool_ref: "weakref.ref", results) -> None:
    """Collector-thread main loop, deliberately outside the class.

    The thread holds only a *weak* reference to its pool between queue
    polls: a bound-method target would be a GC root pinning the pool
    alive forever, so an owner who simply dropped their last reference
    would leak the worker processes.  With the weakref, collection of
    an unclosed pool lets the finalizer terminate the workers and this
    loop exit on the next poll.
    """
    try:
        while True:
            try:
                msg = results.get(timeout=_POLL_S)
            except (_queue.Empty, OSError, ValueError):
                msg = None
            pool = pool_ref()
            if pool is None:
                return
            if msg is None:
                if pool._closed:
                    return
                pool._check_workers()
            elif msg[0] == "close":
                return
            else:
                pool._handle_message(msg)
            del pool
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()


class WorkerPool:
    """A persistent pool of shared-memory worker processes.

    Parameters
    ----------
    workers:
        Worker-process count (>= 1).
    strategy:
        The evaluation strategy workers build their engines with.
    static_docs:
        ``{name: TreeIndex}`` payloads for
        in-memory documents, shipped once at pool start (copy-on-write
        under ``fork``).  Store-backed documents need no entry -- their
        tasks carry the bundle path.
    mp_start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` uses the
        platform default (``fork`` on Linux, which is also what lets
        workers inherit an active fault plan and runtime-registered
        strategies).
    """

    def __init__(
        self,
        *,
        workers: int,
        strategy: str,
        static_docs: Optional[dict] = None,
        mp_start_method: Optional[str] = None,
    ) -> None:
        import multiprocessing

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.strategy = strategy
        self._static_docs = static_docs or {}
        self._ctx = multiprocessing.get_context(mp_start_method)
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self._rr = 0
        self._closed = False
        self._chunks: Dict[int, _Chunk] = {}
        self.counters: Dict[str, int] = {
            "tasks": 0,
            "chunks": 0,
            "chunks_started": 0,
            "chunks_done": 0,
            "steals": 0,
            "warm_hits": 0,
            "cold_misses": 0,
            "path_evictions": 0,
            "respawns": 0,
            "retries": 0,
            "failures": 0,
        }
        self.per_worker: Dict[int, int] = {w: 0 for w in range(workers)}
        self._procs: list = []
        for wid in range(workers):
            self._procs.append(self._make_worker(wid))
        for proc in self._procs:
            proc.start()
        # GC/exit safety net (satellite: no orphaned workers).  The
        # callback must not reference self; the process list object is
        # shared with respawn, which replaces slots in place.
        self._finalizer = weakref.finalize(self, _reap, self._procs)
        self._collector = threading.Thread(
            target=_collector_loop,
            args=(weakref.ref(self), self._results),
            name="repro-pool-collector",
            daemon=True,
        )
        self._collector.start()

    # -- lifecycle -----------------------------------------------------------

    def _make_worker(self, wid: int):
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(
                wid,
                self._tasks,
                self._results,
                self._static_docs,
                self.strategy,
            ),
            name=f"repro-pool-{wid}",
            daemon=True,
        )
        return proc

    def worker_pids(self) -> List[int]:
        """Live worker pids (chaos tests kill these)."""
        return [p.pid for p in self._procs if p.is_alive()]

    def close(self, timeout: float = 5.0) -> None:
        """Shut every worker down (idempotent); fail outstanding tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            outstanding = [c for c in self._chunks.values() if not c.done]
        for _ in range(self.workers):
            try:
                self._tasks.put(None)
            except (ValueError, OSError):
                break
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        try:
            self._results.put(("close",))
        except (ValueError, OSError):
            pass
        self._collector.join(timeout)
        for chunk in outstanding:
            for future in chunk.futures:
                future._fail(PoolClosedError("worker pool was closed"))
        self._finalizer.detach()
        for q in (self._tasks, self._results):
            try:
                q.close()
            except (ValueError, OSError):
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit_many(self, tasks: Sequence[PoolTask]) -> List[PoolFuture]:
        """Chunk, enqueue, and return one future per task (in order)."""
        futures = [PoolFuture() for _ in tasks]
        if not tasks:
            return futures
        by_task = {id(t): f for t, f in zip(tasks, futures)}
        with self._lock:
            if self._closed:
                raise PoolClosedError("worker pool is closed")
            for group in plan_chunks(list(tasks), self.workers):
                chunk = _Chunk(
                    chunk_id=next(self._counter),
                    affinity=self._rr % self.workers,
                    tasks=group,
                    futures=[by_task[id(t)] for t in group],
                )
                self._rr += 1
                self._chunks[chunk.chunk_id] = chunk
                self.counters["chunks"] += 1
                self.counters["tasks"] += len(group)
                self._enqueue(chunk)
        return futures

    def _enqueue(self, chunk: _Chunk) -> None:
        payload = [(t.doc, t.descriptor, t.query) for t in chunk.tasks]
        self._tasks.put((chunk.chunk_id, chunk.affinity, payload))

    # -- collection + self-healing -------------------------------------------

    def _handle_message(self, msg: tuple) -> None:
        """One worker message, dispatched from :func:`_collector_loop`."""
        kind = msg[0]
        if kind == "start":
            _, chunk_id, wid = msg
            with self._lock:
                chunk = self._chunks.get(chunk_id)
                if chunk is not None and not chunk.done:
                    chunk.claimed_by = wid
                    if not chunk.started:
                        chunk.started = True
                        self.counters["chunks_started"] += 1
            return
        _, chunk_id, wid, payload = msg
        self._finish(chunk_id, wid, kind, payload)

    def _finish(self, chunk_id: int, wid: int, kind: str, payload) -> None:
        with self._lock:
            chunk = self._chunks.pop(chunk_id, None)
            if chunk is None or chunk.done:
                # A duplicate completion from a retried-but-not-lost
                # chunk: idempotently dropped.
                return
            chunk.done = True
            self.counters["chunks_done"] += 1
            if wid != chunk.affinity:
                self.counters["steals"] += 1
            self.per_worker[wid] = self.per_worker.get(wid, 0) + len(
                chunk.tasks
            )
            if kind == "done":
                for part in payload:
                    warm = part[3]
                    key = "warm_hits" if warm else "cold_misses"
                    self.counters[key] += 1
                    self.counters["path_evictions"] += int(part[4])
            else:
                self.counters["failures"] += len(chunk.tasks)
        if kind == "done":
            for future, part in zip(chunk.futures, payload):
                ids, stats, accepted, _warm, _evictions = part
                future._set(ExecutionResult(accepted, ids, EvalStats(**stats)))
        else:
            exc = PoolTaskError(f"pool task failed in worker {wid}: {payload}")
            for future in chunk.futures:
                future._fail(exc)

    def _check_workers(self) -> None:
        """Respawn dead workers; re-enqueue their (possibly lost) work."""
        dead = [
            wid
            for wid, proc in enumerate(self._procs)
            if not proc.is_alive()
        ]
        if not dead:
            return
        with self._lock:
            if self._closed:
                return
            for wid in dead:
                self._procs[wid] = self._make_worker(wid)
                self._procs[wid].start()
                self.counters["respawns"] += 1
            # Chunks claimed by a dead worker are definitely lost; a
            # chunk with no claim may sit safely in the queue *or* have
            # been consumed in the worker's death window -- re-enqueue
            # both kinds exactly once.  Duplicate completions (a queued
            # chunk run twice) are dropped in _finish; a chunk whose
            # retry is also lost fails instead of hanging.
            doomed: List[_Chunk] = []
            for chunk in self._chunks.values():
                if chunk.done:
                    continue
                claimed_dead = chunk.claimed_by in dead
                unclaimed = chunk.claimed_by is None
                if not (claimed_dead or unclaimed):
                    continue
                if chunk.retried:
                    if claimed_dead:
                        doomed.append(chunk)
                    continue
                chunk.retried = True
                chunk.claimed_by = None
                self.counters["retries"] += 1
                self._enqueue(chunk)
            for chunk in doomed:
                self._chunks.pop(chunk.chunk_id, None)
                chunk.done = True
                self.counters["failures"] += len(chunk.tasks)
        for chunk in doomed:
            exc = WorkerDiedError(
                "pool worker died twice running the same task"
            )
            for future in chunk.futures:
                future._fail(exc)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Pool health: queue depth, steals, warm-hit rate, per-worker."""
        with self._lock:
            counters = dict(self.counters)
            per_worker = {str(w): n for w, n in sorted(self.per_worker.items())}
            alive = sum(1 for p in self._procs if p.is_alive())
        answered = counters["warm_hits"] + counters["cold_misses"]
        return {
            "workers": self.workers,
            "alive": alive,
            "closed": self._closed,
            "tasks": counters["tasks"],
            "chunks": counters["chunks"],
            "queue_depth": counters["chunks"] - counters["chunks_started"],
            "in_flight": counters["chunks_started"] - counters["chunks_done"],
            "steals": counters["steals"],
            "warm_hits": counters["warm_hits"],
            "cold_misses": counters["cold_misses"],
            "warm_hit_rate": round(
                counters["warm_hits"] / answered, 4
            )
            if answered
            else 0.0,
            "path_evictions": counters["path_evictions"],
            "respawns": counters["respawns"],
            "retries": counters["retries"],
            "failures": counters["failures"],
            "per_worker": per_worker,
        }
