"""The persistent query daemon: warm engine state behind asyncio HTTP.

:class:`QueryDaemon` is the long-running counterpart of the one-shot
CLI.  At startup it mounts one or more :class:`~repro.store.DocumentStore`
corpora into a single :class:`~repro.engine.workspace.Workspace` via the
zero-copy mmap reopen path (no XML parsing, no index rebuild), and then
keeps everything the single-shot paths throw away hot across requests:
the shared compiled-automaton cache, each engine's prepared-plan LRU,
the fused label-union caches, and -- under the default ``auto``
strategy -- the cost-based planner's converged, frozen per-query
choices.  A repeated ``POST /query`` therefore does *zero* re-parsing,
re-compilation, or re-planning: the daemon resolves it through its own
``(document, query, strategy)`` -> :class:`PreparedQuery` map and goes
straight to execution (the response's ``warm`` flag and ``timing_ms``
breakdown make that observable, and ``GET /stats`` exposes every cache's
counters).

Concurrency model
-----------------

One asyncio event loop owns the sockets and all admission bookkeeping
(single-threaded, so the in-flight counter needs no lock).  Query
evaluation -- pure CPU work -- runs in one of two places, and every
``/query`` response says which (``"executor"``):

- ``"thread"``: on a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor` of ``workers``
  threads.  This is where every ``/batch`` and ``/explain``, every cold
  plan and everything not known to be cheap runs.  The hop costs two
  context switches and two extra loop iterations, 0.1-0.2 ms of a
  round trip; its first half (admission to function start) is reported
  as ``timing_ms.queue``.
- ``"inline"``: on the event loop itself, with no hop, when the daemon
  has *measured* this plan's whole worker-side function (evaluate +
  encode, for this answer mode) at under :data:`INLINE_MAX_S` the last
  time it ran.  The measurement lives with the plan in the prepared map,
  so a reload, a version bump or an LRU eviction forgets it and the
  next request takes the thread path again; so does any request while
  the plan's planner still has trials queued, while a fault plan is
  armed, whose own ``timeout_s`` is below the measurement, or that the
  worker pool could take.  An inline run that comes out slow records
  that, and the plan goes back to the executor.

Admission control covers both: a hard cap of ``workers + queue_depth``
requests in flight, request ``workers + queue_depth + 1`` answered
``429`` immediately instead of queueing without bound (degrading every
other client's latency).  Each thread-bound request runs under
``asyncio.wait_for``: on timeout the client gets a structured ``504``
and the task is cancelled -- a still-queued task is truly cancelled and
never runs; a task already on a worker thread finishes and its result is
discarded (the admission slot is released either way).  An inline run
cannot be interrupted, only bounded in advance by its measurement; one
that overruns its budget anyway still answers the ``504``.  Executions
of one prepared plan are serialized by the plan's own lock
(:meth:`~repro.engine.plan.PreparedQuery.execute`), so concurrent
identical queries stay correct; distinct queries run concurrently.

With ``pool_workers > 0`` (``repro serve --pool-workers N``) a third
tier joins: a persistent :class:`~repro.engine.pool.WorkerPool` of
shared-memory worker *processes*, forked at construction time while the
daemon is still single-threaded.  ``/batch`` requests -- and ``/query``
on documents of at least ``pool_min_nodes`` nodes -- occupy one
admission slot and one executor thread as before, but that thread only
*waits*: the evaluation itself fans out across the pool's warm workers
(query-granularity stealing, zero-copy mmap shares, per-worker compiled
caches).  Pool health lives under ``"pool"`` in ``GET /stats``; any
pool failure degrades to the thread path and counts as a
``pool_fallback``.

Endpoints
---------

- ``POST /query``  -- one query: ``{"query": ..., "document": ...}``
- ``POST /batch``  -- a list of queries, one admission slot
- ``GET /explain`` -- resolved strategy + planner verdict for a query
- ``POST /reload`` -- re-mount every corpus at its current generation
  (see *Hot reload* below)
- ``GET /stats``   -- daemon counters, admission state, cache statistics,
  error rates, quarantine/skip state, reload/generation state
- ``GET /healthz`` -- liveness + mounted documents + degraded status

Hot reload
----------

Mutable corpora (``DocumentStore.add/replace/remove``, ``repro store
sync``) publish new bundle generations while a daemon serves the old
one.  ``POST /reload`` -- or the optional change-stamp poller
(``reload_poll``) -- picks them up without a restart and without
failing a single in-flight request: bundle opens
happen off-loop against the new generation, the engine/mount swap is
one synchronous step on the event loop, prepared plans and planner
state are invalidated *per changed document only* (version-stamped
cache keys make concurrently-built stale plans unreachable), and the
old generation's mmaps close only after every request admitted before
the swap has drained (epoch-tagged admission).  Documents skipped as
corrupt at mount time are retried on every reload; quarantines and
failure streaks reset for changed documents, because new content
invalidates old evidence.

Errors are structured JSON (``{"error": {"kind", "message", ...}}``);
malformed XPath answers ``400`` with the parser's offset-carrying
payload (:meth:`repro.xpath.parser.XPathSyntaxError.to_dict`).

Self-healing
------------

A production daemon must degrade, not die.  Three layers:

- **Mount-time skip.**  A corrupt bundle (truncated array, mangled
  header -- anything :func:`repro.store.open_document` rejects) is
  skipped with a stderr warning and recorded under ``skipped`` in
  ``/healthz``/``/stats``; the rest of the corpus serves.  Startup only
  fails when *no* bundle is usable (or on a genuine configuration
  error, e.g. duplicate names).
- **One-shot strategy fallback.**  An unexpected exception during
  evaluation (a strategy bug, injected or real) retries the request
  once on the ``naive`` reference path before failing; a fallback
  answer is correct by construction (the oracle every other strategy
  is differential-tested against) and the response carries
  ``"fallback": "naive"``.
- **Per-document quarantine.**  ``fail_threshold`` *consecutive*
  ultimately-failed evaluations (fallback included) quarantine the
  document: further requests answer a structured ``503 quarantined``
  without touching the engine, ``/healthz`` flips to ``degraded`` with
  the quarantine list, and healthy documents keep serving.  Any
  successfully answered request resets its document's failure streak.

Shutdown (SIGTERM/SIGINT, or :meth:`QueryDaemon.stop`) is a graceful
drain: stop accepting, let in-flight requests finish or hit their own
``504`` budgets, close idle keep-alive connections, then release the
worker pool and every mmap handle.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.engine import registry
from repro.engine.planner import planner_fields, trials_pending
from repro.engine.workspace import Workspace
from repro.lru import LRUCache
from repro.serve.http import (
    Answer,
    Body,
    HttpError,
    Request,
    encode_answer,
    read_request,
    send_response,
)
from repro.store import (
    DocumentStore,
    StoreError,
    bundle_identity,
    corpus_stamp,
    read_manifest,
)
from repro.xpath.parser import XPathSyntaxError

#: Default admission queue depth beyond the worker threads.
QUEUE_DEPTH = 16
#: Default per-request timeout in seconds.
TIMEOUT_S = 30.0
#: Bound on the daemon's (document, query, strategy) -> plan map.
PREPARED_CACHE_SIZE = 1024
#: Consecutive ultimately-failed evaluations before a document is
#: quarantined (0 disables quarantine).
FAIL_THRESHOLD = 3
#: The strategy a failed evaluation is retried on, once, before giving
#: up -- the reference oracle every fast path is differential-tested
#: against.
FALLBACK_STRATEGY = "naive"
#: Seconds between corpus change-stamp polls (0 disables polling; the
#: explicit ``POST /reload`` endpoint always works).
RELOAD_POLL_S = 0.0
#: Worker *processes* for the persistent shared-memory pool
#: (:class:`repro.engine.pool.WorkerPool`); 0 disables the pool and
#: every request runs on the thread executor as before.
POOL_WORKERS = 0
#: Documents at or above this node count route single ``/query``
#: requests through the pool too (batches always use it when enabled).
POOL_MIN_NODES = 65536
#: A ``/query`` whose worker-side function last took less than this many
#: seconds runs on the event loop instead of hopping to a worker thread.
#: A constant, not an option: it is not a preference but a bound on how
#: long the loop may be held, and the interpreter already sets the scale
#: -- a worker thread running Python code keeps the GIL, and so holds the
#: loop off, for up to the 5 ms switch interval.  1 ms stays well inside
#: what every connection already tolerates, while the hop it saves
#: (0.1-0.2 ms) is a third of a request this cheap.
INLINE_MAX_S = 0.001


def _ms(start: float, end: float) -> float:
    """A ``perf_counter`` interval as ``timing_ms`` reports it."""
    return round((end - start) * 1000.0, 4)


class _Prepared:
    """One entry of the daemon's plan map: the plan, and what its
    ``/query`` worker-side function last cost (seconds) per answer mode
    -- dropped together, so no measurement outlives its plan."""

    __slots__ = ("plan", "cost_s")

    def __init__(self, plan) -> None:
        self.plan = plan
        self.cost_s: Dict[tuple, float] = {}


class QueryDaemon:
    """A long-lived HTTP/JSON query service over store corpora.

    Parameters
    ----------
    stores:
        One corpus directory, or a sequence of them.  Every bundle of
        every directory is mounted by its bundle name (duplicate names
        across directories are rejected at startup).
    strategy:
        The workspace-wide evaluation strategy (default ``auto``, the
        cost-based planner -- whose freeze-after-convergence is exactly
        what a long-lived process amortizes).
    workers:
        Worker-thread count for query evaluation (default: CPU count).
    queue_depth:
        Extra requests allowed to wait beyond the busy workers before
        new ones are refused with 429.
    timeout:
        Per-request wall-clock budget in seconds; requests may lower
        (never raise) it per call via ``"timeout_s"``.  Also the
        default graceful-drain budget on shutdown.
    host / port:
        Bind address.  ``port=0`` picks a free port; :attr:`port` holds
        the bound one after :meth:`start`.
    fail_threshold:
        Consecutive ultimately-failed evaluations (the reference-path
        retry included) before a document is quarantined; ``0``
        disables quarantine.
    reload_poll:
        Seconds between corpus change-stamp checks; when a stamp moves,
        the daemon reloads itself exactly as ``POST /reload`` would.
        ``0`` (the default) disables polling -- the endpoint is always
        available either way.
    pool_workers:
        Worker *processes* for the persistent shared-memory pool
        (:class:`repro.engine.pool.WorkerPool`).  When > 0, ``/batch``
        requests (and ``/query`` on documents of at least
        ``pool_min_nodes`` nodes) run on the pool instead of a single
        worker thread: zero-copy mmap reopens, warm per-worker caches,
        query-granularity stealing.  The pool is created eagerly at
        construction -- before the event loop or any worker thread
        exists, so the fork is clean -- survives hot reloads via
        generation-versioned invalidation, and is torn down by
        :meth:`stop`.  Any pool failure falls back to the thread path
        (counted under ``pool_fallbacks``).  ``0`` (default) disables.
    pool_min_nodes:
        Node-count threshold for routing single ``/query`` requests
        through the pool; small documents stay on the (cheaper)
        thread executor.
    """

    def __init__(
        self,
        stores: Union[str, Sequence[str]],
        *,
        strategy: str = "auto",
        workers: Optional[int] = None,
        queue_depth: int = QUEUE_DEPTH,
        timeout: float = TIMEOUT_S,
        host: str = "127.0.0.1",
        port: int = 0,
        mmap: bool = True,
        max_body: int = 8 * 1024 * 1024,
        prepared_cache_size: int = PREPARED_CACHE_SIZE,
        fail_threshold: int = FAIL_THRESHOLD,
        reload_poll: float = RELOAD_POLL_S,
        pool_workers: int = POOL_WORKERS,
        pool_min_nodes: int = POOL_MIN_NODES,
    ) -> None:
        if isinstance(stores, str):
            stores = [stores]
        if not stores:
            raise ValueError("at least one store directory is required")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.queue_depth = queue_depth
        self.admission_limit = self.workers + self.queue_depth
        if fail_threshold < 0:
            raise ValueError(
                f"fail_threshold must be >= 0, got {fail_threshold}"
            )
        self.max_body = max_body
        self.fail_threshold = fail_threshold
        if reload_poll < 0:
            raise ValueError(f"reload_poll must be >= 0, got {reload_poll}")
        self.reload_poll = reload_poll
        if pool_workers < 0:
            raise ValueError(f"pool_workers must be >= 0, got {pool_workers}")
        self.pool_workers = pool_workers
        self.pool_min_nodes = pool_min_nodes
        self.mmap = mmap
        self.workspace = Workspace(strategy=strategy)
        self.mounts: Dict[str, List[str]] = {}
        self._store_dirs: List[str] = [os.path.abspath(s) for s in stores]
        #: Per-document mount provenance: the owning store, the bundle
        #: identity ((st_dev, st_ino) of its header) captured when the
        #: mmaps were opened, and the manifest's generation/fingerprint.
        #: A reload republishes a document exactly when the identity on
        #: disk differs from the one mounted.
        self._mounted_info: Dict[str, dict] = {}
        #: Bundles that failed to open at mount time (corrupt on disk),
        #: name -> structured detail.  Serving continues without them;
        #: a later reload retries them against the current disk state.
        self.skipped: Dict[str, dict] = {}
        for store_dir in self._store_dirs:
            store = DocumentStore(store_dir)
            manifest = read_manifest(store_dir)
            mounted: List[str] = []
            for name in store.names():
                try:
                    document = store.open(name, mmap=mmap)
                except (StoreError, OSError) as exc:
                    self.skipped[name] = {
                        "store": store_dir,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                    print(
                        f"warning: skipping corrupt bundle {name!r} in "
                        f"{store_dir}: {exc}",
                        file=sys.stderr,
                    )
                    continue
                try:
                    self.workspace.add_stored(name, document)
                except BaseException:
                    # e.g. a duplicate name across stores: a genuine
                    # configuration error, not corruption -- re-raise,
                    # but never leak the mmap handles just opened.
                    document.close()
                    raise
                entry = manifest.documents.get(name) or {}
                self._mounted_info[name] = {
                    "store": store_dir,
                    "identity": bundle_identity(store.path_for(name)),
                    "generation": entry.get("generation"),
                    "fingerprint": entry.get("fingerprint"),
                }
                mounted.append(name)
            self.mounts[store_dir] = mounted
        #: Per-store change stamps the reload poller compares against.
        self._stamps: Dict[str, Optional[int]] = {
            store_dir: corpus_stamp(store_dir)
            for store_dir in self._store_dirs
        }
        if not self.workspace.documents():
            detail = (
                f" ({len(self.skipped)} corrupt bundle(s) skipped)"
                if self.skipped
                else ""
            )
            raise ValueError(
                f"no document bundles usable in {list(stores)!r}{detail}"
            )
        # The persistent shared-memory pool forks *now*, while this
        # process is still single-threaded (the event loop, the thread
        # executor's threads, and the pool's own collector all come
        # later) -- the one moment a fork is unconditionally safe.
        self._pool_service = None
        if self.pool_workers > 0:
            self._pool_service = self.workspace.service(
                jobs=self.pool_workers, executor="pool"
            )
            self._pool_service.ensure_pool()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        # _plan_key(...) -> _Prepared
        self._prepared = LRUCache(prepared_cache_size, lock=True)
        # Per-document version counter, bumped on every reload swap.
        # Prepared-plan keys embed it, so a worker thread that resolved
        # the *old* engine and finishes building its plan after the swap
        # inserts under a version no future lookup uses -- the stale
        # plan is unreachable, not poisonous.  Written on the event
        # loop, read from pool threads (GIL-atomic dict ops).
        self._doc_versions: Dict[str, int] = {}
        # Touched from the event-loop thread only.
        self._in_flight = 0
        self._requests_open = 0
        self._draining = False
        # Reload epoch: every admitted request is tagged with the epoch
        # current at admission; a reload bumps the epoch after swapping
        # engines and then drains the older epochs' counts to zero
        # before closing the superseded mmaps.
        self._epoch = 0
        self._epoch_inflight: Dict[int, int] = {}
        self._reload_lock = asyncio.Lock()
        self._poll_task: Optional[asyncio.Task] = None
        self._last_reload: Optional[dict] = None
        self._connections: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._started = time.monotonic()
        # warm/cold are bumped from pool threads; everything else from
        # the event loop.  One lock keeps all of them exact.
        self._counters_lock = threading.Lock()
        # Quarantine bookkeeping, guarded by the same lock (failure
        # notes arrive from pool threads, rejects from the event loop).
        self._doc_failures: Dict[str, int] = {}
        self._quarantined: Dict[str, dict] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "queries": 0,
            "batches": 0,
            "batch_queries": 0,
            "explains": 0,
            "rejected": 0,
            "timeouts": 0,
            "syntax_errors": 0,
            "bad_requests": 0,
            "internal_errors": 0,
            "warm_hits": 0,
            "cold_misses": 0,
            "eval_failures": 0,
            "fallbacks": 0,
            "fallback_successes": 0,
            "quarantine_rejects": 0,
            "drain_rejects": 0,
            "reloads": 0,
            "reload_noops": 0,
            "reload_failures": 0,
            "pool_batches": 0,
            "pool_queries": 0,
            "pool_fallbacks": 0,
            "inline": 0,
            "threaded": 0,
        }

    # -- bookkeeping ---------------------------------------------------------

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._counters_lock:
            self.counters[counter] += by

    def documents(self) -> List[str]:
        return self.workspace.documents()

    # -- quarantine state machine --------------------------------------------

    def quarantined(self) -> Dict[str, dict]:
        """Quarantined documents and why (a snapshot)."""
        with self._counters_lock:
            return {name: dict(info) for name, info in self._quarantined.items()}

    def health_status(self) -> str:
        """``ok``, or ``degraded`` when anything is quarantined/skipped."""
        with self._counters_lock:
            degraded = bool(self._quarantined) or bool(self.skipped)
        return "degraded" if degraded else "ok"

    def _note_eval_failure(self, document: str, exc: BaseException) -> None:
        """One ultimately-failed evaluation; quarantine on a streak."""
        with self._counters_lock:
            self.counters["eval_failures"] += 1
            streak = self._doc_failures.get(document, 0) + 1
            self._doc_failures[document] = streak
            if (
                self.fail_threshold
                and streak >= self.fail_threshold
                and document not in self._quarantined
            ):
                self._quarantined[document] = {
                    "failures": streak,
                    "error": f"{type(exc).__name__}: {exc}",
                    "uptime_s": round(time.monotonic() - self._started, 3),
                }

    def _note_eval_success(self, document: str) -> None:
        """An answered request breaks the document's failure streak."""
        with self._counters_lock:
            self._doc_failures.pop(document, None)

    def unquarantine(self, document: str) -> bool:
        """Lift a quarantine (operator override / after a repair)."""
        with self._counters_lock:
            self._doc_failures.pop(document, None)
            return self._quarantined.pop(document, None) is not None

    # -- request-payload helpers ---------------------------------------------

    def _resolve_document(self, name: Optional[str]):
        """The named engine, defaulting to a single mounted document."""
        docs = self.workspace.documents()
        if name is None:
            if len(docs) == 1:
                name = docs[0]
            else:
                raise HttpError(
                    400,
                    "bad_request",
                    "'document' is required when several are mounted",
                    {"documents": docs},
                )
        if name not in self.workspace:
            raise HttpError(
                404,
                "unknown_document",
                f"no document {name!r}",
                {"documents": docs},
            )
        with self._counters_lock:
            info = self._quarantined.get(name)
        if info is not None:
            self._bump("quarantine_rejects")
            raise HttpError(
                503,
                "quarantined",
                f"document {name!r} is quarantined after "
                f"{info['failures']} consecutive evaluation failures",
                {"document": name, "detail": dict(info)},
            )
        return name, self.workspace.engine(name)

    def _resolve_strategy(self, payload: dict) -> str:
        strategy = payload.get("strategy", self.workspace.strategy)
        if not isinstance(strategy, str) or strategy not in registry.strategy_names():
            raise HttpError(
                400,
                "bad_request",
                f"unknown strategy {strategy!r}",
                {"strategies": registry.strategy_names()},
            )
        return strategy

    def _resolve_timeout(self, payload: dict) -> float:
        timeout_s = payload.get("timeout_s", self.timeout)
        if not isinstance(timeout_s, (int, float)) or isinstance(timeout_s, bool):
            raise HttpError(400, "bad_request", "'timeout_s' must be a number")
        if timeout_s <= 0:
            raise HttpError(400, "bad_request", "'timeout_s' must be > 0")
        # Clients may tighten the budget, never widen the daemon's cap.
        return min(float(timeout_s), self.timeout)

    @staticmethod
    def _query_field(payload: dict, key: str = "query") -> str:
        query = payload.get(key)
        if not isinstance(query, str) or not query.strip():
            raise HttpError(
                400, "bad_request", f"{key!r} must be a non-empty string"
            )
        return query

    @staticmethod
    def _flag(payload: dict, key: str) -> bool:
        value = payload.get(key, False)
        if not isinstance(value, bool):
            raise HttpError(400, "bad_request", f"{key!r} must be a boolean")
        return value

    # -- warm prepared-plan map ----------------------------------------------

    def _prepared_plan(self, document: str, query: str, strategy: str):
        """The (daemon-cached) prepared plan; ``(plan, warm)``.

        A hit means the request does zero parsing, zero compilation and
        zero plan resolution -- including zero planner work once the
        ``auto`` planner froze the plan's converged choice -- which is
        the whole point of serving from one process.

        The key embeds the document's reload version, read *before* the
        engine is resolved: a reload swap (engine first, version second,
        both synchronous on the event loop) therefore can never let an
        old-engine plan land under the new version's key.
        """
        key = self._plan_key(document, query, strategy)
        with self._prepared.lock:
            entry = self._prepared.get(key)
        if entry is not None:
            self._bump("warm_hits")
            return entry.plan, True
        engine = self.workspace.engine(document)
        plan = engine.prepare(query, strategy=strategy)
        with self._prepared.lock:
            self._prepared.put(key, _Prepared(plan))
        self._bump("cold_misses")
        return plan, False

    def _plan_key(self, document: str, query: str, strategy: str) -> tuple:
        return (document, self._doc_versions.get(document, 0), query, strategy)

    def _runs_inline(
        self,
        document: str,
        query: str,
        strategy: str,
        mode: tuple,
        timeout_s: float,
    ) -> bool:
        """Whether this ``/query`` may skip the thread hop (see the
        module docstring): its plan is cached, its last run in this
        answer ``mode`` was measured under :data:`INLINE_MAX_S` and
        under the request's own budget, and nothing is in play that
        could make the next run unlike the last."""
        if faults.armed() or self._pool_routable(strategy):
            return False
        with self._prepared.lock:
            entry = self._prepared.data.get(
                self._plan_key(document, query, strategy)
            )
        if entry is None:
            return False
        cost = entry.cost_s.get(mode)
        return (
            cost is not None
            and cost < INLINE_MAX_S
            and cost < timeout_s
            and not trials_pending(entry.plan)
        )

    def _purge_prepared(self, document: str) -> int:
        """Drop every cached plan for ``document`` (any version)."""
        with self._prepared.lock:
            plans = self._prepared.data
            stale = [k for k in plans if k[0] == document]
            for k in stale:
                del plans[k]
        return len(stale)

    # -- pool-side work ------------------------------------------------------

    def _answer(
        self,
        query: str,
        strategy: str,
        result,
        *,
        count_only: bool,
        plan=None,
        with_labels: bool = False,
        with_stats: bool = False,
        **fields,
    ) -> Answer:
        """The one place a result becomes an answer: ``(envelope, ids)``.

        ``fields`` are the envelope members only the caller knows
        (``document``, ``timing_ms``, ``warm``, ``fallback``,
        ``executor``; ``None`` means absent).  The ids stay the result's
        own ``int64`` array until :func:`~repro.serve.http.encode_answer`
        writes them; a count-only answer has ``None`` and never
        materialises one.  Only the thread path has a ``plan``.
        """
        envelope = {"query": query, "strategy": strategy, "count": len(result)}
        envelope.update((k, v) for k, v in fields.items() if v is not None)
        if plan is not None:
            envelope.update(planner_fields(plan))
        if with_labels:
            # The plan's own engine, not a fresh workspace lookup: a
            # reload swap between execute and here must not label old-
            # generation ids against the new generation's tree.
            envelope["labels"] = plan.engine.labels_of(result.nodes)
        if with_stats:
            envelope["stats"] = result.stats.snapshot()
        return envelope, None if count_only else result.ids_array

    def _evaluate(
        self,
        document: str,
        query: str,
        strategy: str,
        *,
        count_only: bool,
        with_labels: bool = False,
        with_stats: bool = False,
        executor: Optional[str] = None,
        queue_ms: Optional[float] = None,
    ) -> Answer:
        """One query, start to finish, wherever the caller runs it.

        ``executor`` and ``queue_ms`` are what only the caller knows of
        the request's way here; they are reported, not acted on.

        An unexpected exception from the chosen strategy is retried
        exactly once on the ``naive`` reference path (the correctness
        oracle); only if that also fails does the request fail -- and
        count toward the document's quarantine streak.  Syntax errors
        and structured HTTP errors pass straight through: they are the
        client's problem, not the document's.
        """
        t0 = time.perf_counter()
        if (
            not with_labels
            and self._pool_routable(strategy)
            and self.workspace.engine(document).tree.n >= self.pool_min_nodes
        ):
            # An oversized document: let the pool shard it across worker
            # processes.  (Labelled requests stay on-thread -- labels
            # must come from the same engine that produced the ids.)
            results = self._pool_results(document, [query])
            if results is not None:
                return self._answer(
                    query,
                    strategy,
                    results[0],
                    count_only=count_only,
                    with_stats=with_stats,
                    document=document,
                    executor="pool",
                    timing_ms=self._timing(
                        queue_ms, total=_ms(t0, time.perf_counter())
                    ),
                )
            t0 = time.perf_counter()
        plan, warm = self._prepared_plan(document, query, strategy)
        t1 = time.perf_counter()
        fallback = None
        try:
            faults.check("serve.evaluate", document=document, strategy=strategy)
            result = plan.execute()
        except (HttpError, XPathSyntaxError):
            raise
        except Exception as primary:
            if strategy == FALLBACK_STRATEGY:
                self._note_eval_failure(document, primary)
                raise HttpError(
                    500,
                    "evaluation_failed",
                    f"evaluation failed on the reference path: "
                    f"{type(primary).__name__}: {primary}",
                    {"document": document, "strategy": strategy},
                ) from primary
            self._bump("fallbacks")
            try:
                plan, _ = self._prepared_plan(
                    document, query, FALLBACK_STRATEGY
                )
                faults.check(
                    "serve.evaluate",
                    document=document,
                    strategy=FALLBACK_STRATEGY,
                )
                result = plan.execute()
            except (HttpError, XPathSyntaxError):
                raise
            except Exception as secondary:
                self._note_eval_failure(document, secondary)
                raise HttpError(
                    500,
                    "evaluation_failed",
                    f"evaluation failed ({type(primary).__name__}: "
                    f"{primary}); reference-path retry also failed "
                    f"({type(secondary).__name__}: {secondary})",
                    {"document": document, "strategy": strategy},
                ) from secondary
            self._bump("fallback_successes")
            fallback = FALLBACK_STRATEGY
        self._note_eval_success(document)
        t2 = time.perf_counter()
        return self._answer(
            query,
            plan.strategy.name,
            result,
            count_only=count_only,
            plan=plan,
            with_labels=with_labels,
            with_stats=with_stats,
            document=document,
            warm=warm,
            fallback=fallback,
            executor=executor,
            timing_ms=self._timing(
                queue_ms,
                prepare=_ms(t0, t1),
                execute=_ms(t1, t2),
                total=_ms(t0, t2),
            ),
        )

    @staticmethod
    def _timing(queue_ms: Optional[float], **timing: float) -> dict:
        """``timing_ms``, with ``queue`` where the caller measured one."""
        if queue_ms is not None:
            timing["queue"] = queue_ms
        return timing

    def _query_body(
        self,
        document: str,
        query: str,
        strategy: str,
        flags: Dict[str, bool],
        admitted: Optional[float] = None,
    ) -> bytes:
        """The worker-side function of ``/query``: evaluate, encode.

        ``admitted`` is when the request passed admission if it then
        hopped to a worker thread, ``None`` when it runs inline.  The
        function times itself and leaves the result with the plan --
        also when it fails, or ran the slow reference path -- which is
        all :meth:`_runs_inline` goes by next time.
        """
        start = time.perf_counter()
        inline = admitted is None
        try:
            return encode_answer(
                *self._evaluate(
                    document,
                    query,
                    strategy,
                    executor="inline" if inline else "thread",
                    queue_ms=0.0 if inline else _ms(admitted, start),
                    **flags,
                )
            )
        finally:
            cost = time.perf_counter() - start
            with self._prepared.lock:
                entry = self._prepared.data.get(
                    self._plan_key(document, query, strategy)
                )
            if entry is not None:
                entry.cost_s[tuple(flags.values())] = cost

    def _pool_routable(self, strategy: str) -> bool:
        """Whether this request may run on the shared-memory pool.

        The pool's workers were built with the workspace strategy; a
        request overriding the strategy keeps the thread path.
        """
        return (
            self._pool_service is not None
            and strategy == self.workspace.strategy
        )

    def _pool_results(self, document: str, queries: List[str]) -> Optional[list]:
        """``queries`` on the worker pool (one submit, dynamic stealing):
        their results in order, or ``None`` after pool trouble (worker
        died twice, pool closing mid-request) -- which must degrade to
        the caller's thread path, never fail the client."""
        try:
            batch = self._pool_service._run_batch([document], queries)[document]
        except (HttpError, XPathSyntaxError):
            raise
        except Exception:
            self._bump("pool_fallbacks")
            return None
        self._note_eval_success(document)
        self._bump("pool_queries", len(batch))
        return [batch[query] for query in queries]

    def _evaluate_batch(
        self,
        document: str,
        queries: List[str],
        strategy: str,
        *,
        count_only: bool,
    ) -> Tuple[dict, None, List[Answer]]:
        """A whole batch as :func:`encode_answer` takes it: ``(envelope,
        None, one answer per query)`` -- from the worker pool when
        routable, else query by query right here."""
        t0 = time.perf_counter()
        envelope = {"document": document}
        results = (
            self._pool_results(document, queries)
            if self._pool_routable(strategy)
            else None
        )
        if results is not None:
            self._bump("pool_batches")
            envelope["executor"] = "pool"
            answers = [
                self._answer(query, strategy, result, count_only=count_only)
                for query, result in zip(queries, results)
            ]
        else:
            answers = [
                self._evaluate(document, query, strategy, count_only=count_only)
                for query in queries
            ]
            for entry, _ids in answers:
                del entry["document"]
        envelope["timing_ms"] = {"total": _ms(t0, time.perf_counter())}
        return envelope, None, answers

    def _explain(self, document: str, query: str, strategy: str) -> dict:
        plan, warm = self._prepared_plan(document, query, strategy)
        payload = {
            "document": document,
            "query": query,
            "strategy": plan.strategy.name,
            "warm": warm,
            "text": plan.explain(),
        }
        payload.update(planner_fields(plan))
        return payload

    # -- admission + timeout -------------------------------------------------

    async def _admit(self, fn, timeout_s: float, *, inline: bool = False):
        """Run ``fn`` under admission control and a deadline: on the
        pool, or -- ``inline`` -- right here.

        Runs on the event loop, whose single thread makes the
        check-then-increment on :attr:`_in_flight` race-free without a
        lock.
        """
        if self._in_flight >= self.admission_limit:
            self._bump("rejected")
            raise HttpError(
                429,
                "overloaded",
                f"{self._in_flight} requests in flight "
                f"(limit {self.admission_limit}); retry later",
                {"limit": self.admission_limit},
            )
        self._in_flight += 1
        # Tag the request with the current reload epoch so a concurrent
        # reload knows when everything that may touch the old engines
        # has left the building (see :meth:`reload`).
        epoch = self._epoch
        self._epoch_inflight[epoch] = self._epoch_inflight.get(epoch, 0) + 1
        try:
            if inline:
                start = time.perf_counter()
                result = fn()
                if time.perf_counter() - start <= timeout_s:
                    return result
                # Too late to be an answer; fn recorded its cost, so
                # the next request for this plan takes the thread path.
            else:
                loop = asyncio.get_running_loop()
                future = loop.run_in_executor(self._pool, fn)
                try:
                    return await asyncio.wait_for(future, timeout_s)
                except asyncio.TimeoutError:
                    # wait_for already cancelled the future: a still-
                    # queued task never runs; one mid-execution finishes
                    # on its worker thread and the result is dropped.
                    pass
            self._bump("timeouts")
            raise HttpError(
                504,
                "timeout",
                f"request exceeded its {timeout_s}s budget",
                {"timeout_s": timeout_s},
            )
        finally:
            self._in_flight -= 1
            left = self._epoch_inflight.get(epoch, 1) - 1
            if left > 0:
                self._epoch_inflight[epoch] = left
            else:
                self._epoch_inflight.pop(epoch, None)

    # -- hot reload ----------------------------------------------------------

    def _reload_prepare(self) -> dict:
        """Blocking half of a reload: diff the disk, open new bundles.

        Runs on a plain executor thread (never the query pool, whose
        slots a saturated daemon may not free while the reload holds its
        lock) while the event loop keeps serving the old generation.
        Returns everything the synchronous swap needs: freshly opened
        :class:`StoredDocument` handles for added/changed bundles, the
        removal list, the new skip map, mount/stamp/manifest snapshots.
        Nothing daemon-visible is mutated here.
        """
        mounted = dict(self._mounted_info)
        desired: Dict[str, dict] = {}
        new_skipped: Dict[str, dict] = {}
        stamps: Dict[str, Optional[int]] = {}
        generations: Dict[str, int] = {}
        stores: Dict[str, DocumentStore] = {}
        for store_dir in self._store_dirs:
            stamps[store_dir] = corpus_stamp(store_dir)
            store = DocumentStore(store_dir)
            stores[store_dir] = store
            manifest = read_manifest(store_dir)
            generations[store_dir] = manifest.generation
            for name in store.names():
                if name in desired:
                    new_skipped[name] = {
                        "store": store_dir,
                        "error": (
                            f"duplicate bundle name (already mounted from "
                            f"{desired[name]['store']!r})"
                        ),
                    }
                    continue
                entry = manifest.documents.get(name) or {}
                desired[name] = {
                    "store": store_dir,
                    "identity": bundle_identity(store.path_for(name)),
                    "generation": entry.get("generation"),
                    "fingerprint": entry.get("fingerprint"),
                }
        opened: Dict[str, object] = {}
        added: List[str] = []
        replaced: List[str] = []
        unchanged: List[str] = []
        try:
            for name, info in desired.items():
                current = mounted.get(name)
                if current is None:
                    kind = added
                elif current["identity"] != info["identity"]:
                    kind = replaced
                else:
                    unchanged.append(name)
                    continue
                try:
                    opened[name] = stores[info["store"]].open(
                        name, mmap=self.mmap
                    )
                except (StoreError, OSError) as exc:
                    new_skipped[name] = {
                        "store": info["store"],
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                    continue
                kind.append(name)
        except BaseException:
            for document in opened.values():
                document.close()
            raise
        removed = sorted(set(mounted) - set(desired))
        return {
            "desired": desired,
            "opened": opened,
            "added": added,
            "replaced": replaced,
            "removed": removed,
            "unchanged": unchanged,
            "skipped": new_skipped,
            "stamps": stamps,
            "generations": generations,
        }

    async def reload(self) -> dict:
        """Re-mount every corpus at its current generation, atomically.

        The daemon keeps answering throughout: the disk diff and bundle
        opens run off-loop (:meth:`_reload_prepare`); the swap itself --
        engines into the workspace, per-document plan purge + version
        bump, quarantine/streak reset, mount-table update -- happens
        synchronously on the event loop, so no request ever observes a
        half-swapped state.  The old generation's mmaps close only
        after every request admitted before the swap has drained (the
        epoch counts from :meth:`_admit`); a straggler that outlives the
        drain budget merely defers its mmap close to its final array
        reference (:meth:`repro.store.StoredDocument.close` tolerates
        pinned exports), it can never crash.

        Single-flight: concurrent ``POST /reload`` requests serialize on
        a lock, each performing its own (by then usually no-op) pass.
        Returns the structured change report ``/reload`` answers with.
        """
        if self._draining:
            raise HttpError(
                503, "shutting_down", "daemon is draining; reload refused"
            )
        async with self._reload_lock:
            t0 = time.perf_counter()
            loop = asyncio.get_running_loop()
            try:
                prepared = await loop.run_in_executor(
                    None, self._reload_prepare
                )
            except BaseException as exc:
                self._bump("reload_failures")
                raise HttpError(
                    500,
                    "reload_failed",
                    f"reload failed: {type(exc).__name__}: {exc}",
                ) from exc
            desired = prepared["desired"]
            opened = prepared["opened"]
            changed = sorted(
                set(prepared["added"])
                | set(prepared["replaced"])
                | set(prepared["removed"])
            )
            # -- synchronous swap: no awaits until the epoch bump ------
            superseded: List[object] = []
            for name, document in opened.items():
                if name in self.workspace:
                    old = self.workspace.swap_stored(name, document)
                else:
                    self.workspace.add_stored(name, document)
                    old = None
                if old is not None:
                    superseded.append(old)
            for name in prepared["removed"]:
                old = self.workspace.pop_stored(name)
                if old is not None:
                    superseded.append(old)
            for name in changed:
                self._purge_prepared(name)
                self._doc_versions[name] = (
                    self._doc_versions.get(name, 0) + 1
                )
                if name in self.workspace:
                    # Re-plan any cached ``auto`` plans against the new
                    # bundle's statistics.  A swap installs a fresh
                    # engine (empty plan cache), so today this is a
                    # no-op guard; it exists so a future in-place delta
                    # update -- which mutates an engine instead of
                    # swapping it -- cannot leave frozen planner
                    # verdicts keyed to the old document's shape.
                    self.workspace.engine(name).refresh_planner()
                with self._counters_lock:
                    self._doc_failures.pop(name, None)
                    self._quarantined.pop(name, None)
                if name not in desired or name in prepared["skipped"]:
                    self._mounted_info.pop(name, None)
                else:
                    self._mounted_info[name] = desired[name]
            self.skipped = prepared["skipped"]
            self.mounts = {
                store_dir: sorted(
                    name
                    for name, info in self._mounted_info.items()
                    if info["store"] == store_dir
                )
                for store_dir in self._store_dirs
            }
            self._stamps = prepared["stamps"]
            old_epoch = self._epoch
            self._epoch += 1
            # -- drain the old epochs, then close the old generation ---
            drained = True
            if superseded:
                deadline = time.monotonic() + self.timeout

                def older_inflight() -> int:
                    return sum(
                        count
                        for epoch, count in self._epoch_inflight.items()
                        if epoch <= old_epoch
                    )

                while older_inflight() > 0:
                    if time.monotonic() >= deadline:
                        drained = False
                        break
                    await asyncio.sleep(0.005)
                for document in superseded:
                    document.close()
            report = {
                "reloaded": bool(changed),
                "added": sorted(prepared["added"]),
                "replaced": sorted(prepared["replaced"]),
                "removed": prepared["removed"],
                "unchanged": sorted(prepared["unchanged"]),
                "skipped": {
                    name: info["error"]
                    for name, info in prepared["skipped"].items()
                },
                "generations": prepared["generations"],
                "drained": drained,
                "duration_ms": round(
                    (time.perf_counter() - t0) * 1000.0, 3
                ),
            }
            self._bump("reloads" if changed else "reload_noops")
            self._last_reload = report
            return report

    async def _reload_poll_loop(self) -> None:
        """Watch each corpus' change stamp; reload when one moves."""
        while True:
            await asyncio.sleep(self.reload_poll)
            if self._draining:
                return
            loop = asyncio.get_running_loop()
            stamps = await loop.run_in_executor(
                None,
                lambda: {d: corpus_stamp(d) for d in self._store_dirs},
            )
            if stamps == self._stamps:
                continue
            try:
                await self.reload()
            except HttpError as exc:
                print(
                    f"warning: polled reload failed: {exc.message}",
                    file=sys.stderr,
                )

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, request: Request) -> Tuple[int, Body]:
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET")
            status = (
                "draining" if self._draining else self.health_status()
            )
            return 200, {
                "ok": status == "ok",
                "status": status,
                "documents": self.documents(),
                "quarantined": sorted(self.quarantined()),
                "skipped": {
                    name: info["error"] for name, info in self.skipped.items()
                },
                "uptime_s": round(time.monotonic() - self._started, 3),
            }
        if path == "/stats":
            self._require(method, "GET")
            return 200, self.stats()
        if self._draining:
            # Evaluation endpoints refuse new work during the drain;
            # probes above keep answering so orchestration can watch.
            self._bump("drain_rejects")
            raise HttpError(
                503, "shutting_down", "daemon is draining; connection closing"
            )
        if path == "/reload":
            # Not pool-admitted: a reload waits for admitted requests
            # to drain, so counting it among them would deadlock.
            self._require(method, "POST")
            return 200, await self.reload()
        if path == "/query":
            self._require(method, "POST")
            payload = request.json()
            name, _ = self._resolve_document(payload.get("document"))
            strategy = self._resolve_strategy(payload)
            query = self._query_field(payload)
            flags = {
                "count_only": self._flag(payload, "count"),
                "with_labels": self._flag(payload, "labels"),
                "with_stats": self._flag(payload, "stats"),
            }
            timeout_s = self._resolve_timeout(payload)
            self._bump("queries")
            inline = self._runs_inline(
                name, query, strategy, tuple(flags.values()), timeout_s
            )
            admitted = None if inline else time.perf_counter()
            body = await self._admit(
                lambda: self._query_body(
                    name, query, strategy, flags, admitted
                ),
                timeout_s,
                inline=inline,
            )
            # "threaded": took the hop -- pool-routed answers included,
            # which the pool's own counters tell apart.
            self._bump("inline" if inline else "threaded")
            return 200, body
        if path == "/batch":
            self._require(method, "POST")
            payload = request.json()
            name, _ = self._resolve_document(payload.get("document"))
            strategy = self._resolve_strategy(payload)
            queries = payload.get("queries")
            if (
                not isinstance(queries, list)
                or not queries
                or not all(isinstance(q, str) and q.strip() for q in queries)
            ):
                raise HttpError(
                    400,
                    "bad_request",
                    "'queries' must be a non-empty list of query strings",
                )
            count_only = self._flag(payload, "count")
            timeout_s = self._resolve_timeout(payload)
            self._bump("batches")
            self._bump("batch_queries", len(queries))
            return 200, await self._admit(
                lambda: encode_answer(
                    *self._evaluate_batch(
                        name, queries, strategy, count_only=count_only
                    )
                ),
                timeout_s,
            )
        if path == "/explain":
            self._require(method, "GET")
            params = request.params
            name, _ = self._resolve_document(params.get("document"))
            strategy = self._resolve_strategy(params)
            query = self._query_field(params)
            self._bump("explains")
            out = await self._admit(
                lambda: self._explain(name, query, strategy), self.timeout
            )
            return 200, out
        raise HttpError(
            404,
            "not_found",
            f"no route {path!r}",
            {
                "routes": [
                    "/query",
                    "/batch",
                    "/explain",
                    "/reload",
                    "/stats",
                    "/healthz",
                ]
            },
        )

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise HttpError(
                405, "method_not_allowed", f"use {expected}, not {method}"
            )

    def stats(self) -> dict:
        """The ``GET /stats`` payload (also handy in-process)."""
        with self._counters_lock:
            counters = dict(self.counters)
            quarantined = {
                name: dict(info) for name, info in self._quarantined.items()
            }
            failure_streaks = dict(self._doc_failures)
        with self._prepared.lock:
            prepared = self._prepared.cache_info()
        answered = max(
            1, counters["queries"] + counters["batch_queries"]
        )
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "strategy": self.workspace.strategy,
            "health": {
                "status": (
                    "draining" if self._draining else self.health_status()
                ),
                "fail_threshold": self.fail_threshold,
                "quarantined": quarantined,
                "failure_streaks": failure_streaks,
                "skipped": {
                    name: dict(info) for name, info in self.skipped.items()
                },
            },
            "errors": {
                "eval_failures": counters["eval_failures"],
                "fallbacks": counters["fallbacks"],
                "fallback_successes": counters["fallback_successes"],
                "quarantine_rejects": counters["quarantine_rejects"],
                "internal_errors": counters["internal_errors"],
                "error_rate": round(counters["eval_failures"] / answered, 6),
            },
            "admission": {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "limit": self.admission_limit,
                "in_flight": self._in_flight,
            },
            "timeout_s": self.timeout,
            "documents": {
                name: {"nodes": self.workspace.engine(name).tree.n}
                for name in self.documents()
            },
            "mounts": {path: names for path, names in self.mounts.items()},
            "reload": {
                "reloads": counters["reloads"],
                "noops": counters["reload_noops"],
                "failures": counters["reload_failures"],
                "poll_s": self.reload_poll,
                "epoch": self._epoch,
                "generations": {
                    name: {
                        "generation": info["generation"],
                        "fingerprint": info["fingerprint"],
                    }
                    for name, info in sorted(self._mounted_info.items())
                },
                "last": self._last_reload,
            },
            "pool": (
                {
                    "enabled": True,
                    "workers": self.pool_workers,
                    "min_nodes": self.pool_min_nodes,
                    "batches": counters["pool_batches"],
                    "queries": counters["pool_queries"],
                    "fallbacks": counters["pool_fallbacks"],
                    # Queue depth, in-flight, steals, warm-hit rate,
                    # respawns/retries, per-worker task counts.
                    "health": self._pool_service.pool_stats(),
                }
                if self._pool_service is not None
                else {"enabled": False}
            ),
            "counters": counters,
            "prepared": prepared,
            "caches": self.workspace.cache_info(),
        }

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body=self.max_body, writer=writer
                    )
                except HttpError as exc:
                    # The stream is unparseable past this point: answer
                    # and drop the connection.
                    self._bump("bad_requests")
                    await send_response(
                        writer, exc.status, exc.to_payload(), keep_alive=False
                    )
                    return
                if request is None:
                    return
                self._bump("requests")
                # _requests_open covers read-to-written, so the drain in
                # stop() never closes a socket between a worker finishing
                # and its response leaving the process.
                self._requests_open += 1
                try:
                    status, payload = await self._respond(request)
                    keep_alive = request.keep_alive and not self._draining
                    await send_response(
                        writer, status, payload, keep_alive=keep_alive
                    )
                finally:
                    self._requests_open -= 1
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: the loop is shutting down mid-close;
                # the transport is torn down with it either way.
                pass

    async def _respond(self, request: Request) -> Tuple[int, Body]:
        """Dispatch one request; every failure becomes structured JSON."""
        try:
            return await self._dispatch(request)
        except HttpError as exc:
            if exc.status == 400 and exc.kind == "bad_request":
                self._bump("bad_requests")
            return exc.status, exc.to_payload()
        except XPathSyntaxError as exc:
            # The same offset-carrying payload the CLI renders a caret
            # from -- satellite and daemon share one error type.
            self._bump("syntax_errors")
            return 400, {"error": exc.to_dict()}
        except Exception:
            self._bump("internal_errors")
            traceback.print_exc(file=sys.stderr)
            return 500, {
                "error": {
                    "kind": "internal",
                    "message": "internal error (see daemon log)",
                }
            }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (updates :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.reload_poll > 0:
            self._poll_task = asyncio.create_task(self._reload_poll_loop())

    async def stop(self, *, drain_timeout: Optional[float] = None) -> None:
        """Graceful shutdown: drain, then tear down.

        Stops accepting new connections and new evaluation work
        (in-progress reads answer ``503 shutting_down``), then waits up
        to ``drain_timeout`` (default: the per-request budget, which
        upper-bounds every in-flight request anyway -- each either
        finishes or gets its own ``504``) for open requests to be fully
        *written back*, closes surviving keep-alive connections, shuts
        the worker pool down (cancelling anything still queued), and
        releases every mmap handle.
        """
        self._draining = True
        poll_task, self._poll_task = self._poll_task, None
        if poll_task is not None:
            poll_task.cancel()
            try:
                await poll_task
            except (asyncio.CancelledError, Exception):
                pass
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        budget = self.timeout if drain_timeout is None else drain_timeout
        deadline = time.monotonic() + budget
        while self._requests_open > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        drained = self._requests_open == 0
        # Idle keep-alive connections (and, past the deadline, any
        # stragglers) are torn down; their handler tasks exit on the
        # resulting connection error.
        for writer in list(self._connections):
            writer.close()
        self._pool.shutdown(wait=drained, cancel_futures=True)
        # Workspace.close() shuts every QueryService -- including the
        # shared-memory worker pool, whose processes are joined (or
        # terminated past the timeout): no orphans after a drain.
        self.workspace.close()

    async def run_async(self, ready=None) -> None:
        """Start, optionally announce, and serve until cancelled/signalled."""
        await self.start()
        if ready is not None:
            ready(self)
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        try:
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop_event.set)
        except (ImportError, NotImplementedError, RuntimeError):
            pass  # e.g. non-main thread; callers cancel instead
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    def run(self, ready=None) -> None:
        """Blocking entry point (what ``repro serve`` calls)."""
        try:
            asyncio.run(self.run_async(ready=ready))
        except KeyboardInterrupt:
            pass


class DaemonThread:
    """Run a :class:`QueryDaemon` on a background thread.

    The tests use this to get a live daemon inside one process::

        with DaemonThread(QueryDaemon(store_dir)) as handle:
            client = ServeClient(port=handle.port)
            ...

    ``start()`` returns once the daemon is accepting connections (or
    re-raises its startup failure); ``stop()`` shuts it down cleanly
    from the calling thread.
    """

    def __init__(self, daemon: QueryDaemon) -> None:
        self.daemon = daemon
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.daemon.port

    def start(self) -> "DaemonThread":
        if self._thread is not None:
            raise RuntimeError("daemon thread already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-serve-daemon",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    async def _main(self) -> None:
        try:
            await self.daemon.start()
        except BaseException as exc:  # surfaced to start()'s caller
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.daemon.stop()

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
