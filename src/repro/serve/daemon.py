"""The persistent query daemon: warm engine state behind asyncio HTTP.

:class:`QueryDaemon` is the long-running counterpart of the one-shot
CLI.  It mounts one or more :class:`~repro.store.DocumentStore` corpora
through the zero-copy mmap reopen path, one engine per document, and
keeps everything the single-shot paths throw away hot across requests:
the shared compiled-automaton cache, each engine's prepared-plan LRU and
the fused label-union caches.  A repeated ``POST /query`` finds its plan
in the engine's own cache -- the only plan cache there is -- and goes
straight to execution (the response's ``warm`` flag and ``timing_ms``
breakdown make that observable, and ``GET /stats`` exposes every
cache's counters).

Each decision the daemon makes has one owner:

- :mod:`repro.serve.mounts` -- which bundles are mounted, at start-up
  and on every hot reload, and the one record per document: its open
  handle, its engine and its health;
- :mod:`repro.serve.admission` -- how many requests run at once, on a
  worker thread or the event loop, under which deadline, and when a
  reload's old generation has drained;
- this module -- what a request means (the route table and payload
  parsing), where a ``/query`` runs, and what happens when evaluation
  fails.

Endpoints: ``POST /query`` (one query), ``POST /batch`` (a list, one
admission slot), ``GET /explain`` (resolved strategy + the kernel's
per-step operators), ``POST /reload`` (re-mount every corpus at its current
generation; ``reload_poll`` does the same from a change-stamp poller),
``GET /stats``, ``GET /healthz``.  Errors are structured JSON
(``{"error": {"kind", "message", ...}}``); malformed XPath answers
``400`` with the parser's offset-carrying payload
(:meth:`repro.xpath.parser.XPathSyntaxError.to_dict`).

Every request is answered in this process, over one
``asyncio.Protocol`` per connection
(:class:`~repro.serve.http.Connection`): the read callback parses what
has arrived and hands each request to :meth:`QueryDaemon.serve`.
Where a ``/query`` runs -- every response says (``"executor"``):

- ``"thread"``: on the worker-thread executor, like every ``/batch``
  and ``/explain``; ``timing_ms.queue`` is admission to function start.
  Such a request, like every ``/batch``, ``/explain`` and ``/reload``,
  is one asyncio Task, and its connection parses nothing more until the
  answer is written, so answers leave in the order they were asked
  (``/stats``, ``/healthz`` and every refusal are answered in the read
  callback).
- ``"inline"``: answered in the read callback itself -- parsed,
  resolved, executed, encoded and written with no Task, coroutine or
  thread hop -- when its plan is cached and the daemon has *measured*
  the plan's whole worker-side function (evaluate + encode, for this
  answer mode) at under :data:`INLINE_MAX_S` the last time it ran.
  The measurement lives with the plan
  (``plan.artifacts``), so whatever forgets the plan -- a reload
  swapping the engine, an LRU eviction, a registry change -- forgets it
  too and the next request takes the thread again; so does any request
  while a fault plan is armed or whose own ``timeout_s`` is below the
  measurement.  An inline run that comes out slow records that, and the
  plan goes back to the executor.

There is no worker-process route: under ``auto`` shipping a served
query to a pool process and its ids back cost more than answering it
here, on every document size measured (DESIGN.md, "Persistent worker
pool").

Executions of one plan are serialized by the plan's own lock
(:meth:`~repro.engine.plan.PreparedQuery.execute`), so concurrent
identical queries stay correct; distinct queries run concurrently.

When evaluation fails, the daemon degrades instead of dying: an
unexpected exception retries the request once on the ``naive``
fallback (the automaton's plain full traversal: no jumping, no memo
tables, no set-at-a-time kernel; the response carries
``"fallback": "naive"``), and ``fail_threshold`` *consecutive*
ultimately-failed evaluations quarantine the document
(:class:`~repro.serve.mounts.Mount`) -- further requests answer a
structured ``503 quarantined`` without touching the engine,
``/healthz`` flips to ``degraded``, healthy documents keep serving.

Shutdown (SIGTERM/SIGINT, :meth:`QueryDaemon.request_stop`) is a
graceful drain: :meth:`QueryDaemon.stop`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import suppress
from functools import partial
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.engine import registry
from repro.engine.api import Engine
from repro.engine.plan import PreparedQuery
from repro.engine.planner import explain_fields, planner_fields
from repro.serve.admission import Admission
from repro.serve.http import (
    FRAME_MAGIC,
    Answer,
    Body,
    Connection,
    HttpError,
    Request,
    encode_answer,
)
from repro.serve.mounts import Mount, MountTable
from repro.xpath.compiler import XPathCompileError
from repro.xpath.parser import XPathSyntaxError

#: Default admission queue depth beyond the worker threads.
QUEUE_DEPTH = 16
#: Default per-request timeout in seconds.
TIMEOUT_S = 30.0
#: Consecutive ultimately-failed evaluations before a document is
#: quarantined (0 disables quarantine).
FAIL_THRESHOLD = 3
#: The strategy a failed evaluation is retried on, once, before giving
#: up -- the automaton's plain full traversal: no jumping, no memo
#: tables, no set-at-a-time kernel.
FALLBACK_STRATEGY = "naive"
#: Failures that are the client's problem, not the document's: they pass
#: through every retry and fallback untouched and answer a structured 4xx.
CLIENT_ERRORS = (HttpError, XPathSyntaxError, XPathCompileError)
#: Seconds between corpus change-stamp polls (0 disables polling; the
#: explicit ``POST /reload`` endpoint always works).
RELOAD_POLL_S = 0.0
#: A ``/query`` whose worker-side function last took less than this many
#: seconds is answered in the read callback instead of hopping to a
#: worker thread.
#: A constant, not an option: it is not a preference but a bound on how
#: long the loop may be held, and the interpreter already sets the scale
#: -- a worker thread running Python code keeps the GIL, and so holds the
#: loop off, for up to the 5 ms switch interval.  1 ms stays well inside
#: what every connection already tolerates, while the hop it saves
#: (0.1-0.2 ms) is a third of a request this cheap.
INLINE_MAX_S = 0.001
#: Where, in ``plan.artifacts``, a plan keeps what its ``/query``
#: worker-side function last cost: ``{answer mode: seconds}``.
COST_KEY = "serve.cost_s"
#: Every key of ``counters`` (``GET /stats``), all starting at zero.
COUNTERS = (
    "requests", "queries", "batches", "batch_queries", "explains",
    "rejected", "timeouts", "syntax_errors", "bad_requests",
    "internal_errors", "warm_hits", "cold_misses", "eval_failures",
    "fallbacks", "fallback_successes", "quarantine_rejects",
    "drain_rejects", "reloads", "reload_noops", "reload_failures",
    "inline", "threaded", "framed",
)  # fmt: skip


def _ms(start: float, end: float) -> float:
    """A ``perf_counter`` interval as ``timing_ms`` reports it."""
    return round((end - start) * 1000.0, 4)


def _query_field(fields: dict) -> str:
    query = fields.get("query")
    if not isinstance(query, str) or not query.strip():
        raise HttpError(400, "bad_request", "'query' must be a non-empty string")
    return query


def _flag(payload: dict, key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise HttpError(400, "bad_request", f"{key!r} must be a boolean")
    return value


class QueryDaemon:
    """A long-lived HTTP/JSON query service over store corpora.

    Parameters
    ----------
    stores:
        One corpus directory, or a sequence of them.  Every bundle of
        every directory is mounted by its bundle name.  A name two
        directories share, or no usable bundle at all, fails start-up
        (``ValueError``); a corrupt bundle is skipped with a warning on
        stderr and retried on every reload.
    strategy:
        The evaluation strategy of every mounted document (default
        ``auto``, the set-at-a-time kernel); a request may name another.
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
    mmap:
        Map bundle arrays (the default) instead of reading them.
    max_body:
        Largest request body accepted, in bytes (``413`` beyond it).
    fail_threshold:
        Consecutive ultimately-failed evaluations (the ``naive``
        fallback included) before a document is quarantined; ``0``
        disables quarantine.
    reload_poll:
        Seconds between corpus change-stamp checks; when a stamp moves,
        the daemon reloads itself exactly as ``POST /reload`` would.
        ``0`` (the default) disables polling -- the endpoint is always
        available either way.
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
        fail_threshold: int = FAIL_THRESHOLD,
        reload_poll: float = RELOAD_POLL_S,
    ) -> None:
        if isinstance(stores, str):
            stores = [stores]
        if not stores:
            raise ValueError("at least one store directory is required")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        for name, value in (
            ("queue_depth", queue_depth),
            ("fail_threshold", fail_threshold),
            ("reload_poll", reload_poll),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.workers = max(1, workers if workers is not None else (os.cpu_count() or 1))
        self.queue_depth = queue_depth
        self.max_body = max_body
        self.fail_threshold = fail_threshold
        self.reload_poll = reload_poll
        self.mounts = MountTable(stores, strategy, mmap)
        # The first mount is a reload from the empty state, with this
        # policy on top: what a reload would skip and carry on without
        # is, for a name two stores share or a corpus with nothing
        # usable, a configuration error here.
        found = self.mounts.scan()
        problem = None
        if found.duplicates:
            name = found.duplicates[0]
            problem = (
                f"document {name!r} already registered: "
                f"{found.skipped[name]['error']}"
            )
        elif not found.opened:
            problem = (
                f"no document bundles usable in {list(stores)!r} "
                f"({len(found.skipped)} corrupt bundle(s) skipped)"
            )
        if problem is not None:
            found.close()
            raise ValueError(problem)
        for name, info in found.skipped.items():
            print(
                f"warning: skipping corrupt bundle {name!r} in "
                f"{info['store']}: {info['error']}",
                file=sys.stderr,
            )
        self.mounts.install(found)
        self._threads = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self.admission = Admission(
            self.workers + queue_depth, self._threads, self._bump
        )
        # Touched from the event-loop thread only.
        self._draining = False
        self._reload_lock = asyncio.Lock()
        self._poll_task: Optional[asyncio.Task] = None
        self._last_reload: Optional[dict] = None
        #: The open :class:`~repro.serve.http.Connection` objects.
        self.connections: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        #: Wakes :meth:`run_async` from any thread, while it is waiting.
        self._stop_request: Optional[Callable[[], object]] = None
        self._started = time.monotonic()
        # Counters are bumped from worker threads and the event loop
        # alike; one lock keeps them exact.
        self._counters_lock = threading.Lock()
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)

    # -- derived views -------------------------------------------------------

    _in_flight = property(lambda self: self.admission.in_flight)
    strategy = property(lambda self: self.mounts.strategy)
    #: Stopping: refusing new work, and keeping no connection alive.
    draining = property(lambda self: self._draining)

    @property
    def skipped(self) -> Dict[str, dict]:
        """Bundles the last mount could not use, name -> detail."""
        return self.mounts.skipped

    def documents(self) -> List[str]:
        return list(self.mounts.records)

    def _bump(self, *counters: str) -> None:
        """Add one to each of ``counters`` (a name may repeat), under
        one acquisition of the lock."""
        with self._counters_lock:
            for counter in counters:
                self.counters[counter] += 1

    def _counted(self, fn: Callable, *args):
        """``fn(*args, tally)`` with a fresh ``tally`` of counter names,
        bumped when it returns or raises: how a function on a worker
        thread counts what it did."""
        tally: List[str] = []
        try:
            return fn(*args, tally)
        finally:
            self._bump(*tally)

    # -- health --------------------------------------------------------------

    def quarantined(self) -> Dict[str, dict]:
        """Quarantined documents and why (a snapshot)."""
        return {
            mount.name: dict(info)
            for mount in list(self.mounts.records.values())
            if (info := mount.quarantine) is not None
        }

    def health_status(self) -> str:
        """``draining``, or ``degraded`` when anything is quarantined or
        skipped, or ``ok``."""
        return (
            "draining"
            if self._draining
            else "degraded"
            if self.skipped or self.quarantined()
            else "ok"
        )

    def unquarantine(self, document: str) -> bool:
        """Lift a quarantine (operator override / after a repair)."""
        mount = self.mounts.records.get(document)
        return mount is not None and mount.lift()

    # -- request-payload helpers ---------------------------------------------

    def _target(
        self, fields: dict, tally: List[str]
    ) -> Tuple[Mount, Engine, str, float]:
        """What ``/query``, ``/batch`` and ``/explain`` all name: the
        document (defaulting to a single mounted one) as its record and
        engine, the strategy, and the request's budget in seconds."""
        name = fields.get("document")
        if name is not None and not isinstance(name, str):
            raise HttpError(400, "bad_request", "'document' must be a string")
        if name is None and len(self.mounts.records) == 1:
            (name,) = self.mounts.records
        mount = self.mounts.records.get(name)
        if mount is None:
            docs = self.documents()
            if name is None:
                raise HttpError(
                    400,
                    "bad_request",
                    "'document' is required when several are mounted",
                    {"documents": docs},
                )
            raise HttpError(
                404,
                "unknown_document",
                f"no document {name!r}",
                {"documents": docs},
            )
        info = mount.quarantine
        if info is not None:
            tally.append("quarantine_rejects")
            raise HttpError(
                503,
                "quarantined",
                f"document {name!r} is quarantined after "
                f"{info['failures']} consecutive evaluation failures",
                {"document": name, "detail": dict(info)},
            )
        strategy = fields.get("strategy", self.strategy)
        if not isinstance(strategy, str) or not registry.is_registered(strategy):
            raise HttpError(
                400,
                "bad_request",
                f"unknown strategy {strategy!r}",
                {"strategies": registry.strategy_names()},
            )
        timeout_s = fields.get("timeout_s", self.timeout)
        if (
            isinstance(timeout_s, bool)
            or not isinstance(timeout_s, (int, float))
            or not 0 < timeout_s < float("inf")  # NaN: false both ways
        ):
            raise HttpError(
                400, "bad_request", "'timeout_s' must be a finite number > 0"
            )
        # Clients may tighten the budget, never widen the daemon's cap.
        return mount, mount.engine, strategy, float(min(timeout_s, self.timeout))

    # -- the plan: found or built --------------------------------------------

    def _plan(
        self,
        engine: Engine,
        cached: Optional[PreparedQuery],
        query: str,
        strategy: str,
        tally: List[str],
    ) -> Tuple[PreparedQuery, bool]:
        """``(plan, warm)``: ``cached`` -- what the request's one
        :meth:`~repro.engine.api.Engine.cached_plan` lookup found -- or,
        cold, a plan built now, into the cache of the ``engine`` the
        request resolved: against an engine a reload has since replaced
        it is unreachable, not poisonous.  Warm means zero parsing,
        compilation and plan resolution."""
        warm = cached is not None
        plan = cached if warm else engine.prepare(query, strategy=strategy)
        tally.append("warm_hits" if warm else "cold_misses")
        return plan, warm

    def _runs_inline(
        self, plan: Optional[PreparedQuery], mode: tuple, timeout_s: float
    ) -> bool:
        """Whether this ``/query`` may skip the thread hop (see the
        module docstring): its plan is cached, its last run in this
        answer ``mode`` was measured under :data:`INLINE_MAX_S` and
        under the request's own budget, and no fault plan is armed that
        could make the next run unlike the last."""
        if plan is None or faults.armed():
            return False
        cost = plan.artifacts.get(COST_KEY, {}).get(mode)
        return cost is not None and cost < INLINE_MAX_S and cost < timeout_s

    # -- worker-side work ----------------------------------------------------

    def _evaluate(
        self,
        mount: Mount,
        engine: Engine,
        cached: Optional[PreparedQuery],
        query: str,
        strategy: str,
        tally: List[str],
        *,
        count_only: bool,
        with_labels: bool = False,
        with_stats: bool = False,
        executor: Optional[str] = None,
        queue_ms: Optional[float] = None,
    ) -> Answer:
        """One query, start to finish, wherever the caller runs it: the
        one place a result becomes an answer, ``(envelope, ids)``.

        ``mount`` and ``engine`` are what the request resolved on the
        event loop and ``cached`` what its plan lookup found; a reload
        in between changes none of them.  ``executor`` and ``queue_ms``
        are what only the caller knows of the request's way here; they
        are reported, not acted on.  What happened is counted into
        ``tally``.  The ids stay the result's own array
        (:attr:`~repro.engine.plan.ExecutionResult.ids_compact`, no
        widening pass) until :func:`~repro.serve.http.encode_answer`
        writes them; a count-only answer has ``None`` and never
        materialises one.

        The chosen strategy, then -- once, after an unexpected
        exception -- the ``naive`` fallback; only if that also fails
        does the request fail and count toward the document's
        quarantine streak.  Syntax errors and structured HTTP errors
        pass straight through: they are the client's problem, not the
        document's.
        """
        t0 = time.perf_counter()
        plan, warm = self._plan(engine, cached, query, strategy, tally)
        t1 = time.perf_counter()
        errors: List[Exception] = []
        for attempt in dict.fromkeys((strategy, FALLBACK_STRATEGY)):
            try:
                if errors:
                    tally.append("fallbacks")
                    plan, _ = self._plan(
                        engine,
                        engine.cached_plan(query, attempt),
                        query,
                        attempt,
                        tally,
                    )
                faults.check(
                    "serve.evaluate", document=mount.name, strategy=attempt
                )
                result = plan.execute()
                break
            except CLIENT_ERRORS:
                raise
            except Exception as exc:
                errors.append(exc)
        else:
            tally.append("eval_failures")
            mount.failed(
                errors[-1],
                self.fail_threshold,
                round(time.monotonic() - self._started, 3),
            )
            causes = [f"{type(exc).__name__}: {exc}" for exc in errors]
            raise HttpError(
                500,
                "evaluation_failed",
                f"evaluation failed ({causes[0]}); the naive fallback "
                f"also failed ({causes[1]})"
                if len(causes) > 1
                else f"evaluation failed on the naive fallback: {causes[0]}",
                {"document": mount.name, "strategy": strategy},
            ) from errors[-1]
        if errors:
            tally.append("fallback_successes")
        mount.answered()
        t2 = time.perf_counter()
        timing = {"prepare": _ms(t0, t1), "execute": _ms(t1, t2), "total": _ms(t0, t2)}
        if queue_ms is not None:
            timing["queue"] = queue_ms
        envelope = {
            "query": query,
            "strategy": plan.strategy.name,
            "count": len(result),
            "document": mount.name,
            "warm": warm,
            "timing_ms": timing,
            **planner_fields(plan),
        }
        if errors:
            envelope["fallback"] = FALLBACK_STRATEGY
        if executor is not None:
            envelope["executor"] = executor
        if with_labels:
            # The plan's own engine: old-generation ids must never be
            # labelled against a new generation's tree.
            envelope["labels"] = plan.engine.labels_of(result.ids_array)
        if with_stats:
            envelope["stats"] = result.stats.snapshot()
        return envelope, None if count_only else result.ids_compact

    def _query_body(
        self,
        mount: Mount,
        engine: Engine,
        cached: Optional[PreparedQuery],
        query: str,
        strategy: str,
        flags: Dict[str, bool],
        frame: bool,
        admitted: Optional[float],
        tally: List[str],
    ) -> bytes:
        """The worker-side function of ``/query``: evaluate, encode.

        ``admitted`` is when the request passed admission if it then
        hopped to a worker thread, ``None`` when it runs inline.  The
        function times itself and leaves the result with the plan --
        also when it fails, or ran the slow ``naive`` fallback -- which
        is all :meth:`_runs_inline` goes by next time.
        """
        start = time.perf_counter()
        inline = admitted is None
        try:
            return self._encode(
                frame,
                self._evaluate(
                    mount,
                    engine,
                    cached,
                    query,
                    strategy,
                    tally,
                    executor="inline" if inline else "thread",
                    queue_ms=0.0 if inline else _ms(admitted, start),
                    **flags,
                ),
                tally,
            )
        finally:
            cost = time.perf_counter() - start
            # A cold run left its plan in the engine's cache (unless it
            # never got that far): the one request that looks twice.
            plan = cached or engine.cached_plan(query, strategy)
            if plan is not None:
                plan.artifacts.setdefault(COST_KEY, {})[
                    tuple(flags.values())
                ] = cost

    def _encode(self, frame: bool, answer: tuple, tally: List[str]) -> bytes:
        """The body of one ``/query`` or ``/batch`` answer, wherever it
        was evaluated: a frame if the request asked for one and the
        answer holds ids (counted as ``framed``), else JSON."""
        body = encode_answer(*answer, frame=frame)
        if body.startswith(FRAME_MAGIC):
            tally.append("framed")
        return body

    def _batch_body(
        self,
        mount: Mount,
        engine: Engine,
        queries: List[str],
        strategy: str,
        count_only: bool,
        frame: bool,
        tally: List[str],
    ) -> bytes:
        """The worker-side function of ``/batch``: every query evaluated
        right here, in order, then one body for them all."""
        t0 = time.perf_counter()
        answers = [
            self._evaluate(
                mount,
                engine,
                engine.cached_plan(query, strategy),
                query,
                strategy,
                tally,
                count_only=count_only,
            )
            for query in queries
        ]
        for entry, _ids in answers:
            del entry["document"]
        envelope = {
            "document": mount.name,
            "timing_ms": {"total": _ms(t0, time.perf_counter())},
        }
        return self._encode(frame, (envelope, None, answers), tally)

    def _explain(
        self,
        mount: Mount,
        engine: Engine,
        cached: Optional[PreparedQuery],
        query: str,
        strategy: str,
        tally: List[str],
    ) -> dict:
        plan, warm = self._plan(engine, cached, query, strategy, tally)
        return {
            "document": mount.name,
            "query": query,
            "strategy": plan.strategy.name,
            "warm": warm,
            "text": plan.explain(),
            **explain_fields(plan),
        }

    # -- hot reload ----------------------------------------------------------

    async def reload(self) -> dict:
        """Re-mount every corpus at its current generation, atomically.

        The daemon keeps answering throughout: the scan runs off-loop
        (on a plain thread -- never the query executor, whose slots a
        saturated daemon may not free while the reload holds its lock);
        the install and the epoch bump are one synchronous step on the
        event loop (:mod:`repro.serve.mounts`).  The old generation's
        mmaps close only after every request admitted before the swap
        has drained; a straggler that outlives the drain budget merely
        defers its mmap close to its final array reference
        (:meth:`repro.store.StoredDocument.close` tolerates pinned
        exports), it can never crash.

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
            try:
                found = await asyncio.to_thread(self.mounts.scan)
            except Exception as exc:
                self._bump("reload_failures")
                raise HttpError(
                    500,
                    "reload_failed",
                    f"reload failed: {type(exc).__name__}: {exc}",
                ) from exc
            # -- synchronous swap: no awaits until the epoch bump ------
            superseded = self.mounts.install(found)
            ended = self.admission.advance()
            drained = not superseded or await self.admission.drained(
                ended, time.monotonic() + self.timeout
            )
            for document in superseded:
                document.close()
            changed = bool(found.added or found.replaced or found.removed)
            report = {
                "reloaded": changed,
                "added": sorted(found.added),
                "replaced": sorted(found.replaced),
                "removed": found.removed,
                "unchanged": sorted(found.unchanged),
                "skipped": {
                    name: info["error"] for name, info in found.skipped.items()
                },
                "generations": found.generations,
                "drained": drained,
                "duration_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            }
            self._bump("reloads" if changed else "reload_noops")
            self._last_reload = report
            return report

    async def _reload_poll_loop(self) -> None:
        """Watch each corpus' change stamp; reload when one moves."""
        while not self._draining:
            await asyncio.sleep(self.reload_poll)
            stamps = await asyncio.to_thread(self.mounts.read_stamps)
            if stamps != self.mounts.stamps and not self._draining:
                try:
                    await self.reload()
                except HttpError as exc:
                    print(
                        f"warning: polled reload failed: {exc.message}",
                        file=sys.stderr,
                    )

    # -- endpoints -----------------------------------------------------------

    def _healthz(self, request: Request, tally: List[str]) -> dict:
        status = self.health_status()
        return {
            "ok": status == "ok",
            "status": status,
            "documents": self.documents(),
            "quarantined": sorted(self.quarantined()),
            "skipped": {
                name: info["error"] for name, info in self.skipped.items()
            },
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    def _query(
        self, request: Request, tally: List[str]
    ) -> Union[bytes, Awaitable[bytes]]:
        """The body now when the plan runs inline, else the coroutine
        that hops to a worker thread for it.  Everything up to that
        choice -- payload, target, flags, the one plan-cache lookup --
        is done once, here, whichever way the request then goes."""
        payload = request.json()
        mount, engine, strategy, timeout_s = self._target(payload, tally)
        query = _query_field(payload)
        flags = {
            "count_only": _flag(payload, "count"),
            "with_labels": _flag(payload, "labels"),
            "with_stats": _flag(payload, "stats"),
        }
        cached = engine.cached_plan(query, strategy)
        work = (mount, engine, cached, query, strategy, flags, request.accepts_frame)
        if self._runs_inline(cached, tuple(flags.values()), timeout_s):
            tally += ("queries", "inline")
            return self.admission.call(
                lambda: self._query_body(*work, None, tally), timeout_s
            )
        tally += ("queries", "threaded")
        return self.admission.run(
            partial(self._counted, self._query_body, *work, time.perf_counter()),
            timeout_s,
        )

    def _batch(self, request: Request, tally: List[str]) -> Awaitable[bytes]:
        payload = request.json()
        mount, engine, strategy, timeout_s = self._target(payload, tally)
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
        count_only = _flag(payload, "count")
        tally += ["batches"] + ["batch_queries"] * len(queries)
        return self.admission.run(
            lambda: self._counted(
                self._batch_body,
                mount,
                engine,
                queries,
                strategy,
                count_only,
                request.accepts_frame,
            ),
            timeout_s,
        )

    def _explain_route(self, request: Request, tally: List[str]) -> Awaitable[dict]:
        # Its budget is the daemon's, whatever the parameters say.
        mount, engine, strategy, timeout_s = self._target(
            {**request.params, "timeout_s": self.timeout}, tally
        )
        query = _query_field(request.params)
        tally.append("explains")
        cached = engine.cached_plan(query, strategy)
        return self.admission.run(
            lambda: self._counted(
                self._explain, mount, engine, cached, query, strategy
            ),
            timeout_s,
        )

    #: path -> (method, handler(self, request, tally) -> body, or an
    #: awaitable of it): the one route table.  ``/reload`` is not
    #: admitted: it waits for admitted requests to drain, so counting it
    #: among them would deadlock.
    _ROUTES = {
        "/query": ("POST", _query),
        "/batch": ("POST", _batch),
        "/explain": ("GET", _explain_route),
        "/reload": ("POST", lambda self, request, tally: self.reload()),
        "/stats": ("GET", lambda self, request, tally: self.stats()),
        "/healthz": ("GET", _healthz),
    }

    def _route(
        self, request: Request, tally: List[str]
    ) -> Union[Body, Awaitable[Body]]:
        """Run the request's handler: its body, or an awaitable of it.
        Raises what the handler raises; counts into ``tally``."""
        # The probes keep answering during the shutdown drain, so
        # orchestration can watch it.
        if self._draining and request.path not in ("/healthz", "/stats"):
            tally.append("drain_rejects")
            raise HttpError(
                503, "shutting_down", "daemon is draining; connection closing"
            )
        route = self._ROUTES.get(request.path)
        if route is None:
            raise HttpError(
                404,
                "not_found",
                f"no route {request.path!r}",
                {"routes": list(self._ROUTES)},
            )
        method, handler = route
        if request.method != method:
            raise HttpError(
                405,
                "method_not_allowed",
                f"use {method}, not {request.method}",
            )
        return handler(self, request, tally)

    async def _dispatch(self, request: Request) -> Tuple[int, Body]:
        """One request routed and awaited, in-process, no socket: what
        :meth:`serve` does, but raising instead of answering errors."""
        tally: List[str] = []
        try:
            body = self._route(request, tally)
            return 200, await body if asyncio.iscoroutine(body) else body
        finally:
            self._bump(*tally)

    def serve(
        self, request: Request
    ) -> Union[Tuple[int, Body], Awaitable[Tuple[int, Body]]]:
        """Answer one request: ``(status, body)`` now, or -- when its
        handler has to wait (a worker thread, a reload) -- an awaitable
        of it.  Every failure becomes structured JSON, and the request's
        counters are bumped once, with the answer."""
        tally = ["requests"]
        try:
            body = self._route(request, tally)
            if asyncio.iscoroutine(body):
                return self._serve_later(body, tally)
            answer = 200, body
        except Exception as exc:
            answer = self._refusal(exc, tally)
        self._bump(*tally)
        return answer

    async def _serve_later(
        self, body: Awaitable[Body], tally: List[str]
    ) -> Tuple[int, Body]:
        try:
            answer = 200, await body
        except Exception as exc:
            answer = self._refusal(exc, tally)
        self._bump(*tally)
        return answer

    def refused(self, error: HttpError) -> None:
        """A request its connection could not parse (it answers)."""
        self._bump("bad_requests")

    def _refusal(self, exc: Exception, tally: List[str]) -> Tuple[int, dict]:
        """The structured answer to a failed request (called while
        ``exc`` is being handled)."""
        if isinstance(exc, HttpError):
            if exc.status == 400 and exc.kind == "bad_request":
                tally.append("bad_requests")
            return exc.status, exc.to_payload()
        if isinstance(exc, XPathSyntaxError):
            # The same offset-carrying payload the CLI renders a caret
            # from -- satellite and daemon share one error type.
            tally.append("syntax_errors")
            return 400, {"error": exc.to_dict()}
        if isinstance(exc, XPathCompileError):
            tally.append("bad_requests")
            return 400, {"error": {"kind": "unsupported", "message": str(exc)}}
        tally.append("internal_errors")
        traceback.print_exc(file=sys.stderr)
        return 500, {
            "error": {
                "kind": "internal",
                "message": "internal error (see daemon log)",
            }
        }

    def stats(self) -> dict:
        """The ``GET /stats`` payload (also handy in-process)."""
        with self._counters_lock:
            counters = dict(self.counters)
        records = list(self.mounts.records.values())
        mounts = sorted(records, key=lambda mount: mount.name)
        caches = self.mounts.cache_info()
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "strategy": self.strategy,
            "health": {
                "status": self.health_status(),
                "fail_threshold": self.fail_threshold,
                "quarantined": self.quarantined(),
                "failure_streaks": {
                    m.name: m.failures for m in mounts if m.failures
                },
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
                "error_rate": round(
                    counters["eval_failures"]
                    / max(1, counters["queries"] + counters["batch_queries"]),
                    6,
                ),
            },
            "admission": {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "limit": self.admission.limit,
                "in_flight": self.admission.in_flight,
            },
            "timeout_s": self.timeout,
            "documents": {m.name: {"nodes": m.engine.tree.n} for m in records},
            "mounts": self.mounts.by_store(),
            "reload": {
                "reloads": counters["reloads"],
                "noops": counters["reload_noops"],
                "failures": counters["reload_failures"],
                "poll_s": self.reload_poll,
                "epoch": self.admission.epoch,
                "generations": {
                    m.name: {
                        "generation": m.generation,
                        "fingerprint": m.fingerprint,
                    }
                    for m in mounts
                },
                "last": self._last_reload,
            },
            "counters": counters,
            # The one plan cache, summed over the mounted engines.
            "prepared": {
                field: sum(
                    info["plans"][field] for info in caches["documents"].values()
                )
                for field in ("size", "maxsize", "hits", "misses", "evictions")
            },
            "caches": caches,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (updates :attr:`port`)."""
        self._server = await asyncio.get_running_loop().create_server(
            partial(Connection, self), self.host, self.port
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
        the worker threads down (cancelling anything still queued), and
        releases every mmap handle.
        """
        self._draining = True
        poll_task, self._poll_task = self._poll_task, None
        if poll_task is not None:
            poll_task.cancel()
            with suppress(asyncio.CancelledError, Exception):
                await poll_task
        server, self._server = self._server, None
        if server is not None:
            server.close()
        deadline = time.monotonic() + (
            self.timeout if drain_timeout is None else drain_timeout
        )
        # An admitted answer is written in the same loop step that frees
        # its slot, and a reload holds its lock until its report is
        # ready: once neither is held, everything read is written back.
        while (
            self.admission.in_flight or self._reload_lock.locked()
        ) and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        # Idle keep-alive connections (and, past the deadline, any
        # stragglers, whose answers are then never written) are torn
        # down.
        for connection in list(self.connections):
            connection.transport.close()
        self._threads.shutdown(
            wait=not self.admission.in_flight, cancel_futures=True
        )
        self.mounts.close()

    async def run_async(self, ready=None) -> None:
        """Start, optionally announce, and serve until a signal or
        :meth:`request_stop`; then drain and stop."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        self._stop_request = partial(loop.call_soon_threadsafe, stop_event.set)
        # Not on Windows or off the main thread: request_stop() instead.
        with suppress(NotImplementedError, RuntimeError):
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(sig, stop_event.set)
        try:
            if ready is not None:
                ready(self)
            await stop_event.wait()
        finally:
            self._stop_request = None
            await self.stop()

    def request_stop(self) -> None:
        """Ask a running :meth:`run_async` to drain and return.  Safe
        from any thread; a no-op when none is running."""
        stop = self._stop_request  # once: the loop thread clears it
        if stop is not None:
            stop()

    def run(self, ready=None) -> None:
        """Blocking entry point (what ``repro serve`` calls)."""
        with suppress(KeyboardInterrupt):
            asyncio.run(self.run_async(ready=ready))


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

    #: The daemon's bound port.
    port = property(lambda self: self.daemon.port)

    def start(self) -> "DaemonThread":
        if self._thread is not None:
            raise RuntimeError("daemon thread already started")
        started: Future = Future()
        self._thread = threading.Thread(
            target=self._main,
            args=(started,),
            name="repro-serve-daemon",
            daemon=True,
        )
        self._thread.start()
        started.result()  # re-raises a startup failure
        return self

    def _main(self, started: Future) -> None:
        try:
            self.daemon.run(ready=started.set_result)
        except BaseException as exc:
            if started.done():
                raise
            started.set_exception(exc)

    def stop(self) -> None:
        if self._thread is not None:
            self.daemon.request_stop()
            self._thread.join()
            self._thread = None

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()
