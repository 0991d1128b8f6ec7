"""Parallel sharded query execution: batches and broadcasts on a pool.

:class:`QueryService` scales a :class:`~repro.engine.workspace.Workspace`
to batch and multi-core execution.  Each document is split into *shards*
-- contiguous groups of whole top-level subtrees, re-rooted under a copy
of the document root (:meth:`repro.index.jumping.TreeIndex.shard_slice`).
Every shard carries its own sliced label index (and, on demand, its own
balanced-parentheses structure via :meth:`Shard.succinct`) plus the
global preorder offset that maps local ids back to document ids.
``(shard, prepared-query)`` tasks fan out to a ``ThreadPoolExecutor`` by
default, or to the persistent worker-process pool (``executor="pool"``);
per-shard selected sets merge back into document order, byte-identical
to serial execution.

Correct sharding is a query rewrite, not just a data split.  For an
absolute forward path ``s1/s2/.../sk`` every context chain touches the
document root at most once -- in the first context set ``C1`` -- because
all forward steps from an element move strictly downward and the root
has no siblings.  The service therefore:

1. resolves the *root gate* serially on the full document: one cheap
   prepared execution of ``/child::test1[pred1]`` decides whether the
   root belongs to ``C1`` (jumping makes this an existence probe, and it
   is the only place a predicate spans shard boundaries);
2. runs rewritten queries on each shard:
   ``/child::node()/descendant::test1[pred1]/s2/...`` covers chains
   entering through a non-root match of a ``descendant`` first step
   (those matches and all their predicate witnesses live inside one
   shard), and ``/child::node()/s2/...`` -- enabled only when the root
   gate holds -- covers chains that start at the root;
3. merges: the root itself (iff the gate holds and the path has one
   step), then each shard's ids shifted by its offset, concatenated in
   shard order.  Shard ranges are disjoint preorder slices, so the
   concatenation *is* document order.

Queries outside the rewrite's fragment -- backward axes, any
``following-sibling`` step (depth-1 siblings straddle shards), absolute
paths inside predicates, or relative top-level paths -- are not sharded;
they run as whole-document tasks on the pool, which still parallelizes
them across the batch.  Degenerate documents (a bare root) have no
shards and run whole-document too.

Two executors, one contract (byte-identical to serial):

- ``"thread"`` -- a ``ThreadPoolExecutor`` sharing shard engines and
  the workspace's compiled cache (best when evaluation releases the
  GIL or interleaves with I/O).
- ``"pool"`` -- the persistent shared-memory
  :class:`~repro.engine.pool.WorkerPool`: long-lived workers that
  reopen store bundles zero-copy via mmap, keep engines / compiled
  paths / prepared plans warm across batches, and pull
  query-granularity chunks from one shared queue (dynamic load
  balancing with steal accounting).  Dispatch is task-size aware:
  cheap queries run whole-document and are chunked together to
  amortize IPC; expensive queries on large documents split by shard
  so idle workers can steal.  Store mutations survive via
  generation-versioned worker cache invalidation -- see
  :mod:`repro.engine.pool`.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.counters import EvalStats
from repro.engine import registry
from repro.engine.pool import PoolTask, WorkerPool
from repro.engine.api import PLAN_CACHE_SIZE, Engine
from repro.engine.joins import sorted_unique
from repro.engine.plan import ExecutionResult
from repro.index.jumping import TreeIndex
from repro.lru import LRUCache
from repro.xpath.ast import (
    Axis,
    Path,
    Pred,
    PredAnd,
    PredNot,
    PredOr,
    PredPath,
    Step,
)
from repro.xpath.parser import parse_xpath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.workspace import Workspace

Query = Union[str, Path]

#: Documents below this node count run a shardable query as one
#: whole-document pool task instead of splitting it by shard -- the
#: split's rewrite/merge overhead only pays off on large inputs.
POOL_SPLIT_NODES = 4096

_ROOT_STEP = Step(Axis.CHILD, "node()", None)
"""From the document node, ``child::node()`` selects exactly the root."""


# -- shards -----------------------------------------------------------------


@dataclass
class Shard:
    """One re-rooted slice of a document plus its global placement.

    ``index.tree`` node 0 is a copy of the document root; local node
    ``l >= 1`` is global node ``l + offset``.  Shards of one document
    cover pairwise-disjoint preorder ranges ``[lo, hi)`` in ascending
    ``ordinal`` order.
    """

    ordinal: int
    lo: int
    hi: int
    index: TreeIndex
    _succinct: object = field(default=None, repr=False, compare=False)

    @property
    def offset(self) -> int:
        """Global preorder offset: global id = local id + offset."""
        return self.lo - 1

    def __len__(self) -> int:
        return self.index.tree.n

    def succinct(self):
        """The shard's own balanced-parentheses structure (lazy).

        Built once per shard from its re-rooted tree; interchangeable
        with the pointer tree behind the navigation API (node ids are
        the shard-local preorder numbers).
        """
        if self._succinct is None:
            from repro.index.succinct import SuccinctTree

            self._succinct = SuccinctTree.from_binary(self.index.tree)
        return self._succinct


def shard_document(index: TreeIndex, parts: Optional[int] = None) -> List[Shard]:
    """Split a document into up to ``parts`` shards at top-level children.

    Consecutive top-level subtrees are grouped greedily so the shards
    have roughly equal node counts; ``parts=None`` gives one shard per
    top-level child.  A document whose root has no element children
    returns no shards (the degenerate case the service runs as one
    whole-document task).
    """
    order, start = index.child_csr()
    children = order[start[0] : start[1]].tolist()  # of the root
    if not children:
        return []
    if parts is not None and parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    ends = index.xml_end_array()[children].tolist()
    groups: List[Tuple[int, int]] = []
    if parts is None or parts >= len(children):
        groups = list(zip(children, ends))
    else:
        target = (ends[-1] - children[0]) / parts
        acc = 0
        start_id = children[0]
        for i, (c, end) in enumerate(zip(children, ends)):
            acc += end - c
            remaining_groups = parts - len(groups) - 1
            remaining_children = len(children) - i - 1
            if (acc >= target and remaining_groups > 0) or (
                remaining_children <= remaining_groups
            ):
                groups.append((start_id, end))
                acc = 0
                if i + 1 < len(children):
                    start_id = children[i + 1]
        if acc > 0:
            groups.append((start_id, ends[-1]))
    return [
        Shard(ordinal, lo, hi, index.shard_slice(lo, hi))
        for ordinal, (lo, hi) in enumerate(groups)
    ]


# -- query rewrite ----------------------------------------------------------


@dataclass(frozen=True)
class ShardQueryPlan:
    """How one query runs under sharding (see the module docstring)."""

    query: str
    path: Path
    shardable: bool
    reason: str = ""
    root_probe: Optional[Path] = None
    include_root_if_gate: bool = False
    paths_always: Tuple[Path, ...] = ()
    paths_gated: Tuple[Path, ...] = ()

    def shard_paths(self, root_gate: bool) -> Tuple[Path, ...]:
        """The rewritten per-shard queries given the root-gate outcome."""
        return self.paths_always + (self.paths_gated if root_gate else ())


def _unshardable_reason(path: Path) -> Optional[str]:
    """Why ``path`` must run whole-document, or None if it can shard."""
    if not path.absolute:
        return "relative top-level path"
    if not path.steps:
        return "empty path"
    if path.has_backward_axes():
        return "backward axes (mixed pipeline)"
    first = path.steps[0].axis
    if first not in (Axis.CHILD, Axis.DESCENDANT):
        return f"first step on the {first.value} axis"
    return _forbidden_in(path)


def _forbidden_in(path: Path) -> Optional[str]:
    for step in path.steps:
        if step.axis is Axis.FOLLOWING_SIBLING:
            # Depth-1 siblings straddle shard boundaries.
            return "following-sibling step"
        if step.predicate is not None:
            reason = _forbidden_in_pred(step.predicate)
            if reason:
                return reason
    return None


def _forbidden_in_pred(pred: Pred) -> Optional[str]:
    if isinstance(pred, (PredAnd, PredOr)):
        return _forbidden_in_pred(pred.left) or _forbidden_in_pred(pred.right)
    if isinstance(pred, PredNot):
        return _forbidden_in_pred(pred.inner)
    if isinstance(pred, PredPath):
        if pred.path.absolute:
            # Evaluates from the document node, i.e. over every shard.
            return "absolute path inside a predicate"
        return _forbidden_in(pred.path)
    return None


def plan_shard_query(query: Query) -> ShardQueryPlan:
    """Rewrite ``query`` into its root probe and per-shard queries."""
    path = parse_xpath(query) if isinstance(query, str) else query
    qkey = query if isinstance(query, str) else str(query)
    reason = _unshardable_reason(path)
    if reason is not None:
        return ShardQueryPlan(qkey, path, shardable=False, reason=reason)
    s1 = path.steps[0]
    rest = path.steps[1:]
    probe = Path(True, (Step(Axis.CHILD, s1.test, s1.predicate),))
    from_root = (Path(True, (_ROOT_STEP,) + rest),) if rest else ()
    if s1.axis is Axis.CHILD:
        # C1 is at most {root}; everything else hangs off the gate.
        paths_always: Tuple[Path, ...] = ()
    else:
        # Non-root matches of a descendant first step (and all their
        # predicate witnesses) live entirely inside one shard.
        descend = Step(Axis.DESCENDANT, s1.test, s1.predicate)
        paths_always = (Path(True, (_ROOT_STEP, descend) + rest),)
    return ShardQueryPlan(
        qkey,
        path,
        shardable=True,
        root_probe=probe,
        include_root_if_gate=not rest,
        paths_always=paths_always,
        paths_gated=from_root,
    )


def _describe_prepared(plan) -> dict:
    """One prepared plan's resolution (plus, under ``auto``, the name
    it executes as)."""
    from repro.engine.planner import planner_fields

    out = {"query": str(plan.path), "strategy": plan.strategy.name}
    out.update(planner_fields(plan))
    return out


def _run_paths(
    engine: Engine, paths: Sequence[Path], offset: int
) -> ExecutionResult:
    """One task: execute ``paths`` on a shard (or whole-document) engine.

    Ids come back global (shifted by the shard's ``offset``) and the
    counters of every path are summed.
    """
    if len(paths) == 1 and not offset:
        # Nothing to merge or shift: the engine's own result, uncopied.
        return engine.execute(paths[0])
    stats = EvalStats()
    accepted = False
    parts: List[np.ndarray] = []
    for path in paths:
        result = engine.execute(path)
        stats.merge(result.stats)
        accepted = accepted or result.accepted
        parts.append(result.ids_array)
    # Sorted duplicate-free parts: a stable sort merges the runs, an
    # adjacent compare drops what two paths both selected.
    ids = parts[0] if len(parts) == 1 else sorted_unique(np.concatenate(parts))
    return ExecutionResult(accepted, ids + offset, stats)


# -- the service ------------------------------------------------------------


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
    shards:
        Target shard count per document (default ``2 * jobs``, for
        scheduling slack); capped at the number of top-level children.
    executor:
        ``"thread"`` (default) shares shard engines and the workspace's
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
    :meth:`execute` returns an :class:`ExecutionResult` whose ``stats``
    aggregate every shard's counters (plus the root probe's).
    """

    def __init__(
        self,
        workspace: "Workspace",
        *,
        jobs: Optional[int] = None,
        shards: Optional[int] = None,
        executor: str = "thread",
        mp_start_method: Optional[str] = None,
    ) -> None:
        if executor not in ("thread", "pool"):
            raise ValueError(
                f"executor must be 'thread' or 'pool', got {executor!r}"
            )
        self.workspace = workspace
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.shard_target = shards if shards is not None else 2 * self.jobs
        self.executor = executor
        self.mp_start_method = mp_start_method
        self._shards: Dict[str, List[Shard]] = {}
        # query string -> ShardQueryPlan, under the service lock
        self._plans = LRUCache(PLAN_CACHE_SIZE)
        self._shard_engines: Dict[Tuple[str, int], Engine] = {}
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
        :meth:`close`, :meth:`Workspace.close`, or a daemon's SIGTERM
        drain, no orphaned workers survive.  Garbage collection of an
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
        """Forget every cache derived from document ``name``.

        Called by :meth:`Workspace.add`/:meth:`Workspace.remove`/
        :meth:`Workspace.swap_stored` so a removed or re-registered
        document can never be answered from stale shards.  The thread
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
            self._shards.pop(name, None)
            for key in [k for k in self._shard_engines if k[0] == name]:
                del self._shard_engines[key]
            self._doc_versions[name] = self._doc_versions.get(name, 0) + 1
            if self._pool is not None and name in self._pool_static:
                stale_pool, self._pool = self._pool, None
                self._pool_static = ()
        self._shutdown_pool(stale_pool)

    # -- sharding -----------------------------------------------------------

    def doc_shards(self, name: str) -> List[Shard]:
        """The (cached) shards of a registered document."""
        with self._lock:
            return self._shards_locked(name)

    def _shards_locked(self, name: str) -> List[Shard]:
        """Compute-and-cache shards; the service lock must be held."""
        shards = self._shards.get(name)
        if shards is None:
            index = self.workspace.engine(name).index
            shards = shard_document(index, parts=self.shard_target)
            self._shards[name] = shards
        return shards

    def _plan(self, query: Query) -> ShardQueryPlan:
        qkey = self._qkey(query)
        with self._lock:
            plan = self._plans.get(qkey)
            if plan is None:
                plan = plan_shard_query(query)
                self._plans.put(qkey, plan)
        return plan

    def _shard_engine(self, doc: str, shard: Shard) -> Engine:
        key = (doc, shard.ordinal)
        with self._lock:
            engine = self._shard_engines.get(key)
            if engine is None:
                engine = Engine(
                    shard.index,
                    strategy=self.workspace.strategy,
                    cache=self.workspace.cache,
                )
                self._shard_engines[key] = engine
        return engine

    # -- pool ---------------------------------------------------------------

    def ensure_pool(self):
        """Build the worker pool eagerly (idempotent).

        Long-lived hosts (the serve daemon) call this at startup, while
        the process is still single-threaded -- forking workers before
        any event loop or request threads exist sidesteps the classic
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
                payload = {}
                for name in static:
                    index = self.workspace.engine(name).index
                    payload[name] = (
                        "index",
                        index,
                        self._shards_locked(name),
                    )
                self._pool = WorkerPool(
                    workers=self.jobs,
                    strategy=self.workspace.strategy,
                    static_docs=payload,
                    mp_start_method=self.mp_start_method,
                )
                self._pool_static = static
            return self._pool

    def _pool_descriptor(self, name: str) -> tuple:
        """How a pool worker materializes (and version-checks) ``name``.

        Store-backed documents ship their bundle path + shard ranges +
        version on every task (a few bytes); workers reopen the mmap
        themselves and the OS page cache shares the physical pages.
        In-memory documents were shipped at pool start and are named by
        version only.
        """
        store_path = self._store_path(name)
        with self._lock:
            version = self._doc_versions.get(name, 0)
            if store_path is not None:
                shards = self._shards_locked(name)
                return (
                    "store",
                    store_path,
                    tuple((s.lo, s.hi) for s in shards),
                    version,
                )
        return ("static", version)

    # -- execution core ------------------------------------------------------

    def execute(self, query: Query, document: str) -> ExecutionResult:
        """Run one query on one document; merged per-shard result."""
        return self._run_batch([document], [query])[document][
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
            results = self._run_batch([document], queries)[document]
            return {k: r.nodes for k, r in results.items()}
        out = {}
        all_results = self._run_batch(self.workspace.documents(), queries)
        for name, results in all_results.items():
            out[name] = {k: r.nodes for k, r in results.items()}
        return out

    def select_all(self, query: Query) -> Dict[str, List[int]]:
        """Parallel counterpart of :meth:`Workspace.select_all`."""
        results = self._run_batch(self.workspace.documents(), [query])
        qkey = self._qkey(query)
        return {name: res[qkey].nodes for name, res in results.items()}

    def count_all(self, query: Query) -> Dict[str, int]:
        """Result cardinality per document, computed on the pool."""
        results = self._run_batch(self.workspace.documents(), [query])
        qkey = self._qkey(query)
        return {name: len(res[qkey]) for name, res in results.items()}

    @staticmethod
    def _qkey(query: Query) -> str:
        return query if isinstance(query, str) else str(query)

    def plan_report(self, query: Query, document: str) -> dict:
        """How ``query`` runs on ``document`` under sharding *and* planning.

        Combines the shard rewrite decision with what each shard
        engine's strategy resolution picked for every rewritten path.
        """
        plan = self._plan(query)
        report: dict = {
            "query": plan.query,
            "strategy": self.workspace.strategy,
            "shardable": plan.shardable,
        }
        if not plan.shardable:
            report["reason"] = plan.reason
            engine = self.workspace.engine(document)
            report["whole_document"] = _describe_prepared(
                engine.prepare(plan.path)
            )
            return report
        shard_paths = plan.shard_paths(root_gate=True)
        shards = []
        for shard in self.doc_shards(document):
            engine = self._shard_engine(document, shard)
            shards.append(
                {
                    "ordinal": shard.ordinal,
                    "nodes": len(shard),
                    "paths": [
                        _describe_prepared(engine.prepare(p))
                        for p in shard_paths
                    ],
                }
            )
        report["shards"] = shards
        return report

    def _run_batch(
        self, doc_names: Sequence[str], queries: Sequence[Query]
    ) -> Dict[str, Dict[str, ExecutionResult]]:
        """Fan out a (documents x queries) batch; gather merged results."""
        qkeys: List[str] = []
        paths: Dict[str, Query] = {}
        for q in queries:
            k = self._qkey(q)
            if k not in paths:
                qkeys.append(k)
                paths[k] = q
        # Validate every document name up front (fail before fan-out).
        engines = {name: self.workspace.engine(name) for name in doc_names}
        if not qkeys:
            return {name: {} for name in doc_names}
        pool = self.ensure_pool()
        # (doc, qkey) -> list of ordered parts; each part is either an
        # ExecutionResult or a pending task exposing .result().
        pending: Dict[Tuple[str, str], List[object]] = {}
        # Pool executor: tasks accumulate here across the whole batch so
        # one submit_many call can chunk cheap queries *together* (fewer
        # IPC messages) before any worker starts pulling.
        sink: Optional[List[_DeferredPart]] = (
            [] if self.executor == "pool" else None
        )
        for name in doc_names:
            shards = self.doc_shards(name)
            for qkey in qkeys:
                plan = self._plan(paths[qkey])
                pending[(name, qkey)] = self._submit_query(
                    pool, sink, name, engines[name], shards, plan
                )
        if sink:
            futures = pool.submit_many([part.task for part in sink])
            for part, future in zip(sink, futures):
                part.inner = future
        out: Dict[str, Dict[str, ExecutionResult]] = {}
        for name in doc_names:
            per_doc: Dict[str, ExecutionResult] = {}
            for qkey in qkeys:
                parts = [
                    part
                    if isinstance(part, ExecutionResult)
                    else part.result()
                    for part in pending[(name, qkey)]
                ]
                per_doc[qkey] = (
                    parts[0]
                    if len(parts) == 1
                    else ExecutionResult.merge(parts)
                )
            out[name] = per_doc
        return out

    def _submit_query(
        self,
        pool,
        sink: Optional[List["_DeferredPart"]],
        doc: str,
        engine: Engine,
        shards: List[Shard],
        plan: ShardQueryPlan,
    ) -> List[object]:
        """Submit one (document, query); its ordered result parts.

        A shardable query on a document that has shards splits into the
        root gate (resolved serially here) plus one task per shard;
        everything else -- unshardable paths, bare-root documents -- is
        one whole-document task.  The worker pool pays IPC per task, so
        it splits only with a second worker to steal the pieces and at
        least ``POOL_SPLIT_NODES`` nodes to split.
        """
        resolved = registry.resolve(self.workspace.strategy, plan.path)
        if not getattr(resolved, "parallel_safe", True):
            # The strategy keeps run state on itself: run in this thread.
            return [engine.execute(plan.path)]
        to_workers = sink is not None
        split = plan.shardable and bool(shards)
        if split and to_workers:
            split = self.jobs > 1 and engine.index.tree.n >= POOL_SPLIT_NODES
        parts: List[object] = []
        targets: Sequence[Optional[Shard]] = (None,)
        paths: Tuple[Path, ...] = (plan.path,)
        path_strs: Tuple[str, ...] = (plan.query,)
        if split:
            gate, root_part = self._root_part(engine, plan)
            parts.append(root_part)
            paths = plan.shard_paths(root_gate=gate)
            path_strs = tuple(str(p) for p in paths) if to_workers else ()
            targets = shards if paths else ()
        descriptor = self._pool_descriptor(doc) if to_workers else None
        for shard in targets:
            parts.append(
                self._submit(
                    pool, sink, doc, engine, shard, paths, descriptor, path_strs
                )
            )
        return parts

    def _submit(
        self,
        pool,
        sink: Optional[List["_DeferredPart"]],
        doc: str,
        engine: Engine,
        shard: Optional[Shard],
        paths: Tuple[Path, ...],
        descriptor: Optional[tuple],
        path_strs: Tuple[str, ...],
    ) -> object:
        """One task -- ``paths`` on ``shard`` (``None``: the whole document).

        Deferred to the worker pool's batch-wide ``sink``, handed to the
        thread pool, or (``jobs=1``) run inline.
        """
        ordinal, offset = (
            (None, 0) if shard is None else (shard.ordinal, shard.offset)
        )
        if sink is not None:
            part = _DeferredPart(
                PoolTask(
                    doc,
                    descriptor,
                    ordinal,
                    offset,
                    path_strs,
                    cost=engine.index.tree.n if shard is None else len(shard),
                )
            )
            sink.append(part)
            return part
        if shard is not None:
            engine = self._shard_engine(doc, shard)
        if pool is None:
            return _run_paths(engine, paths, offset)
        return pool.submit(_run_paths, engine, paths, offset)

    def _root_part(
        self, engine: Engine, plan: ShardQueryPlan
    ) -> Tuple[bool, ExecutionResult]:
        """Resolve the root gate on the full document (serial, cheap).

        Returns ``(gate, part)``: the part carries the probe's counters,
        and its ids are ``(0,)`` exactly when the query's only step
        selects the root.  The gate itself stays out of the part's
        ``accepted`` flag -- a query whose root gate holds but that
        selects nothing must still merge to an unaccepted result, as in
        serial execution.
        """
        probe = engine.execute(plan.root_probe)
        gate = len(probe) > 0
        selected = gate and plan.include_root_if_gate
        return gate, ExecutionResult(
            accepted=selected, ids=(0,) if selected else (), stats=probe.stats
        )


class _DeferredPart:
    """A pool task's slot in a query's ordered parts list.

    Created while the batch is still being planned; its
    :class:`~repro.engine.pool.PoolFuture` is bound (``inner``) after
    the whole batch goes through one ``submit_many`` call -- batch-wide
    submission is what lets the pool chunk cheap tasks from *different*
    queries into one IPC message.  Workers return
    ``(int64 id array, stats-snapshot, accepted)``; an :class:`EvalStats`
    is rebuilt here so the merge path is uniform with the thread executor.
    """

    __slots__ = ("task", "inner")

    def __init__(self, task: PoolTask) -> None:
        self.task = task
        self.inner = None

    def result(self, timeout=None) -> ExecutionResult:
        ids, stats, accepted = self.inner.result(timeout)
        return ExecutionResult(accepted, ids, EvalStats(**stats))
