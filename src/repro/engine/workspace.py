"""Multi-document workspaces: one compiled-query cache, many documents.

A :class:`Workspace` registers named documents and runs single queries,
query batches (:meth:`Workspace.select_many`), and cross-document
broadcasts (:meth:`Workspace.select_all`) over them.  All member engines
share one :class:`~repro.engine.plan.CompiledQueryCache`, keyed by
``(query, label-inventory)``, so a query compiled for one document is
reused by every document with the same wildcard inventory (always the
case for element-only documents).

>>> from repro.engine.workspace import Workspace
>>> ws = Workspace()
>>> _ = ws.add("d1", "<r><a><b/></a></r>")
>>> _ = ws.add("d2", "<r><b/><a><b/><b/></a></r>")
>>> ws.select_all("//a/b")
{'d1': [2], 'd2': [3, 4]}
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.api import Engine
from repro.engine.plan import CompiledQueryCache, ExecutionResult, PreparedQuery
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.tree.document import XMLDocument
from repro.xpath.ast import Path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.parallel import QueryService
    from repro.store import StoredDocument

Query = Union[str, Path]
Document = Union[XMLDocument, BinaryTree, TreeIndex, "StoredDocument", str]


class Workspace:
    """A set of named documents sharing strategy and compiled queries.

    Parameters mirror :class:`~repro.engine.api.Engine`; ``strategy``,
    ``encode_attributes`` and ``encode_text`` become the defaults for
    every document added later.  With ``strategy="auto"`` (the default,
    as for :class:`~repro.engine.api.Engine`, the CLI and the daemon)
    every member engine -- and every *shard* engine the parallel
    :class:`~repro.engine.parallel.QueryService` derives from it --
    runs the set-at-a-time kernel, which picks its join operator per
    step from each document's (or shard's) own label statistics.
    """

    def __init__(
        self,
        strategy: str = "auto",
        encode_attributes: bool = False,
        encode_text: bool = False,
    ) -> None:
        self.strategy = strategy
        self.encode_attributes = encode_attributes
        self.encode_text = encode_text
        self.cache = CompiledQueryCache()
        self._engines: Dict[str, Engine] = {}
        self._services: Dict[Tuple[int, str, Optional[int]], "QueryService"] = {}
        self._services_lock = threading.Lock()
        # Documents this workspace opened itself via open_store: it owns
        # their mmap handles and releases them on remove()/close().
        # (Documents passed to add() are caller-owned and never closed.)
        self._stored: Dict[str, "StoredDocument"] = {}

    # -- document management ------------------------------------------------

    def add(self, name: str, document: Document) -> Engine:
        """Register ``document`` under ``name``; returns its engine."""
        if name in self._engines:
            raise ValueError(f"document {name!r} already registered")
        engine = Engine(
            document,
            strategy=self.strategy,
            encode_attributes=self.encode_attributes,
            encode_text=self.encode_text,
            cache=self.cache,
        )
        self._engines[name] = engine
        self._invalidate_services(name)
        return engine

    def add_stored(self, name: str, document: "StoredDocument") -> Engine:
        """Register an already-opened store document, adopting its handles.

        Unlike :meth:`add`, the workspace takes ownership: the
        document's mmap handles are released on :meth:`remove` /
        :meth:`close`, exactly as for documents mounted via
        :meth:`open_store`.  This is the building block callers use to
        mount a corpus bundle-by-bundle with their own per-document
        error policy (e.g. the serve daemon skipping corrupt bundles).
        """
        engine = self.add(name, document)
        self._stored[name] = document
        return engine

    def remove(self, name: str) -> None:
        """Drop a document (compiled queries stay cached for the rest).

        A document this workspace opened itself (via :meth:`open_store`)
        also has its mmap handles released.
        """
        del self._engines[name]
        self._invalidate_services(name)
        stored = self._stored.pop(name, None)
        if stored is not None:
            stored.close()

    def swap_stored(
        self, name: str, document: "StoredDocument"
    ) -> Optional["StoredDocument"]:
        """Atomically replace document ``name`` with a new stored bundle.

        The engine is rebuilt from ``document`` and installed under the
        same name (dict assignment to an existing key, so insertion
        order -- and hence broadcast/shard order -- is preserved), any
        parallel-service state derived from the old document is
        invalidated, and the previously owned
        :class:`~repro.store.StoredDocument` (if any) is returned
        **unclosed**: the caller decides when its readers have drained
        and closes it.  This is the daemon hot-reload building block.
        """
        if name not in self._engines:
            raise KeyError(f"no document {name!r} to swap")
        engine = Engine(
            document,
            strategy=self.strategy,
            encode_attributes=self.encode_attributes,
            encode_text=self.encode_text,
            cache=self.cache,
        )
        old = self._stored.get(name)
        self._engines[name] = engine
        self._stored[name] = document
        self._invalidate_services(name)
        return old

    def pop_stored(self, name: str) -> Optional["StoredDocument"]:
        """Unregister ``name`` and hand back its stored document unclosed.

        Like :meth:`remove` but the caller takes over the mmap handles
        (close after draining readers); returns ``None`` when the
        document was caller-owned (added via :meth:`add`).
        """
        del self._engines[name]
        self._invalidate_services(name)
        return self._stored.pop(name, None)

    def _invalidate_services(self, name: str) -> None:
        """Drop any parallel-service state derived from document ``name``
        (its shards, shard engines, and worker-pool payloads) so a
        removed or re-added document can never answer from stale data."""
        with self._services_lock:
            services = list(self._services.values())
        for service in services:
            service.invalidate(name)

    # -- persistence ----------------------------------------------------------

    def save(self, path: str) -> Dict[str, str]:
        """Persist every registered document as a compiled bundle.

        Writes one :mod:`repro.store` bundle per document under
        ``path/<name>`` and returns ``{name: bundle_path}``.  A later
        :meth:`open_store` (in any process) serves the same corpus with
        zero re-parsing.  Document names that cannot be bundle names
        (path separators, ``..``) are rejected up front, before
        anything is written.
        """
        from repro.store import DocumentStore

        store = DocumentStore(path)
        for name in self._engines:
            store.path_for(name)  # validate every name before writing any
        return {
            name: store.save(name, engine.index)
            for name, engine in self._engines.items()
        }

    def open_store(
        self,
        path: str,
        names: Optional[Iterable[str]] = None,
        *,
        mmap: bool = True,
    ) -> List[str]:
        """Register every bundle of a store directory (or a chosen subset).

        Each document reopens via ``np.load(mmap_mode="r")`` -- no XML
        parsing, no index rebuild -- and is registered under its bundle
        name.  Returns the registered names in order.
        """
        from repro.store import DocumentStore

        store = DocumentStore(path)
        wanted = list(names) if names is not None else store.names()
        if not wanted:
            raise ValueError(f"no document bundles in {path!r}")
        registered: List[str] = []
        for name in wanted:
            self.add_stored(name, store.open(name, mmap=mmap))
            registered.append(name)
        return registered

    def engine(self, name: str) -> Engine:
        """The engine bound to document ``name``."""
        try:
            return self._engines[name]
        except KeyError:
            raise KeyError(
                f"no document {name!r}; registered: {self.documents()}"
            ) from None

    def documents(self) -> List[str]:
        """Registered document names, in insertion order."""
        return list(self._engines)

    def __len__(self) -> int:
        return len(self._engines)

    def __contains__(self, name: str) -> bool:
        return name in self._engines

    # -- querying -----------------------------------------------------------

    def prepare(self, query: Query, document: str) -> PreparedQuery:
        """A reusable plan for ``query`` on the named document."""
        return self.engine(document).prepare(query)

    def execute(self, query: Query, document: str) -> ExecutionResult:
        """Run ``query`` on one document; immutable per-execution result."""
        return self.engine(document).execute(query)

    def select(self, query: Query, document: str) -> List[int]:
        """Selected node ids of ``query`` on the named document."""
        return self.execute(query, document).nodes

    def select_many(
        self,
        queries: Iterable[Query],
        document: Optional[str] = None,
        *,
        jobs: Optional[int] = None,
        executor: str = "thread",
        shards: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run a batch of queries.

        With ``document`` given, returns ``{query: [ids]}`` for that
        document; otherwise runs the batch on *every* document and
        returns ``{document: {query: [ids]}}``.  Either way each distinct
        query is compiled at most once per label inventory.

        ``jobs`` > 1 routes the batch through the sharded
        :class:`~repro.engine.parallel.QueryService` fast path (see its
        docs for ``executor`` and ``shards``); results are identical to
        the serial path.  ``executor="pool"`` routes through the
        persistent shared-memory worker pool at any ``jobs`` count
        (the pool keeps its workers -- and their warm caches -- alive
        across calls).
        """
        if (jobs is not None and jobs > 1) or executor == "pool":
            service = self.service(jobs=jobs, executor=executor, shards=shards)
            return service.select_many(queries, document)
        queries = list(queries)
        if document is not None:
            engine = self.engine(document)
            return {
                self._qkey(q): engine.execute(q).nodes for q in queries
            }
        return {
            name: {
                self._qkey(q): engine.execute(q).nodes for q in queries
            }
            for name, engine in self._engines.items()
        }

    def select_all(
        self,
        query: Query,
        *,
        jobs: Optional[int] = None,
        executor: str = "thread",
        shards: Optional[int] = None,
    ) -> Dict[str, List[int]]:
        """Run one query across every document: ``{document: [ids]}``.

        ``jobs`` > 1 fans the broadcast out across document shards on a
        worker pool (the :class:`~repro.engine.parallel.QueryService`
        fast path); ``executor="pool"`` uses the persistent
        shared-memory pool at any ``jobs`` count.
        """
        if (jobs is not None and jobs > 1) or executor == "pool":
            service = self.service(jobs=jobs, executor=executor, shards=shards)
            return service.select_all(query)
        return {
            name: engine.execute(query).nodes
            for name, engine in self._engines.items()
        }

    def service(
        self,
        jobs: Optional[int] = None,
        executor: str = "thread",
        shards: Optional[int] = None,
    ) -> "QueryService":
        """A (memoized) parallel query service over this workspace.

        One service -- and hence one worker pool and one set of document
        shards -- is kept per ``(jobs, executor, shards)`` configuration;
        call :meth:`close` to shut the pools down.  With
        ``executor="pool"`` the service owns a persistent
        :class:`~repro.engine.pool.WorkerPool` of shared-memory worker
        processes that stays warm across calls and survives store
        mutations (:meth:`swap_stored`) via generation-versioned
        invalidation; :meth:`close` joins or terminates its workers.
        """
        from repro.engine.parallel import QueryService

        key = (jobs if jobs is not None else 0, executor, shards)
        with self._services_lock:
            service = self._services.get(key)
            if service is None:
                service = QueryService(
                    self, jobs=jobs, executor=executor, shards=shards
                )
                self._services[key] = service
        return service

    def close(self) -> None:
        """Shut down worker pools and release owned store handles.

        Idempotent.  Every :class:`~repro.engine.parallel.QueryService`
        pool created through :meth:`service` is shut down, and every
        document this workspace opened itself via :meth:`open_store` is
        dropped and has its mmap handles closed
        (:meth:`repro.store.StoredDocument.close`).  Documents passed to
        :meth:`add` by the caller stay registered and untouched -- the
        caller owns their lifetime.  The workspace also works as a
        context manager::

            with Workspace() as ws:
                ws.open_store(path)
                ...
        """
        with self._services_lock:
            services, self._services = list(self._services.values()), {}
        for service in services:
            service.close()
        stored, self._stored = self._stored, {}
        for name, document in stored.items():
            # Drop the engine first: it holds the index whose ndarrays
            # pin exports on the mmaps being closed.
            self._engines.pop(name, None)
            document.close()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def count_all(self, query: Query) -> Dict[str, int]:
        """Result cardinality per document (cheap fan-out analytics)."""
        return {
            name: len(engine.execute(query))
            for name, engine in self._engines.items()
        }

    def cache_info(self) -> Dict[str, dict]:
        """Bounded-cache statistics across the whole workspace.

        ``compiled`` is the one shared compiled-automaton cache;
        ``documents`` maps each document to its engine's
        :meth:`~repro.engine.api.Engine.cache_info` (prepared-plan LRU,
        fused-union LRU).  A long-lived service can poll this to confirm
        nothing grows without bound.
        """
        return {
            "compiled": self.cache.cache_info(),
            "documents": {
                name: engine.cache_info()
                for name, engine in self._engines.items()
            },
        }

    @staticmethod
    def _qkey(query: Query) -> str:
        return query if isinstance(query, str) else str(query)
