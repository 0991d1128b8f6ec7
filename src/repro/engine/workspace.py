"""Multi-document workspaces: one compiled-query cache, many documents.

A :class:`Workspace` registers named documents and runs single queries,
query batches (:meth:`Workspace.select_many`), and cross-document
broadcasts (:meth:`Workspace.select_all`) over them.  All member engines
share one :class:`~repro.engine.plan.CompiledQueryCache`, keyed by
``(query, label-inventory)``, so a query compiled for one document is
reused by every document with the same wildcard inventory (always the
case for element-only documents).  Every batch and broadcast runs on a
:class:`~repro.engine.parallel.QueryService`; at ``jobs`` 1 (the
default) its tasks run inline, one after another.

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
    every member engine runs the set-at-a-time kernel, which picks its
    join operator per step from its document's own label statistics.
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
        self._services: Dict[Tuple[int, str], "QueryService"] = {}
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

    def _invalidate_services(self, name: str) -> None:
        """Drop any parallel-service state derived from document ``name``
        (worker caches and pool payloads) so a removed or re-added
        document can never answer from stale data."""
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

        Each document reopens as read-only maps of its array files -- no
        XML parsing, no index rebuild -- and is registered under its
        bundle name.  Returns the registered names in order.
        """
        from repro.store import DocumentStore

        store = DocumentStore(path)
        wanted = list(names) if names is not None else store.names()
        if not wanted:
            raise ValueError(f"no document bundles in {path!r}")
        for name in wanted:
            self.add(name, document := store.open(name, mmap=mmap))
            self._stored[name] = document
        return wanted

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
    ) -> Dict[str, object]:
        """Run a batch of queries.

        With ``document`` given, returns ``{query: [ids]}`` for that
        document; otherwise runs the batch on *every* document and
        returns ``{document: {query: [ids]}}``.  Either way each distinct
        query is compiled at most once per label inventory.

        The batch is one :meth:`service` call, one task per (document,
        query).  On the thread executor, ``jobs`` unset or 1 runs the
        tasks inline, one after another; more fans them out (see
        :class:`~repro.engine.parallel.QueryService`).
        ``executor="pool"`` uses the persistent shared-memory worker
        pool, sized as :meth:`service` sizes it.  Results are the same
        either way.
        """
        jobs = jobs if jobs or executor == "pool" else 1
        return self.service(jobs, executor).select_many(queries, document)

    def select_all(
        self,
        query: Query,
        *,
        jobs: Optional[int] = None,
        executor: str = "thread",
    ) -> Dict[str, List[int]]:
        """Run one query across every document: ``{document: [ids]}``,
        one task per document, run as :meth:`select_many` runs them."""
        jobs = jobs if jobs or executor == "pool" else 1
        return self.service(jobs, executor).select_all(query)

    def service(
        self,
        jobs: Optional[int] = None,
        executor: str = "thread",
    ) -> "QueryService":
        """A (memoized) parallel query service over this workspace.

        One service -- and hence one worker pool -- is kept per
        ``(jobs, executor)`` configuration;
        call :meth:`close` to shut the pools down.  With
        ``executor="pool"`` the service owns a persistent
        :class:`~repro.engine.pool.WorkerPool` of shared-memory worker
        processes that stays warm across calls and survives store
        mutations (:meth:`remove` + :meth:`open_store`) via
        generation-versioned invalidation; :meth:`close` joins or
        terminates its workers.
        """
        from repro.engine.parallel import QueryService

        key = (jobs if jobs is not None else 0, executor)
        with self._services_lock:
            service = self._services.get(key)
            if service is None:
                service = QueryService(self, jobs=jobs, executor=executor)
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
        return self.service(1).count_all(query)

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
