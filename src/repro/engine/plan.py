"""Prepared queries: parse/compile once, execute many times.

:class:`PreparedQuery` is the unit of reuse in the redesigned API.  It
holds the parsed :class:`~repro.xpath.ast.Path`, the compiled
:class:`~repro.asta.automaton.ASTA` (when the resolved strategy consumes
one), and the strategy resolved through the registry's fallback chain.
``execute()`` allocates a fresh :class:`~repro.counters.EvalStats` per
call and returns an immutable :class:`ExecutionResult` -- there is no
shared mutable stats object to race on.

:class:`CompiledQueryCache` is the compiled-automaton cache shared by a
:class:`~repro.engine.workspace.Workspace` across documents.  Wildcard
(``*``) node tests compile against the document's element-label
inventory, so the cache key is ``(query, label-inventory)``: documents
with identical inventories (in particular, all element-only documents)
share one compiled automaton per query.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.asta.automaton import ASTA
from repro.counters import EvalStats
from repro.lru import LRUCache
from repro.xpath.ast import Path
from repro.xpath.compiler import compile_xpath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.registry import Strategy


#: Bound on a :class:`CompiledQueryCache`.  A workspace shares one
#: cache between all of its documents, so it holds a few engines' worth
#: of distinct queries (``api.PLAN_CACHE_SIZE`` each) -- as many as the
#: daemon's warm plan map; an evicted query recompiles on its next
#: prepare.
COMPILED_CACHE_SIZE = 1024


def cache_key(
    query: Union[str, Path], wildcard_labels: Optional[List[str]]
) -> Tuple[str, Optional[Tuple[str, ...]]]:
    """``(query text, label inventory)``: how the compiled-ASTA and the
    minimal-TDSTA caches key an automaton (``*`` compiles against the
    inventory)."""
    inventory = (
        None if wildcard_labels is None else tuple(sorted(set(wildcard_labels)))
    )
    return (query if isinstance(query, str) else str(query), inventory)


class CompiledQueryCache:
    """Query-string -> compiled ASTA cache, keyed by label inventory.

    Instruments :attr:`compilations` (cache misses that invoked the
    compiler) and :attr:`hits` so tests and benchmarks can assert that
    prepared queries and workspaces do zero redundant compilation.

    The cache is thread-safe: a workspace shares one cache across all of
    its engines, and the thread executor of a
    :class:`~repro.engine.parallel.QueryService` runs them concurrently,
    so two pool threads may ask for the same ``(query, inventory)`` key
    at once.
    Compilation happens under the lock -- the second thread blocks and
    then reads the first thread's automaton instead of compiling a
    duplicate.
    """

    def __init__(self) -> None:
        # (query, label inventory) -> ASTA
        self._astas = LRUCache(COMPILED_CACHE_SIZE, lock=True)

    @property
    def compilations(self) -> int:
        return self._astas.misses

    @property
    def hits(self) -> int:
        return self._astas.hits

    def __len__(self) -> int:
        return len(self._astas)

    def cache_info(self) -> dict:
        """Compiled-cache statistics (the one shared stats literal that
        :meth:`Engine.cache_info` and :meth:`Workspace.cache_info`
        both surface)."""
        with self._astas.lock:
            info = self._astas.cache_info()
        info["compilations"] = info.pop("misses")
        return info

    def get(
        self,
        query: Union[str, Path],
        wildcard_labels: Optional[List[str]] = None,
        *,
        parsed: Optional[Path] = None,
    ) -> ASTA:
        """Compiled ASTA for ``query`` (compiling on first use).

        ``parsed`` supplies an already-parsed path so a cache miss does
        not re-parse the query string.
        """
        key = cache_key(query, wildcard_labels)
        astas = self._astas
        with astas.lock:
            asta = astas.get(key)
            if asta is None:
                source = parsed if parsed is not None else query
                asta = compile_xpath(source, wildcard_labels=wildcard_labels)
                astas.put(key, asta)
        return asta


def wildcard_labels(tree) -> Optional[List[str]]:
    """The element labels ``*`` stands for on ``tree``: ``None`` (every
    label) unless the document encodes attributes or text as labels."""
    encoded = any(l.startswith(("@", "#")) for l in tree.labels)
    if not encoded:
        return None  # Σ is exact for element-only documents
    return [l for l in tree.labels if not l.startswith(("@", "#"))]


class ExecutionResult:
    """One execution's outcome: immutable, self-contained.

    ``stats`` belongs to this execution alone -- concurrent or repeated
    ``execute()`` calls never overwrite each other's counters.

    The selected ids stay in the form the strategy produced -- Python
    ints or an integer array (``int32``, the tree's id width, from the
    kernel) -- and convert on demand: :attr:`ids` (a tuple),
    :attr:`ids_compact` (a read-only array of the width produced) and
    :attr:`ids_array` (a read-only ``int64`` array) each cache their
    first conversion, ``len()`` converts nothing.  The result owns its
    data: an array borrowing another buffer (a slice of a label index's
    candidate array, an mmap-backed store column) is copied on the way
    in, so no result pins an mmap or dies with its document.  An array
    owning its buffer is taken as is -- an in-memory index hands out its
    own per-label array for ``//label`` -- which is why only read-only
    views ever leave here.
    """

    __slots__ = ("accepted", "stats", "_ids", "_array", "_wide")

    def __init__(
        self,
        accepted: bool,
        ids: Union[Iterable[int], np.ndarray],
        stats: EvalStats,
    ) -> None:
        is_array = isinstance(ids, np.ndarray)
        init = object.__setattr__
        init(self, "accepted", accepted)
        init(self, "stats", stats)
        init(self, "_ids", None if is_array else tuple(ids))
        init(self, "_array", _owned_readonly(ids) if is_array else None)
        init(self, "_wide", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ExecutionResult is immutable (set {name!r})")

    @property
    def ids(self) -> Tuple[int, ...]:
        """Selected node ids as a tuple of ints (document order)."""
        if self._ids is None:
            object.__setattr__(self, "_ids", tuple(self._array.tolist()))
        return self._ids

    @property
    def ids_compact(self) -> np.ndarray:
        """Selected node ids as a read-only array of the width they were
        produced in: the kernel's ``int32`` as is, ``int64`` from ints."""
        if self._array is None:
            array = _owned_readonly(np.array(self._ids, dtype=np.int64))
            object.__setattr__(self, "_array", array)
        return self._array

    @property
    def ids_array(self) -> np.ndarray:
        """Selected node ids as a read-only ``int64`` array."""
        if self._wide is None:
            array = self.ids_compact
            if array.dtype != np.int64:
                array = _owned_readonly(array.astype(np.int64))
            object.__setattr__(self, "_wide", array)
        return self._wide

    @property
    def nodes(self) -> List[int]:
        """Selected node ids as a list (document order)."""
        return list(self._ids) if self._ids is not None else self._array.tolist()

    def __len__(self) -> int:
        return len(self._ids if self._ids is not None else self._array)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionResult):
            return NotImplemented
        mine, theirs = (self.accepted, self.ids), (other.accepted, other.ids)
        return mine == theirs and self.stats == other.stats

    def __repr__(self) -> str:
        return (
            f"ExecutionResult(accepted={self.accepted!r}, "
            f"ids=<{len(self)} ids>, stats={self.stats!r})"
        )

    def __reduce__(self):
        ids = self._array if self._array is not None else self._ids
        return (ExecutionResult, (self.accepted, ids, self.stats))


def _owned_readonly(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``'s data, copied first unless
    ``array`` owns its buffer (views and mmaps do not)."""
    view = (array if array.flags.owndata else array.copy()).view()
    view.flags.writeable = False
    return view


class PreparedQuery:
    """A query plan bound to one engine: parsed, compiled, resolved.

    Created by :meth:`repro.engine.api.Engine.prepare`.  Attributes:

    ``index``
        The engine's :class:`~repro.index.jumping.TreeIndex`, which the
        plan executes against.
    ``query``
        The original query (string form).
    ``path``
        The parsed :class:`~repro.xpath.ast.Path`.
    ``strategy``
        The registry strategy that will run it (after fallback
        resolution -- e.g. a backward-axis query prepared under
        ``optimized`` resolves to ``mixed``).
    ``artifacts``
        Per-plan scratch space for strategy-specific precomputation
        (the mixed strategy caches its forward-prefix automaton here,
        the deterministic strategy its minimal TDSTA, the automaton
        strategies their warmed run tables, the set-at-a-time kernel
        its bound program).

    A plan holds its engine weakly: the engine's plan cache holds the
    plan, and a strong edge back would make every engine a reference
    cycle that only the cyclic collector frees -- index and all.  A plan
    kept past its engine still executes, explains and labels: it holds
    the index and the compiled cache itself, and :attr:`engine` stands
    a fresh engine over them up on demand.
    """

    __slots__ = (
        "index",
        "query",
        "path",
        "strategy",
        "artifacts",
        "_cache",
        "_engine",
        "_asta",
        "_exec_lock",
        "_execute_impl",
    )

    def __init__(
        self, engine, query: str, path: Path, strategy: "Strategy"
    ) -> None:
        self.index = engine.index
        self._cache = engine.cache
        self._engine = weakref.ref(engine)
        self.query = query
        self.path = path
        self.strategy = strategy
        self.artifacts: Dict[str, object] = {}
        self._asta: Optional[ASTA] = None
        self._exec_lock = threading.Lock()
        # The bound evaluation entry point: the resolved strategy's own
        # ``execute`` (a slot, so a test can substitute a slow fake).
        self._execute_impl = strategy.execute
        strategy.prepare(self)

    @property
    def engine(self):
        """The engine that prepared this plan -- or, once that engine is
        gone, a fresh one over the same index and compiled cache."""
        engine = self._engine()
        if engine is None:
            from repro.engine.api import Engine

            engine = Engine(self.index, cache=self._cache)
        return engine

    def compile(
        self, query: Union[str, Path], *, parsed: Optional[Path] = None
    ) -> ASTA:
        """Compile (and cache) a query against this plan's document, as
        :meth:`repro.engine.api.Engine.compile` does."""
        return self._cache.get(
            query, wildcard_labels(self.index.tree), parsed=parsed
        )

    @property
    def asta(self) -> ASTA:
        """The compiled ASTA, compiled on first read: a strategy that
        runs it reads it in its ``prepare`` hook, the others never do --
        compiling a backward-axis path would be outside the forward
        fragment."""
        if self._asta is None:
            self._asta = self.compile(self.query, parsed=self.path)
        return self._asta

    def execute(self) -> ExecutionResult:
        """Run the plan; zero parsing/compilation happens here.

        Executions of *one* plan are serialized by a per-plan lock: the
        warmed tables in :attr:`artifacts` (memo entries, interned state
        sets) mutate during a run, so two threads landing on the same
        plan -- e.g. two concurrent batches, or two daemon requests for
        one query -- must not interleave.  Distinct plans (the parallel
        service's normal case: one per query of a batch) run fully
        concurrently; the uncontended acquisition costs nanoseconds
        against millisecond-scale runs.
        """
        stats = EvalStats()
        with self._exec_lock:
            accepted, ids = self._execute_impl(self, self.index, stats)
        return ExecutionResult(accepted, ids, stats)

    def select(self) -> List[int]:
        """Selected node ids, in document order (convenience)."""
        return self.execute().nodes

    def explain(self) -> str:
        """The resolved strategy and the plan it runs, in its own words
        (:meth:`~repro.engine.registry.Strategy.explain`)."""
        lines = [f"strategy: {self.strategy.name}"]
        if self.strategy.executes_as:
            lines.append(f"executes as: {self.strategy.executes_as}")
        return "\n".join(lines + self.strategy.explain(self))
