"""One-call public API.

>>> from repro import parse_xml, Engine
>>> doc = parse_xml("<r><a><x/><b/></a><b/></r>")
>>> Engine(doc).select("//a/b")
[3]

:class:`Engine` binds one document to a tree index, a compiled-query
cache, and a prepared-plan cache.  Strategy dispatch goes through the
plugin registry (:mod:`repro.engine.registry`): the engine asks the
registry to resolve the requested strategy against the parsed path, and
the resolved strategy's fallback chain decides what actually runs
(``auto`` and ``window`` answer every absolute path themselves; under an
automaton strategy backward axes end up on ``mixed``, non-chain queries
under ``hybrid`` on ``optimized``, and so on).

For query reuse and per-execution statistics use :meth:`Engine.prepare`;
for many documents sharing one compiled-query cache use
:class:`repro.engine.workspace.Workspace`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.asta.automaton import ASTA
from repro.engine import registry
from repro.engine.plan import (
    CompiledQueryCache,
    ExecutionResult,
    PreparedQuery,
    wildcard_labels,
)
from repro.index.jumping import TreeIndex
from repro.lru import LRUCache
from repro.tree.binary import BinaryTree
from repro.tree.document import XMLDocument
from repro.xpath.ast import Path
from repro.xpath.compiler import require_absolute
from repro.xpath.parser import parse_xpath

#: LRU capacity of the per-engine prepared-plan cache.  A
#: long-lived service streaming distinct query strings past one document
#: would otherwise hold every plan (and its warmed tables) forever.
PLAN_CACHE_SIZE = 256


class Engine:
    """An XPath engine bound to one document.

    Parameters
    ----------
    document:
        An :class:`XMLDocument`, a :class:`BinaryTree`, a prebuilt
        :class:`TreeIndex`, a reopened
        :class:`~repro.store.StoredDocument`, or an XML string.  A
        string is parsed *streaming* -- scanner events append directly
        into the binary tree's arrays
        (:mod:`repro.tree.builder`); no per-element ``XMLNode`` is
        allocated.  A stored document arrives with its index already
        compiled, so construction does no parsing at all.
    strategy:
        Any name registered in :mod:`repro.engine.registry` (built-ins:
        ``auto | naive | jumping | memo | optimized | hybrid |
        deterministic | mixed | vectorized | window``; default ``auto``,
        as in the CLI and the daemon).  ``naive``, ``jumping``,
        ``memo`` and ``optimized`` are the Figure 4 series: one automaton
        machine, one row of :data:`repro.engine.core.SERIES` switches each.
        Strategies that do not support a given query fall back along
        their declared chain -- ``hybrid`` applies start-anywhere
        planning to descendant chains and falls back to ``optimized``;
        ``deterministic`` runs predicate-free path queries through the
        minimal-TDSTA pipeline of Section 3 (Algorithm B.1);
        ``vectorized`` evaluates absolute forward paths set-at-a-time
        over numpy frontiers, ``window`` every absolute path; ``auto``
        is ``window``'s kernel under the default's name.  A backward
        axis under an automaton strategy resolves to ``mixed``
        (Section 6); a relative top-level path is refused here, for
        every strategy alike.
    cache:
        An optional shared :class:`CompiledQueryCache` (a
        :class:`~repro.engine.workspace.Workspace` passes one cache to
        all of its engines); by default each engine owns a private one.

    Nothing an engine owns points back at it (its plans hold it weakly),
    so dropping the last reference frees the engine and its index at
    once, without waiting for the cyclic collector.
    """

    def __init__(
        self,
        document: Union[XMLDocument, BinaryTree, TreeIndex, str],
        strategy: str = "auto",
        encode_attributes: bool = False,
        encode_text: bool = False,
        cache: Optional[CompiledQueryCache] = None,
    ) -> None:
        # One shared dispatch with repro.store.save_document: XML text
        # and event sources stream through the array builder, stored
        # documents arrive with their compiled index, and encode flags
        # are rejected on already-encoded inputs.
        from repro.store.store import resolve_document

        self.index = resolve_document(document, encode_attributes, encode_text)
        self.tree = self.index.tree
        self.cache = cache if cache is not None else CompiledQueryCache()
        # (query, strategy) -> PreparedQuery
        self._plans = LRUCache(PLAN_CACHE_SIZE, lock=True)
        self._plans_generation = registry.generation()
        self.set_strategy(strategy)

    def set_strategy(self, strategy: str) -> None:
        """Set the default strategy for subsequent queries (validated
        against the registry)."""
        registry.get_strategy(strategy)  # raises ValueError if unknown
        self.strategy = strategy

    def compile(
        self, query: Union[str, Path], *, parsed: Optional[Path] = None
    ) -> ASTA:
        """Compile (and cache) a query.

        On documents with encoded attribute/text labels, the ``*`` node
        test is resolved against the document's element-label inventory
        (see :func:`repro.xpath.compiler.compile_xpath`).
        """
        return self.cache.get(query, wildcard_labels(self.tree), parsed=parsed)

    def prepare(
        self, query: Union[str, Path], strategy: Optional[str] = None
    ) -> PreparedQuery:
        """Parse, compile, and resolve ``query`` into a reusable plan.

        Plans are cached per ``(query, strategy)`` in an LRU bounded by
        :data:`PLAN_CACHE_SIZE`: re-preparing a query returns the same
        object while it stays cached (``execute()`` on it does zero
        re-parsing and zero re-compilation); a query evicted by
        ``PLAN_CACHE_SIZE`` *distinct* newer ones is rebuilt -- and
        re-warms -- on its next prepare.  The plan cache is guarded by a
        lock so pool threads of a
        :class:`~repro.engine.parallel.QueryService` can prepare
        different queries on one engine concurrently without
        duplicating plans or racing the generation check.
        """
        with self._plans.lock:
            key, plan = self._lookup(query, strategy)
            if plan is None:
                path = parse_xpath(query) if isinstance(query, str) else query
                require_absolute(path)
                resolved = registry.resolve(key[1], path)
                plan = PreparedQuery(self, query, path, resolved)
                self._plans.put(key, plan)
        return plan

    def cached_plan(
        self, query: Union[str, Path], strategy: Optional[str] = None
    ) -> Optional[PreparedQuery]:
        """The non-building half of :meth:`prepare`: the cached plan
        (now the most recently used), or ``None`` -- nothing is parsed,
        compiled or resolved.  A caller that must not block (the serve
        daemon's event loop) looks here and leaves the build to a worker.
        """
        with self._plans.lock:
            return self._lookup(query, strategy)[1]

    def _lookup(self, query: Union[str, Path], strategy: Optional[str]):
        """``(key, cached plan or None)``; the cache's lock must be held."""
        plans = self._plans
        if self._plans_generation != registry.generation():
            # A strategy was (re/un)registered: cached resolutions and
            # strategy objects may be stale.
            plans.data.clear()
            self._plans_generation = registry.generation()
        key = (
            query if isinstance(query, str) else str(query),
            strategy if strategy is not None else self.strategy,
        )
        return key, plans.get(key)

    def cache_info(self) -> dict:
        """Statistics of every bounded cache this engine touches.

        ``plans`` is the per-engine LRU of prepared plans, ``fused`` the
        label index's merged-union LRU, ``compiled`` the (possibly
        shared) compiled-automaton cache.  Surfaced by the CLI's
        ``--stats`` so a long-lived service can watch its memory-relevant
        caches stay bounded.
        """
        with self._plans.lock:
            plans = self._plans.cache_info()
        return {
            "plans": plans,
            "fused": self.index.labels.cache_info(),
            "compiled": self.cache.cache_info(),
        }

    def execute(self, query: Union[str, Path]) -> ExecutionResult:
        """Prepare (or reuse) a plan and execute it once."""
        return self.prepare(query).execute()

    def select(self, query: Union[str, Path]) -> List[int]:
        """Node ids selected by ``query``, in document order."""
        return self.run(query)[1]

    def run(self, query: Union[str, Path]) -> Tuple[bool, List[int]]:
        """(accepted, selected ids) of one :meth:`execute`."""
        result = self.execute(query)
        return result.accepted, result.nodes

    def count(self, query: Union[str, Path]) -> int:
        """Number of selected nodes."""
        return len(self.execute(query))

    def labels_of(self, ids: List[int]) -> List[str]:
        """Element names of a result list (convenience for examples)."""
        labels = self.tree.labels
        picked = self.index.label_of_array()[np.asarray(ids, dtype=np.int64)]
        return [labels[lab] for lab in picked.tolist()]

    def extract(self, query: Union[str, Path], indent: int = 0) -> List[str]:
        """Serialized XML subtrees of the selected nodes."""
        from repro.tree.serialize import subtree_to_xml

        return [
            subtree_to_xml(self.tree, v, indent=indent)
            for v in self.select(query)
        ]

    def explain(self, query: Union[str, Path]) -> str:
        """Describe the resolved strategy, compiled automaton, and plan."""
        return self.prepare(query).explain()


def evaluate(
    document: Union[XMLDocument, BinaryTree, TreeIndex, str],
    query: Union[str, Path],
    strategy: str = "auto",
) -> List[int]:
    """One-shot convenience wrapper around :class:`Engine`."""
    return Engine(document, strategy).select(query)
