"""Deterministic evaluation for path queries (Section 3 end to end).

Pipeline: XPath -> ASTA -> exact TDSTA (subset construction) -> *minimal*
TDSTA (Appendix A.2) -> jumping run restricted to relevant nodes
(Algorithm B.1) -> selected nodes read off the partial run.

This is the Intro's "extreme |Q|-optimization" with the paper's
relevant-node machinery on top: minimization is what makes the relevant
nodes well-defined (Section 3), and Theorem 3.1 guarantees the run maps
exactly the relevant nodes.  Only predicate-free location paths qualify;
:func:`evaluate` raises :class:`~repro.automata.pathdet.NotPathShaped`
otherwise (the Engine facade falls back to the optimized ASTA engine).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.automata.minimize import minimize_tdsta
from repro.automata.pathdet import NotPathShaped, path_tdsta
from repro.automata.sta import STA
from repro.automata.topdown import topdown_jump
from repro.counters import EvalStats
from repro.engine.plan import COMPILED_CACHE_SIZE, cache_key, wildcard_labels
from repro.engine.registry import Strategy, register_strategy
from repro.index.jumping import TreeIndex
from repro.lru import LRUCache
from repro.xpath.ast import Path
from repro.xpath.compiler import compile_xpath

#: (query, wildcard label inventory) -> minimal TDSTA.  Process-wide and
#: bounded like the compiled-ASTA cache: a daemon request may name this
#: strategy, so a stream of distinct queries must not grow it for ever.
_tdsta_cache = LRUCache(COMPILED_CACHE_SIZE, lock=True)


def compile_tdsta(
    query: Union[str, Path], wildcard_labels: Optional[List[str]] = None
) -> STA:
    """Minimal complete TDSTA for a predicate-free path query (cached).

    Like the shared :class:`~repro.engine.plan.CompiledQueryCache`, the
    cache key includes the wildcard label inventory: on documents with
    encoded ``@attribute``/``#text`` labels the ``*`` test must compile
    against the element labels only, not match every label.
    """
    key = cache_key(query, wildcard_labels)
    with _tdsta_cache.lock:
        sta = _tdsta_cache.get(key)
        if sta is None:
            asta = compile_xpath(query, wildcard_labels=wildcard_labels)
            sta = minimize_tdsta(path_tdsta(asta))
            _tdsta_cache.put(key, sta)
    return sta


def run_tdsta(
    sta: STA, index: TreeIndex, stats: Optional[EvalStats] = None
) -> Tuple[bool, List[int]]:
    """Jumping run of a compiled minimal TDSTA; (accepted, selected ids)."""
    run = topdown_jump(sta, index, stats)
    tree = index.tree
    selected = sorted(
        v for v, q in run.items() if sta.selects(q, tree.label(v))
    )
    if stats is not None:
        stats.selected = len(selected)
    # For predicate-free path queries the ASTA accepts a tree iff a full
    # match exists, i.e. iff something is selected.
    return bool(selected), selected


def evaluate(
    query: Union[str, Path],
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
    wildcard_labels: Optional[List[str]] = None,
) -> Tuple[bool, List[int]]:
    """(accepted, selected ids) via the minimal-TDSTA jumping run.

    On documents with encoded ``@attribute``/``#text`` labels pass the
    element-label inventory as ``wildcard_labels`` (as
    :class:`~repro.engine.api.Engine` does), or ``*`` tests will match
    the encoded labels too.
    """
    return run_tdsta(compile_tdsta(query, wildcard_labels), index, stats)


def evaluate_bottomup_filter(
    query: Union[str, Path],
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
) -> Tuple[bool, List[int]]:
    """Bottom-up deterministic evaluation of ``//target[.//witness]``.

    The query class where the paper proves top-down determinism is
    impossible (Example A.1): a 3-state BDSTA evaluated with the
    subtree-skipping bottom-up run of Algorithm B.2.  Raises
    :class:`NotPathShaped` for other queries.
    """
    from repro.automata.bottomup import bottomup_jump, selected_by_run
    from repro.automata.pathdet import filter_bdsta, match_filter_query
    from repro.xpath.parser import parse_xpath

    path = parse_xpath(query) if isinstance(query, str) else query
    matched = match_filter_query(path)
    if matched is None:
        raise NotPathShaped("expected a //target[.//witness] query")
    target, witness = matched
    sta = filter_bdsta(target, witness)
    run = bottomup_jump(sta, index, stats)
    if run is None:
        return False, []
    tree = index.tree
    selected = sorted(
        v for v, q in run.items() if sta.selects(q, tree.label(v))
    )
    if stats is not None:
        stats.selected = len(selected)
    return bool(selected), selected


@register_strategy
class DeterministicStrategy(Strategy):
    """Minimal-TDSTA pipeline for predicate-free path queries (Section 3)."""

    name = "deterministic"
    fallback = "optimized"  # which in turn chains to mixed for backward axes

    def supports(self, path: Path) -> bool:
        # Path-shapedness is decided by the compiled automaton, so the
        # capability check compiles it -- the result lands in the global
        # TDSTA cache, making the later prepare() a lookup.
        if path.has_backward_axes():
            return False
        try:
            compile_tdsta(path)
        except NotPathShaped:
            return False
        return True

    def prepare(self, plan) -> None:
        # Compile against the engine's wildcard inventory (encoded
        # documents restrict '*' to element labels); path-shapedness is
        # label-set-independent, so the supports() check above stands.
        plan.artifacts["tdsta"] = compile_tdsta(
            plan.path, wildcard_labels(plan.index.tree)
        )

    def explain(self, plan):
        sta = plan.artifacts["tdsta"]
        return (
            [f"minimal TDSTA: {sta!r}"]
            + [f"  {t!r}" for t in sta.transitions]
            + [f"  selects {q} at {ls}" for q, ls in sta.selecting.items()]
        )

    def execute(self, plan, index, stats):
        return run_tdsta(plan.artifacts["tdsta"], index, stats)
