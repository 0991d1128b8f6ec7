"""Strategy-plugin registry: the engine's extension point.

Every evaluation strategy is an object with a ``name``, a declared
capability (:meth:`Strategy.supports`), an optional ``fallback`` strategy
name, and an :meth:`Strategy.execute` method that runs a prepared
:class:`~repro.engine.plan.QueryPlan` against a
:class:`~repro.index.jumping.TreeIndex`.  Strategies self-register with
the :func:`register_strategy` decorator; the ten built-in strategies
(``naive``, ``jumping``, ``memo``, ``optimized``, ``hybrid``,
``deterministic``, ``mixed``, ``vectorized``, ``window``, and ``auto``,
the default's name for ``window``'s kernel) live in their own modules under
:mod:`repro.engine` and register on import.

Dispatch is uniform: :func:`resolve` walks the fallback chain until it
finds a strategy whose ``supports(path)`` is true.  This replaces the old
if/elif special-casing in ``Engine.run`` -- backward axes, the hybrid
descendant-chain fragment, and the deterministic predicate-free fragment
are all just capability declarations now.  A third-party strategy only
has to register itself::

    from repro.engine.registry import Strategy, register_strategy

    @register_strategy
    class MyStrategy:
        name = "mine"
        fallback = "optimized"          # used when supports() is False

        def supports(self, path):
            return not path.has_backward_axes()

        def execute(self, plan, index, stats):
            return my_evaluate(plan.asta, index, stats)

and it becomes selectable through :class:`~repro.engine.api.Engine`,
the CLI (``--strategy mine``), and the registry conformance test suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.counters import EvalStats
    from repro.engine.plan import QueryPlan
    from repro.index.jumping import TreeIndex
    from repro.xpath.ast import Path


@runtime_checkable
class Strategy(Protocol):
    """The plugin protocol every evaluation strategy implements.

    Attributes
    ----------
    name:
        Registry key; also the ``--strategy`` CLI value.
    fallback:
        Name of the strategy to try when :meth:`supports` is false, or
        ``None`` for a terminal strategy (``mixed`` accepts everything).
    needs_asta:
        True when :meth:`execute` consumes the compiled ASTA of the plan;
        :meth:`repro.engine.api.Engine.prepare` then compiles it eagerly
        so later ``execute()`` calls do zero compilation work.
    parallel_safe:
        True when :meth:`execute` keeps all mutable run state on the plan
        and its arguments (never on the strategy instance), so the
        module-level singleton can be driven from several pool workers at
        once.  :class:`~repro.engine.parallel.QueryService` runs queries
        that resolve to a non-parallel-safe strategy serially in the
        submitting thread instead of fanning them out.  All built-in
        strategies are parallel-safe.
    """

    name: str
    fallback: Optional[str]
    needs_asta: bool
    parallel_safe: bool

    def supports(self, path: "Path") -> bool:
        """Can this strategy evaluate ``path`` natively?"""
        ...

    def execute(
        self, plan: "QueryPlan", index: "TreeIndex", stats: "EvalStats"
    ) -> Tuple[bool, Union[Sequence[int], "np.ndarray"]]:
        """Run the prepared plan; returns ``(accepted, selected ids)``: the
        ids in document order, duplicate-free, as a sequence of ints or an
        ``int64`` array (``vectorized``, ``window``) -- the
        :class:`~repro.engine.plan.ExecutionResult` converts on demand."""
        ...

    def prepare(self, plan: "QueryPlan") -> None:
        """Optional hook: precompute per-plan artifacts at prepare time."""
        ...


def _first_doc_line(cls: type) -> str:
    """First non-empty docstring line of ``cls`` (its one-line summary)."""
    doc = (cls.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


class StrategyBase:
    """Convenience defaults for :class:`Strategy` implementations."""

    name: str = ""
    fallback: Optional[str] = None
    needs_asta: bool = False
    parallel_safe: bool = True

    def supports(self, path: "Path") -> bool:
        return not path.has_backward_axes()

    def prepare(self, plan: "QueryPlan") -> None:  # pragma: no cover - hook
        pass

    @property
    def summary(self) -> str:
        """First docstring line -- what ``--list-strategies`` prints."""
        return _first_doc_line(type(self))


class AstaStrategy(StrategyBase):
    """Base for strategies that run a compiled ASTA through the stack
    machine of :mod:`repro.engine.core` (the Figure 4 series).

    Subclasses set :attr:`evaluator` to their module-level
    ``evaluate(asta, index, stats)`` function.  Strategies with
    :attr:`reuse_tables` keep a warmed
    :class:`~repro.engine.intern.RunTables` in ``plan.artifacts`` so
    repeated ``execute()`` calls on a prepared plan skip re-deriving memo
    entries, tda jump plans, and fused label arrays (the naive strategy
    opts out: paying the full per-node cost is its defining trait).
    """

    fallback = "mixed"  # backward axes route through the mixed pipeline
    needs_asta = True
    evaluator = None  # type: ignore[assignment]
    reuse_tables = True
    table_jumping = True  # whether the tables carry a TDA jump analysis

    def execute(self, plan, index, stats):
        evaluator = type(self).evaluator
        if not self.reuse_tables:
            return evaluator(plan.asta, index, stats)
        from repro.engine.intern import RunTables

        tables = plan.artifacts.get("run_tables")
        if (
            not isinstance(tables, RunTables)
            or tables.asta is not plan.asta
            or tables.index is not index
        ):
            tables = RunTables(
                plan.asta, index, jumping=self.table_jumping
            )
            plan.artifacts["run_tables"] = tables
        return evaluator(plan.asta, index, stats, tables=tables)


_REGISTRY: Dict[str, Strategy] = {}
_builtins_loaded = False
_generation = 0


def generation() -> int:
    """Monotonic counter bumped on every (un)registration.  Plan caches
    (``Engine._plans``) compare it to drop plans that resolved against a
    registry that has since changed."""
    return _generation


def register_strategy(obj):
    """Class decorator (or call with an instance) adding a strategy to the
    registry under its ``name``.  Re-registering a name replaces it."""
    global _generation
    strategy = obj() if isinstance(obj, type) else obj
    if not getattr(strategy, "name", ""):
        raise ValueError(f"strategy {obj!r} has no name")
    _REGISTRY[strategy.name] = strategy
    _generation += 1
    return obj


def unregister_strategy(name: str) -> None:
    """Remove a strategy (test helper for throwaway plugins)."""
    global _generation
    if _REGISTRY.pop(name, None) is not None:
        _generation += 1


def _load_builtins() -> None:
    """Import the built-in strategy modules so they self-register."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    from repro.engine import (  # noqa: F401  (imported for side effects)
        deterministic,
        frontier,
        hybrid,
        jumping,
        memo,
        mixed,
        naive,
        optimized,
        planner,
        window,
    )


def get_strategy(name: str) -> Strategy:
    """Look up a registered strategy; raises ``ValueError`` if unknown."""
    _load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {strategy_names()}"
        ) from None


def strategy_names() -> List[str]:
    """Sorted names of all registered strategies."""
    _load_builtins()
    return sorted(_REGISTRY)


def all_strategies() -> List[Strategy]:
    """All registered strategy instances, sorted by name."""
    _load_builtins()
    return [_REGISTRY[name] for name in strategy_names()]


def describe_strategies() -> List[Tuple[str, str]]:
    """(name, one-line summary) pairs for ``--list-strategies``.

    ``auto`` leads the listing (it is the default); the rest follow in
    name order.
    """
    pairs = [
        (
            strategy.name,
            getattr(strategy, "summary", None)
            or _first_doc_line(type(strategy)),
        )
        for strategy in all_strategies()
    ]
    pairs.sort(key=lambda pair: (pair[0] != "auto", pair[0]))
    return pairs


def resolve(name: str, path: "Path") -> Strategy:
    """The strategy that will actually evaluate ``path`` when ``name`` is
    requested: walk the fallback chain until ``supports(path)`` holds."""
    strategy = get_strategy(name)
    seen = set()
    while not strategy.supports(path):
        seen.add(strategy.name)
        nxt = getattr(strategy, "fallback", None)
        if nxt is None or nxt in seen:
            raise ValueError(
                f"no strategy can evaluate {str(path)!r}: fallback chain "
                f"from {name!r} exhausted at {strategy.name!r}"
            )
        strategy = get_strategy(nxt)
    return strategy
