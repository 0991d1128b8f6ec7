"""Strategy-plugin registry: the engine's extension point.

Every evaluation strategy subclasses :class:`Strategy`: a ``name``, a
declared capability (:meth:`Strategy.supports`), an optional
``fallback`` strategy name, an :meth:`Strategy.execute` method that
runs a prepared :class:`~repro.engine.plan.QueryPlan` against a
:class:`~repro.index.jumping.TreeIndex`, and two optional hooks:
:meth:`Strategy.prepare` (precompute at prepare time) and
:meth:`Strategy.explain` (the plan lines ``explain`` prints).
Strategies self-register with the :func:`register_strategy` decorator;
there are ten built-in strategies.  The four Figure 4 series
(``naive``, ``jumping``, ``memo``, ``optimized``) are
:class:`AstaStrategy` instances, one per row of
:data:`repro.engine.core.SERIES`.  ``hybrid``, ``deterministic``,
``mixed``, ``vectorized``, ``window`` and ``auto`` (the default's name
for ``window``'s kernel) live in their own modules under
:mod:`repro.engine` and register on import.

Dispatch is uniform: :func:`resolve` walks the fallback chain until it
finds a strategy whose ``supports(path)`` is true.  Backward axes, the
hybrid descendant-chain fragment and the deterministic predicate-free
fragment are all capability declarations.  A third-party strategy only
has to subclass and register itself::

    from repro.engine.registry import Strategy, register_strategy

    @register_strategy
    class MyStrategy(Strategy):
        name = "mine"
        fallback = "optimized"          # used when supports() is False

        def supports(self, path):
            return not path.has_backward_axes()

        def prepare(self, plan):
            plan.asta                   # compile eagerly, not on execute

        def execute(self, plan, index, stats):
            return my_evaluate(plan.asta, index, stats)

and it becomes selectable through :class:`~repro.engine.api.Engine`,
the CLI (``--strategy mine``), and the registry conformance test suite.
The first line of its class docstring is what ``--list-strategies``
prints beside its name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.core import SERIES, run_asta
from repro.engine.intern import RunTables

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.counters import EvalStats
    from repro.engine.plan import QueryPlan
    from repro.index.jumping import TreeIndex
    from repro.xpath.ast import Path


class Strategy:
    """The base class every evaluation strategy subclasses.

    Attributes
    ----------
    name:
        Registry key; also the ``--strategy`` CLI value.
    fallback:
        Name of the strategy to try when :meth:`supports` is false, or
        ``None`` for a terminal strategy (``mixed`` accepts everything).
    executes_as:
        The name of the strategy whose code runs the plan, when it is
        not this one (``auto`` runs ``window``'s kernel), else ``None``.

    :meth:`execute` keeps all mutable run state on the plan and its
    arguments, never on the strategy instance: one registered instance
    serves every thread at once.
    """

    name: str = ""
    fallback: Optional[str] = None
    executes_as: Optional[str] = None

    def supports(self, path: "Path") -> bool:
        """Can this strategy evaluate ``path`` natively?"""
        return not path.has_backward_axes()

    def prepare(self, plan: "QueryPlan") -> None:
        """Hook: precompute per-plan artifacts at prepare time (compile
        what :meth:`execute` reads, so a warm ``execute()`` compiles
        nothing)."""

    def explain(self, plan: "QueryPlan") -> List[str]:
        """Hook: the lines ``PreparedQuery.explain`` prints below its
        header -- the plan this strategy runs, as it runs it."""
        return []

    def execute(
        self, plan: "QueryPlan", index: "TreeIndex", stats: "EvalStats"
    ) -> Tuple[bool, Union[Sequence[int], "np.ndarray"]]:
        """Run the prepared plan; returns ``(accepted, selected ids)``: the
        ids in document order, duplicate-free, as a sequence of ints or an
        integer array (``int32`` from ``vectorized``, ``window`` and
        ``hybrid``) -- the :class:`~repro.engine.plan.ExecutionResult`
        converts on demand.
        ``stats`` is this run's one :class:`~repro.counters.EvalStats`,
        allocated by ``PreparedQuery.execute`` (never ``None``): book the
        run into it, and hand it to every machine the run calls."""
        raise NotImplementedError

    @property
    def summary(self) -> str:
        """First docstring line -- what ``--list-strategies`` prints."""
        doc = (type(self).__doc__ or "").strip()
        return doc.splitlines()[0] if doc else ""


class AstaStrategy(Strategy):
    """One Figure 4 series: the compiled ASTA on the stack machine of
    :mod:`repro.engine.core`, with that series' row of
    :data:`~repro.engine.core.SERIES` switches.

    A plan keeps a warmed :class:`~repro.engine.intern.RunTables` in
    ``plan.artifacts``, so repeated ``execute()`` calls skip re-deriving
    memo entries, tda jump plans and fused label arrays.
    """

    fallback = "mixed"  # backward axes route through the mixed pipeline

    SUMMARIES = {
        "naive": 'Full traversal, |Q| transition scan per node (Figure 4 "Naive").',
        "jumping": 'Relevant-node jumping without memoization (Figure 4 "Jumping").',
        "memo": 'Full traversal with memoized transitions (Figure 4 "Memo").',
        "optimized": 'Jumping + memoization + information propagation (Figure 4 "Opt.").',
    }

    def __init__(self, name: str) -> None:
        self.name = name
        self.switches = SERIES[name]

    @property
    def summary(self) -> str:
        return self.SUMMARIES[self.name]

    def prepare(self, plan):
        plan.asta

    def explain(self, plan):
        return [plan.asta.describe()]

    def execute(self, plan, index, stats):
        tables = plan.artifacts.get("run_tables")
        if tables is None:
            tables = RunTables(plan.asta, index, jumping=self.switches["jumping"])
            plan.artifacts["run_tables"] = tables
        return run_asta(
            plan.asta, index, stats=stats, tables=tables, **self.switches
        )


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
    if not strategy.name:
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
        mixed,
        planner,
        window,
    )
    for name in SERIES:
        register_strategy(AstaStrategy(name))


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
    pairs = [(strategy.name, strategy.summary) for strategy in all_strategies()]
    pairs.sort(key=lambda pair: (pair[0] != "auto", pair[0]))
    return pairs


def resolve(name: str, path: "Path") -> Strategy:
    """The strategy that will actually evaluate ``path`` when ``name`` is
    requested: walk the fallback chain until ``supports(path)`` holds."""
    strategy = get_strategy(name)
    seen = set()
    while not strategy.supports(path):
        seen.add(strategy.name)
        nxt = strategy.fallback
        if nxt is None or nxt in seen:
            raise ValueError(
                f"no strategy can evaluate {str(path)!r}: fallback chain "
                f"from {name!r} exhausted at {strategy.name!r}"
            )
        strategy = get_strategy(nxt)
    return strategy
