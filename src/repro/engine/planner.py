"""Cost-based adaptive planning: the ``auto`` strategy.

The PR 1 registry made strategies pluggable but left *choosing* one to
the user.  This module closes the loop: ``auto`` extracts features from
a ``(query, document)`` pair -- axes used, predicate shape, wildcard and
encoding flags, and per-label selectivities read for free from the
:class:`~repro.index.labels.LabelIndex` array lengths (or from the
document stats a :mod:`repro.store` bundle persisted at build time) --
prices each candidate strategy with a simple touch-count cost model,
and binds the cheapest one to the prepared plan.

The model is deliberately coarse; what keeps it honest is the *feedback
loop*: every execution's actual counters are folded back into the plan's
:class:`PlannerState`.  When the observed cost strays from the estimate
by more than :data:`REPLAN_FACTOR`, the plan is re-priced with
observations overriding estimates, so a mis-planned query converges
onto the strategy that is actually cheapest for *this* document -- the
classic adaptive re-optimization loop, at plan-cache granularity.  A
strategy runs only when the model or a counter observation says it is
cheapest: nothing is executed to be measured, and nothing reads a
clock, so the verdict is a function of the document and the query.
Once a plan has converged it *freezes* -- dispatch is handed straight
to the winning strategy, so a steady-state execution pays zero planner
overhead.

Cost units are "weighted element touches": one numpy array element
costs 1, one interpreted per-node automaton step costs
:data:`NODE_WEIGHT`, and every vectorized pass pays a fixed
:data:`VEC_CALL` dispatch overhead (what makes node-at-a-time win on
tiny documents).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.engine import registry
from repro.engine.registry import StrategyBase, register_strategy
from repro.index.jumping import TreeIndex
from repro.xpath.ast import (
    Axis,
    Path,
    Pred,
    PredAnd,
    PredNot,
    PredOr,
    PredPath,
)

#: Strategies the planner prices against each other.  All accept the
#: whole forward fragment through their fallback chains, so the chosen
#: name is always executable.  ``vectorized`` and ``window`` run the same
#: kernel: a path is priced under the one whose fragment is the
#: narrowest that holds it (see :func:`estimate_costs`).
CANDIDATES: Tuple[str, ...] = ("vectorized", "window", "optimized", "hybrid")

#: The two registry names of the set-at-a-time kernel.
SET_AT_A_TIME: Tuple[str, ...] = ("vectorized", "window")

#: Interpreted per-node work, in units of one numpy array-element touch.
NODE_WEIGHT = 24.0

#: Fixed dispatch cost of one vectorized pass (ufunc setup, allocation).
VEC_CALL = 220.0

#: Re-plan when |observed / estimated| leaves [1/f, f].
REPLAN_FACTOR = 4.0

#: Freeze a plan (stop feedback bookkeeping) after this many consecutive
#: executions without a strategy switch -- keeps the planner's per-call
#: overhead off the hot path of converged micro-queries.
CONVERGED_RUNS = 3

# -- feature extraction ------------------------------------------------------


@dataclass(frozen=True)
class QueryFeatures:
    """Everything the cost model reads, extracted in one pass.

    ``step_candidates`` holds the candidate-array length per location
    step (the per-label id-array sizes, summed for wildcard tests);
    ``fanout`` the document's mean number of children per inner node;
    ``pred_candidates`` the total candidate elements its predicate
    subtree touches back to front, ``pred_touches`` the same with every
    path capped at its first-witness price from that step's candidates
    (what a set-at-a-time kernel will run).  All come from O(1)
    ``LabelIndex`` lookups.
    """

    n: int
    height: int
    steps: int
    axes: Tuple[str, ...]
    wildcard_steps: int
    pred_depth: int
    pred_paths: int
    encoded: bool
    step_candidates: Tuple[int, ...]
    pred_candidates: Tuple[int, ...]
    pred_touches: Tuple[int, ...]
    descendant_steps: int
    min_candidates: int
    fanout: float = 1.0

    @property
    def total_candidates(self) -> int:
        return sum(self.step_candidates)

    @property
    def total_pred_candidates(self) -> int:
        return sum(self.pred_candidates)

    @cached_property
    def operators(self) -> Tuple[Tuple[str, float], ...]:
        """:func:`step_operators` of these features, computed once: the
        cost model, ``explain`` and every snapshot read the same list."""
        return tuple(step_operators(self))


def doc_height(index: TreeIndex) -> int:
    """The document height, from persisted store stats when available.

    A :mod:`repro.store` bundle records ``stats.height`` in its header
    at build time; a parsed document's tree carries the height its
    derivation found (:meth:`repro.tree.binary.BinaryTree.height`).
    """
    stats = getattr(index, "doc_stats", None)
    if isinstance(stats, dict) and isinstance(stats.get("height"), int):
        return stats["height"]
    return index.tree.height()


def mean_fanout(index: TreeIndex) -> float:
    """Children per inner node, the planner's prior for what a
    context-side child join gathers per frontier node (one vectorized
    pass over ``xml_end``, cached on the index)."""
    cached = getattr(index, "_planner_fanout", None)
    if cached is None:
        import numpy as np

        ends = index.xml_end_array()
        inner = int(np.count_nonzero(ends > np.arange(1, ends.size + 1)))
        cached = index._planner_fanout = (ends.size - 1) / max(1, inner)
    return cached


def _pred_shape(pred: Pred, depth: int) -> Tuple[int, int]:
    """(max nesting depth, path count) of a predicate."""
    if isinstance(pred, (PredAnd, PredOr)):
        ld, lp = _pred_shape(pred.left, depth)
        rd, rp = _pred_shape(pred.right, depth)
        return max(ld, rd), lp + rp
    if isinstance(pred, PredNot):
        return _pred_shape(pred.inner, depth)
    if isinstance(pred, PredPath):
        nested_depth = depth
        nested_paths = 1
        for step in pred.path.steps:
            if step.predicate is not None:
                d, p = _pred_shape(step.predicate, depth + 1)
                nested_depth = max(nested_depth, d)
                nested_paths += p
        return nested_depth, nested_paths
    raise AssertionError(pred)


def extract_features(path: Path, index: TreeIndex) -> QueryFeatures:
    """One-pass feature extraction for the cost model (O(query size)).

    Candidate counts come from the evaluator's own sizing
    (:func:`repro.engine.frontier.candidate_count` / ``pred_size``), so
    what the planner prices and what the kernels choose their join side
    by cannot drift."""
    from repro.engine.frontier import candidate_count, pred_size

    step_candidates: List[int] = []
    pred_candidates: List[int] = []
    pred_touches: List[int] = []
    axes: List[str] = []
    wildcards = 0
    pred_depth = 0
    pred_paths = 0
    descendants = 0
    for step in path.steps:
        axes.append(step.axis.value)
        if step.test_matches_any():
            wildcards += 1
        if step.axis is Axis.DESCENDANT:
            descendants += 1
        step_candidates.append(candidate_count(index, step.axis, step.test))
        if step.predicate is not None:
            d, p = _pred_shape(step.predicate, 1)
            pred_candidates.append(pred_size(index, step.predicate))
            pred_touches.append(
                pred_size(index, step.predicate, step_candidates[-1])
            )
            pred_depth = max(pred_depth, d)
            pred_paths += p
        else:
            pred_candidates.append(0)
            pred_touches.append(0)
    tree = index.tree
    return QueryFeatures(
        n=tree.n,
        height=doc_height(index),
        steps=len(path.steps),
        axes=tuple(axes),
        wildcard_steps=wildcards,
        pred_depth=pred_depth,
        pred_paths=pred_paths,
        encoded=any(l.startswith(("@", "#")) for l in tree.labels),
        step_candidates=tuple(step_candidates),
        pred_candidates=tuple(pred_candidates),
        pred_touches=tuple(pred_touches),
        descendant_steps=descendants,
        min_candidates=(
            min(step_candidates) if step_candidates else 0
        ),
        fanout=mean_fanout(index),
    )


# -- cost model --------------------------------------------------------------


def step_operators(features: QueryFeatures) -> List[Tuple[str, float]]:
    """Per location step, the physical operator a set-at-a-time run will
    pick and the array elements it states it touches.

    The kernel picks from the sizes in hand
    (:func:`repro.engine.joins.join`); before running, the frontier a
    step meets is bounded by the previous step's candidate count and,
    below a child / sibling step, by the children the frontier before it
    has (``fanout`` each).  The same rule applied to that bound
    (:func:`joins.plan_operator`) names the operator priced here.  The
    first step joins nothing: the document node's only child is the
    root, its descendants are the candidates.
    """
    from repro.engine.joins import plan_operator

    out: List[Tuple[str, float]] = []
    ctx = 0
    for axis, cnt in zip(features.axes, features.step_candidates):
        if ctx == 0:
            reach = cnt if axis == "descendant" else min(cnt, 1)
            out.append(("document", float(reach)))
        else:
            op, touches = plan_operator(
                Axis(axis), ctx, cnt, features.n, features.fanout
            )
            out.append((op.name, touches))
            if axis in ("child", "attribute", "following-sibling"):
                reach = ctx * features.fanout
            else:
                reach = ctx if axis == "parent" else cnt
        ctx = max(1, int(min(cnt, reach)))
    return out


def describe_operators(path: Path, features: QueryFeatures) -> List[str]:
    """The ``explain`` lines of :func:`step_operators`: one per location
    step, the operator the kernel is expected to run and its touches."""
    lines = ["set-at-a-time steps (operator priced from candidate counts):"]
    for i, (step, (name, touches)) in enumerate(
        zip(path.steps, features.operators), 1
    ):
        lines.append(
            f"  {i}. {step.axis.value + '::' + step.test:<34s} {name:<24s}"
            f"~{touches:,.0f} touches"
        )
    return lines


def _set_at_a_time_touches(features: QueryFeatures) -> float:
    """Array elements the steps and predicates of a set-at-a-time run
    touch: each step the term its operator states, each predicate
    ``pred_touches`` (the comparison of ``frontier._pred_mask``)."""
    return sum(t for _, t in features.operators) + sum(
        features.pred_touches
    )


def estimate_costs(path: Path, features: QueryFeatures) -> Dict[str, float]:
    """Estimated cost (weighted element touches) per candidate strategy.

    Monotone in the obvious knobs: more steps or more predicate work
    never *lowers* a strategy's estimate, nor do more candidate elements
    while each join keeps its side.
    """
    from repro.engine.frontier import is_vectorizable
    from repro.engine.window import is_window_evaluable

    ops = features.steps + features.pred_paths
    costs: Dict[str, float] = {}
    # Set-at-a-time: every touch costs 1, plus a fixed per-pass dispatch.
    # ``vectorized`` and ``window`` are one kernel under two fragments,
    # so one of them is priced -- the narrower name where it applies,
    # ``window`` for paths with backward axes.  Priced only inside its
    # native fragment: estimating a strategy that would resolve away
    # through its fallback chain would leave the choice and the
    # executing strategy out of sync (the feedback loop keys
    # observations by the *active* strategy's name).
    if is_window_evaluable(path):
        name = "vectorized" if is_vectorizable(path) else "window"
        costs[name] = VEC_CALL * (3 * ops) + _set_at_a_time_touches(features)
    # Node-at-a-time automaton run: jumping restricts the run to roughly
    # the same relevant elements, but each costs an interpreted step.
    # Existence predicates short-circuit on the first witness, bounded
    # here by one frontier's worth of probes per predicate path.
    # Backward-axis paths resolve away to the mixed pipeline, so pricing
    # "optimized" there would leave choice and executor out of sync.
    pred_opt = min(
        features.total_pred_candidates,
        (features.min_candidates + features.height)
        * max(1, features.pred_paths),
    )
    if not path.has_backward_axes():
        costs["optimized"] = NODE_WEIGHT * (
            features.total_candidates + pred_opt
        ) + NODE_WEIGHT * features.steps
    # Hybrid start-anywhere: only priced inside its fragment -- pivot
    # nodes climb O(height) ancestors (a vectorized pass per level),
    # then the suffix is collected with vectorized range slices.
    from repro.engine.hybrid import is_hybrid_applicable

    if is_hybrid_applicable(path):
        pivot = features.min_candidates
        costs["hybrid"] = (
            VEC_CALL * (features.height + features.steps)
            + float(pivot) * features.height
            + float(features.total_candidates - pivot)
            + features.total_pred_candidates
        )
    return costs


#: Strategies whose counters are array-element touches and whose
#: ``jumps`` are array passes (hybrid's suffix collection and prefix
#: check are numpy passes too); the rest count interpreted per-node steps.
_ARRAY_STRATEGIES = frozenset({"vectorized", "window", "hybrid"})


def _actual_cost(stats, strategy_name: str) -> float:
    """Observed cost of one execution, in the model's touch units.

    The counters mean different things per strategy, so they are
    re-weighted the way the estimates are built: an array strategy pays
    1 per element touched and :data:`VEC_CALL` per pass -- without the
    dispatch term a relevance-driven run that touches a few dozen
    elements could never land near its estimate -- a node-at-a-time
    strategy :data:`NODE_WEIGHT` per counted step.
    """
    if strategy_name in _ARRAY_STRATEGIES:
        return stats.visited + stats.index_probes + VEC_CALL * stats.jumps
    return NODE_WEIGHT * (stats.visited + stats.index_probes + stats.jumps)


@dataclass
class PlanChoice:
    """The planner's verdict for one ``(query, document)`` pair."""

    strategy: str
    estimate: float
    costs: Dict[str, float]
    features: QueryFeatures

    def describe(self) -> str:
        lines = [
            f"planner: chose {self.strategy!r} "
            f"(estimated cost {self.estimate:,.0f} touches)",
            "  candidate costs:",
        ]
        for name, cost in sorted(self.costs.items(), key=lambda kv: kv[1]):
            marker = "*" if name == self.strategy else " "
            lines.append(f"  {marker} {name:11s} {cost:>14,.0f}")
        f = self.features
        lines.append(
            f"  features: n={f.n} height={f.height} steps={f.steps} "
            f"axes={'/'.join(f.axes)} wildcards={f.wildcard_steps} "
            f"pred_depth={f.pred_depth} "
            f"candidates={list(f.step_candidates)} "
            f"pred_candidates={list(f.pred_candidates)}"
        )
        return "\n".join(lines)


@dataclass
class PlannerState:
    """Per-plan adaptive state: the choice plus the feedback record."""

    choice: PlanChoice
    runs: int = 0
    replans: int = 0
    observed: Dict[str, float] = field(default_factory=dict)
    active: object = None  # the bound Strategy instance
    frozen: bool = False
    _stable_runs: int = 0

    @classmethod
    def plan(cls, path: Path, index: TreeIndex) -> "PlannerState":
        features = extract_features(path, index)
        costs = estimate_costs(path, features)
        name = min(costs, key=costs.get)
        return cls(choice=PlanChoice(name, costs[name], costs, features))

    def observe(self, strategy_name: str, stats) -> Optional[str]:
        """Fold one execution's counters back in; maybe re-choose.

        Returns the *new* strategy name when the observation pushed the
        plan to a different choice, else ``None``.  Observed costs are
        re-weighted into model units (:func:`_actual_cost`) and
        replace the estimates of strategies that have actually run.
        """
        self.runs += 1
        actual = _actual_cost(stats, strategy_name)
        seen = self.observed.get(strategy_name)
        self.observed[strategy_name] = (
            actual if seen is None else min(seen, actual)
        )
        estimate = self.choice.costs.get(strategy_name)
        if estimate is None or strategy_name != self.choice.strategy:
            return None
        in_band = (
            estimate / REPLAN_FACTOR
            <= max(actual, 1.0)
            <= estimate * REPLAN_FACTOR
        )
        if in_band:
            self._stable_runs += 1
            if self._stable_runs >= CONVERGED_RUNS:
                self.frozen = True
            return None
        self._stable_runs = 0
        # Re-price with observations overriding estimates.
        costs = dict(self.choice.costs)
        costs.update(self.observed)
        name = min(costs, key=costs.get)
        self.choice = PlanChoice(
            name, costs[name], costs, self.choice.features
        )
        if name != strategy_name:
            self.replans += 1
            return name
        return None

    def snapshot(self) -> dict:
        """JSON-friendly view (surfaced by ``repro plan explain``)."""
        return {
            "strategy": self.choice.strategy,
            "estimate": round(self.choice.estimate, 1),
            "costs": {
                k: round(v, 1) for k, v in self.choice.costs.items()
            },
            "operators": [
                name for name, _ in self.choice.features.operators
            ]
            if self.choice.strategy in SET_AT_A_TIME
            else [],
            "runs": self.runs,
            "replans": self.replans,
            "frozen": self.frozen,
            "observed": {
                k: round(v, 1) for k, v in self.observed.items()
            },
        }


# -- the strategy ------------------------------------------------------------


@register_strategy
class AutoStrategy(StrategyBase):
    """Cost-based planner: picks the cheapest strategy per query+document."""

    name = "auto"
    fallback = "mixed"  # relative backward paths: route directly
    needs_asta = False
    parallel_safe = True

    def supports(self, path: Path) -> bool:
        # Forward paths are planned across the full candidate set;
        # absolute backward paths are planned too now that the window
        # strategy evaluates ancestor/parent natively (the cost table
        # then prices window alone -- every other candidate would
        # resolve away through its fallback chain).
        from repro.engine.window import is_window_evaluable

        return not path.has_backward_axes() or is_window_evaluable(path)

    def prepare(self, plan) -> None:
        state = PlannerState.plan(plan.path, plan.engine.index)
        plan.artifacts["planner"] = state
        self._bind(plan, state, state.choice.strategy)
        self._freeze_if_sole_candidate(plan, state)

    @staticmethod
    def _freeze_if_sole_candidate(plan, state: PlannerState) -> None:
        """A one-entry cost table (backward paths price ``window``
        alone) has nothing to adapt: freeze at prepare time so
        every execution skips the planner wrapper entirely.  Left
        unfrozen, such a plan could *never* converge -- an estimate
        persistently out of the feedback band keeps resetting the
        convergence counter even though no alternative exists."""
        if len(state.choice.costs) == 1:
            state.frozen = True
            plan._execute_impl = state.active.execute

    def _bind(self, plan, state: PlannerState, name: str) -> None:
        """Resolve and warm the chosen strategy on the plan.

        ``resolve`` (not ``get_strategy``): a choice outside the target's
        native fragment walks its declared fallback chain, exactly as an
        explicit ``--strategy`` request would.
        """
        strategy = registry.resolve(name, plan.path)
        state.active = strategy
        if getattr(strategy, "needs_asta", False):
            plan.asta  # compile now so execute() stays compilation-free
        hook = getattr(strategy, "prepare", None)
        if hook is not None:
            hook(plan)

    def execute(self, plan, index, stats):
        state = plan.artifacts["planner"]  # set by ``prepare``
        result = state.active.execute(plan, index, stats)
        switched = state.observe(state.active.name, stats)
        if switched is not None:
            self._bind(plan, state, switched)
        elif state.frozen:
            # Converged: hand the plan's dispatch straight to the
            # delegate so later executions skip this wrapper entirely
            # (safe: the caller holds the plan's execute lock, and a
            # frozen state takes no further observations anyway).
            plan._execute_impl = state.active.execute
        return result


def planner_fields(plan) -> dict:
    """The planner-specific fields of one prepared plan's description:
    ``{"planner": snapshot, "executes_as": name}`` when a planner state
    is attached, else ``{}``.  The single schema shared by
    ``repro plan explain`` and ``QueryService.plan_report``."""
    state = plan.artifacts.get("planner")
    if state is not None and hasattr(state, "snapshot"):
        return {
            "planner": state.snapshot(),
            "executes_as": getattr(state.active, "name", None),
        }
    return {}


def plan_explain(engine, query) -> dict:
    """The planner's verdict for ``query`` on ``engine``'s document.

    Prepares (or reuses) the plan under ``auto`` and returns its
    :meth:`PlannerState.snapshot` plus the resolved execution strategy
    -- what ``repro plan explain`` prints.
    """
    plan = engine.prepare(query, strategy="auto")
    qkey = query if isinstance(query, str) else str(query)
    out = {
        "query": qkey,
        "strategy": plan.strategy.name,
        "nodes": engine.tree.n,
    }
    fields = planner_fields(plan)
    if fields:
        out.update(fields)
    else:
        out["reason"] = (
            "outside the planned fragment (resolved through the "
            "fallback chain)"
        )
    return out
