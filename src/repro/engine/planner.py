"""``auto`` is the kernel, and the per-step physical layer ``explain`` reads.

``auto`` -- the default of the library, the CLI and the daemon -- is a
name of the set-at-a-time kernel and nothing else: it supports what
``window`` supports (every absolute path, backward axes included), runs
:func:`repro.engine.frontier.run_kernel`, and otherwise walks
``window``'s declared fallback chain.  Nothing is priced per query: on
every document size measured the kernel is the cheapest strategy or
within noise of it (DESIGN.md, "``auto`` is the kernel"), so the choice
has one answer and no plan carries any state for it.

What does pay is choosing *inside* the kernel, per location step: which
physical join operator runs and from which side.  The kernel decides
that from the arrays in hand (:func:`repro.engine.joins.join`); this
module states the same decision before anything runs, from O(1)
:class:`~repro.index.labels.LabelIndex` counts -- the candidate-array
length of every step, the document's mean fan-out, and each predicate
capped at its first-witness price -- through the one rule both sides
apply (:func:`repro.engine.joins.plan_operator`).  ``explain``,
``repro plan explain`` and the daemon's ``/explain`` print it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.engine import joins
from repro.engine.frontier import bind, label_key, pred_size
from repro.engine.registry import register_strategy
from repro.engine.window import WindowStrategy
from repro.index.jumping import TreeIndex
from repro.xpath.ast import Axis, Path

#: The two registry names of the set-at-a-time kernel.
SET_AT_A_TIME: Tuple[str, ...] = ("vectorized", "window")


@dataclass(frozen=True)
class QueryFeatures:
    """What the kernel's operator choice depends on, extracted in one pass.

    ``step_candidates`` holds the candidate-array length per location
    step (the per-label id-array sizes, summed for wildcard tests);
    ``fanout`` the document's mean number of children per inner node;
    ``pred_touches`` the candidate elements each step's predicate
    touches, every path capped at its first-witness price from that
    step's candidates (the side the kernel will run).  All come from
    O(1) ``LabelIndex`` lookups.  ``rooted`` counts the leading steps
    the path summary answers, predicates it decides on them included.
    """

    n: int
    axes: Tuple[str, ...]
    step_candidates: Tuple[int, ...]
    pred_touches: Tuple[int, ...]
    fanout: float = 1.0
    rooted: int = 0


def mean_fanout(index: TreeIndex) -> float:
    """Children per inner node, the prior for what a context-side child
    join gathers per frontier node (one vectorized pass over
    ``xml_end``, cached on the index)."""
    cached = getattr(index, "_planner_fanout", None)
    if cached is None:
        import numpy as np

        ends = index.xml_end_array()
        inner = int(np.count_nonzero(ends > np.arange(1, ends.size + 1)))
        cached = index._planner_fanout = (ends.size - 1) / max(1, inner)
    return cached


def extract_features(path: Path, index: TreeIndex) -> QueryFeatures:
    """One-pass feature extraction (O(query size)).

    Candidate counts come from the evaluator's own sizing (the label
    key of :func:`repro.engine.frontier.label_key`, ``pred_size``), and
    the rooted run and predicates from the path bound as a plan binds it
    now (:func:`repro.engine.frontier.bind`), so what ``explain`` states
    is what the next execute runs."""
    step_candidates = tuple(
        index.labels.union_size(label_key(index, step.axis, step.test))
        for step in path.steps
    )
    program = bind(path, index).steps
    rooted = 0
    if program and program[0].rooted is not None:
        rooted = len(path.steps) - len(program) + 1
    preds = (None,) * (rooted - 1) + tuple(step.predicate for step in program)
    return QueryFeatures(
        n=index.tree.n,
        axes=tuple(step.axis.value for step in path.steps),
        step_candidates=step_candidates,
        pred_touches=tuple(
            0 if pred is None else pred_size(index, pred, count)
            for pred, count in zip(preds, step_candidates)
        ),
        fanout=mean_fanout(index),
        rooted=rooted,
    )


def step_operators(features: QueryFeatures) -> List[Tuple[str, float]]:
    """Per location step, the physical operator a set-at-a-time run will
    pick and the array elements it states it touches.

    The kernel picks from the sizes in hand
    (:func:`repro.engine.joins.join`); before running, the frontier a
    step meets is bounded by the previous step's candidate count and,
    below a child / sibling step, by the children the frontier before it
    has (``fanout`` each).  The same rule applied to that bound
    (:func:`joins.plan_operator`) names the operator stated here.  The
    first step joins nothing: the document node's only child is the
    root, its descendants are the candidates -- and a rooted run the
    path summary answers is one :func:`joins.summary_run` probe of its
    last step's candidates, stated on that step.
    """
    out: List[Tuple[str, float]] = []
    ctx = 0
    run = features.rooted
    for i, (axis, cnt) in enumerate(zip(features.axes, features.step_candidates)):
        if i < run:
            out.append((joins.PATH_SUMMARY, float(cnt if i == run - 1 else 0)))
            ctx = max(1, cnt)
            continue
        if ctx == 0:
            reach = cnt if axis == "descendant" else min(cnt, 1)
            out.append(("document", float(reach)))
        else:
            op, touches = joins.plan_operator(
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
    step, the operator the kernel is expected to run, its touches, and
    those of the step's predicate."""
    lines = ["set-at-a-time steps (operator stated from candidate counts):"]
    for i, (step, (name, touches), pred) in enumerate(
        zip(path.steps, step_operators(features), features.pred_touches), 1
    ):
        stated = (
            f"(answered at step {features.rooted})"
            if i < features.rooted
            else f"~{touches:,.0f} touches"
        )
        lines.append(
            f"  {i}. {step.axis.value + '::' + step.test:<34s} {name:<24s}"
            + stated
            + (f" + predicate ~{pred:,.0f}" if pred else "")
        )
    return lines


@register_strategy
class AutoStrategy(WindowStrategy):
    """The default: the set-at-a-time kernel (``window``) under its everyday name."""

    name = "auto"
    executes_as = WindowStrategy.name


def planner_fields(plan) -> dict:
    """``{"executes_as": kernel name}`` for a plan prepared under
    ``auto``, else ``{}``: what every ``/query`` envelope says beside
    ``strategy``."""
    kernel = plan.strategy.executes_as
    return {"executes_as": kernel} if kernel else {}


def explain_fields(plan) -> dict:
    """:func:`planner_fields` plus ``operators``, the operator name per
    location step: the single schema ``repro plan explain --json`` and
    the daemon's ``/explain`` share."""
    fields = planner_fields(plan)
    if fields:
        features = extract_features(plan.path, plan.index)
        fields["operators"] = [name for name, _ in step_operators(features)]
    return fields


def plan_explain(engine, query) -> dict:
    """How ``query`` runs on ``engine``'s document under ``auto``:
    what ``repro plan explain --json`` prints."""
    plan = engine.prepare(query, strategy="auto")
    return {
        "query": plan.query,
        "strategy": plan.strategy.name,
        "nodes": engine.tree.n,
        **explain_fields(plan),
    }
