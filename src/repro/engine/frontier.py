"""Set-at-a-time evaluation: whole frontiers per step.

Every other strategy in this library advances *one node per Python-level
step*.  Here the run state is a sorted ``np.int64`` array of node ids
(the *frontier*), and each location step moves the whole frontier at
once through one physical operator of
:data:`repro.engine.joins.OPERATORS`, picked per step from the sizes of
the two arrays it joins.  This module is the driver around those joins,
written once for the ``vectorized`` and ``window`` strategies (one
kernel; the names pin the forward-only and the all-axes fragment):

- binding (:func:`bind`, at ``prepare``): what a run needs that is a
  pure function of query and document -- each step's label-id key and
  size, and once the document has its path summary, the mask that
  answers a rooted run without a join
  (:func:`repro.engine.joins.summary_run`) and the verdicts that decide
  predicates per path id (:class:`Decided`);
- the step loop, which exits on the first empty frontier and tells each
  step when its frontier is a whole label set (its rank column is
  cached).  Candidates are the :class:`~repro.index.labels.LabelIndex`
  arrays themselves -- per label for named tests, the cached fused union
  for wildcard / ``node()`` tests -- and every operator returns a sorted
  duplicate-free array, so results are byte-identical to the reference
  oracle with no final sort and no dedup pass;
- predicates as boolean masks that cost no more than they must:
  ``and``/``or`` evaluate their right operand only on the nodes the left
  one left undecided; an existence path over *few* context nodes is
  searched front to back from each, in geometrically growing chunks that
  stop at the first witness; over many it is computed *back to front*,
  the match sets ``M_k ... M_1`` (nodes from which the path suffix
  matches) built with the same operators (:data:`WITNESS_DISPATCH`
  decides, from sizes known before the work starts);
- the sizing ``explain`` states predicates with.

Counters are *redefined* for these strategies (see ``EvalStats``): array
elements read or copied are ``visited``, probe elements
``index_probes``, passes ``jumps``; a first-witness search also books
every node it expands.  Totals stay comparable to the node-at-a-time
engines -- the same relevant elements, many per operation.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.counters import EvalStats
from repro.engine.joins import Key, join, successor_mask, summary_run
from repro.engine.registry import Strategy, register_strategy
from repro.index.jumping import TreeIndex
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

_EMPTY = np.empty(0, dtype=np.int64)

#: Price, in array-element touches, of one expansion of a first-witness
#: search: one location step over one small chunk, a handful of array
#: passes whose cost is their dispatch.  A relative predicate path is
#: searched from each context node while ``contexts * steps *
#: WITNESS_DISPATCH`` -- every search succeeding at once -- stays below
#: the candidate size of the path's *last* step: what the back-to-front
#: construction touches before it can stop, hence what the searches may
#: spend before they give up and run it.  Measured at 212k nodes: an
#: expansion takes 6-30 us, a back-to-front element 10-180 ns.
WITNESS_DISPATCH = 512

#: First chunk of a witness search; every failed chunk is followed by
#: one four times as large, so a search that finds nothing costs a
#: constant factor of evaluating the whole level at once.
_WITNESS_CHUNK = 16


def is_vectorizable(path: Path) -> bool:
    """The fragment the ``vectorized`` name covers: absolute forward
    paths (backward axes route through the mixed pipeline; relative
    top-level paths never reach a strategy)."""
    return path.absolute and bool(path.steps) and not path.has_backward_axes()


def evaluate(
    query: "str | Path", index: TreeIndex, stats: Optional[EvalStats] = None
) -> Tuple[bool, List[int]]:
    """Evaluate set-at-a-time; returns ``(accepted, selected ids)``."""
    return evaluate_within(
        is_vectorizable,
        "vectorized fragment (absolute forward paths only)",
        query,
        index,
        stats,
    )


def evaluate_within(fragment, named, query, index, stats):
    """``evaluate`` for one registry name: refuse what its fragment
    (a predicate over paths) does not hold, run the kernel on the rest."""
    if isinstance(query, str):
        from repro.xpath.parser import parse_xpath

        query = parse_xpath(query)
    if not fragment(query):
        raise ValueError(f"query {str(query)!r} is outside the {named}")
    accepted, frontier = run_kernel(query, index, stats)
    return accepted, frontier.tolist()


# -- binding: what a run needs of the document, resolved at prepare -----------

#: The ``plan.artifacts`` entry of a kernel plan: ``(index, bound path,
#: renting)``, ``renting`` while the path summary it would use is missing.
PROGRAM = "kernel"


class Bound(NamedTuple):
    """A location step bound to one document.  ``key`` is the sorted
    label-id tuple of its node test (``()``: nothing matches) and the
    rank-column key of its candidates, ``size`` their count plus what
    its predicate's paths size (uncapped), ``predicate`` the step's
    predicate with every path bound, and ``rooted`` -- on the last step
    of a rooted run the path summary answers, whose earlier steps the
    bound path leaves out -- the mask of the path ids the run reaches,
    or ``True`` when those are all its candidates' paths."""

    axis: Axis
    key: Key
    size: int
    predicate: Optional[Pred]
    rooted: Union[None, bool, np.ndarray] = None


class Decided(NamedTuple):
    """A bound predicate path the path summary decides per path id:
    ``verdict[p]`` is 0 (no node of path ``p`` satisfies it), 2 (each
    does) or 1 (open: ask ``pred``).  0 < 1 < 2 is Kleene's order, so
    ``and`` is a minimum, ``or`` a maximum and ``not`` ``2 - v``."""

    pred: PredPath
    verdict: np.ndarray


#: Axes whose step from a node reaches paths its own path decides.
_DOWN = (Axis.CHILD, Axis.ATTRIBUTE, Axis.DESCENDANT)
_UP = (Axis.PARENT, Axis.ANCESTOR)
_INVERSE = {
    Axis.CHILD: Axis.PARENT,
    Axis.ATTRIBUTE: Axis.PARENT,
    Axis.DESCENDANT: Axis.ANCESTOR,
    Axis.PARENT: Axis.CHILD,
    Axis.ANCESTOR: Axis.DESCENDANT,
}


def _one_way(path: Path) -> bool:
    """A relative predicate path the summary decides: no nested
    predicate, and every step down (child, attribute, descendant) or
    every step up (parent, ancestor)."""
    axes = {step.axis for step in path.steps}
    return (
        not path.absolute
        and all(step.predicate is None for step in path.steps)
        and (axes <= set(_DOWN) or axes <= set(_UP))
    )


def summarizable(path: Path) -> bool:
    """Whether the path summary would decide any part of ``path`` -- a
    rooted run of two downward steps, or a predicate path of one
    direction anywhere -- so that the joins it would replace pay toward
    building it (:meth:`TreeIndex.path_summary`)."""
    steps = path.steps
    if path.absolute and len(steps) > 1 and {s.axis for s in steps[:2]} <= set(_DOWN):
        return True
    return any(_summarizable_pred(step.predicate) for step in steps)


def _summarizable_pred(pred: Optional[Pred]) -> bool:
    if isinstance(pred, (PredAnd, PredOr)):
        return _summarizable_pred(pred.left) or _summarizable_pred(pred.right)
    if isinstance(pred, PredNot):
        return _summarizable_pred(pred.inner)
    return isinstance(pred, PredPath) and (
        _one_way(pred.path) or summarizable(pred.path)
    )


def bind(path: Path, index: TreeIndex) -> Path:
    """``path`` with every step -- of the main path and of every
    predicate path -- bound to ``index``'s document (:class:`Bound`):
    what ``execute`` reads instead of resolving node tests and sizes.
    Keys, not arrays: a candidate array is an O(1) lookup or the fused
    union LRU's at run time, so no plan pins a merged union.  Once the
    document has its path summary, the leading run and the predicate
    paths it decides are bound to it (:func:`_rooted`, :class:`Decided`)."""
    return _bind(path, index, index.path_summary())


def _bind(path: Path, index: TreeIndex, summary) -> Path:
    steps = tuple(_bind_step(index, summary, step) for step in path.steps)
    if summary is not None and path.absolute:
        steps = _rooted(summary, steps)
    return Path(path.absolute, steps)


def _bind_step(index: TreeIndex, summary, step: Step) -> Bound:
    key = label_key(index, step.axis, step.test)
    size = index.labels.union_size(key)
    pred = None
    if step.predicate is not None:
        pred = _bind_pred(index, summary, step.predicate, key)
        size += pred_size(index, pred)
    return Bound(step.axis, key, size, pred)


def _bind_pred(index: TreeIndex, summary, pred: Pred, key: Key) -> Pred:
    """The predicate's own shape, every path in it bound; a path the
    summary decides for some path of the step's label set ``key`` is
    :class:`Decided`."""
    if isinstance(pred, (PredAnd, PredOr)):
        return type(pred)(
            _bind_pred(index, summary, pred.left, key),
            _bind_pred(index, summary, pred.right, key),
        )
    if isinstance(pred, PredNot):
        return PredNot(_bind_pred(index, summary, pred.inner, key))
    if isinstance(pred, PredPath):
        bound = PredPath(_bind(pred.path, index, summary))
        if summary is not None and _one_way(pred.path):
            verdict = _verdict(summary, bound.path.steps)
            if (verdict[summary.labelled(key)] != 1).any():
                return Decided(bound, verdict)
        return bound
    raise AssertionError(pred)


def _verdict(summary, steps: tuple) -> np.ndarray:
    """:class:`Decided`'s verdict of a one-way relative path of bound
    ``steps``, built back to front over the trie like :func:`_match_set`
    over the nodes: the paths from which the path's suffix matches,
    then those with a first step into them.  A path reaching a match
    holds a node with a witness; the one node of a one-node path, every
    node of it when the steps go up (a node's ancestors are its path's)."""
    if not steps:  # '.' always exists
        return np.full(summary.label.size, 2, dtype=np.int8)
    matches = summary.labelled(steps[-1].key)
    for i in range(len(steps) - 2, -1, -1):
        matches = summary.labelled(steps[i].key) & summary.step(
            _INVERSE[steps[i + 1].axis], matches
        )
    hit = summary.step(_INVERSE[steps[0].axis], matches)
    verdict = hit.view(np.int8) * 2
    if steps[0].axis in _DOWN:
        verdict -= hit > summary.single  # a match, but more than one node
    return verdict


def _decide(pred: Pred, size: int) -> np.ndarray:
    """The verdict per path id of a whole bound predicate, its paths the
    summary does not decide open."""
    if isinstance(pred, (PredAnd, PredOr)):
        combine = np.minimum if isinstance(pred, PredAnd) else np.maximum
        return combine(_decide(pred.left, size), _decide(pred.right, size))
    if isinstance(pred, PredNot):
        return 2 - _decide(pred.inner, size)
    if isinstance(pred, Decided):
        return pred.verdict
    return np.ones(size, dtype=np.int8)


def _rooted(summary, steps: tuple) -> tuple:
    """Bound main-path ``steps`` with their leading run folded into its
    last step, when the summary answers it: downward steps from the
    document node, walked over the trie top down (a descendant step is
    a self-loop), each predicate folded in where it is decided on every
    path reached, the run ending on a step whose predicate is not (that
    predicate then runs on the nodes).  A run of one step that folded
    no predicate is no run: the document node answers it alone."""
    reached, run, open_ = None, 0, False
    for step in steps:
        if step.axis not in _DOWN:
            break
        here = summary.labelled(step.key)
        if reached is not None:
            here = here & summary.step(step.axis, reached)
        elif step.axis is not Axis.DESCENDANT:
            here = here.copy()  # the document node's one child: the root
            here[1:] = False
        reached, run = here, run + 1
        if step.predicate is not None:
            verdict = _decide(step.predicate, here.size)
            open_ = (verdict[reached] == 1).any()
            if open_:
                break
            reached = reached & (verdict == 2)
    if run == 0 or (run == 1 and (open_ or steps[0].predicate is None)):
        return steps
    last = steps[run - 1]
    whole = np.count_nonzero(reached) == np.count_nonzero(summary.labelled(last.key))
    last = last._replace(
        predicate=last.predicate if open_ else None,
        rooted=True if whole else reached,
    )
    return (last,) + steps[run:]


def test_label_names(labels: List[str], axis: Axis, test: str) -> List[str]:
    """The element names a node test can match, resolved against one
    document's label inventory (the single place these semantics live --
    ``explain`` sizes steps through the same resolution)."""
    if axis is Axis.ATTRIBUTE:
        if test in ("*", "node()"):
            return [l for l in labels if l.startswith("@")]
        return ["@" + test]
    if test == "node()":
        return list(labels)
    if test == "*":
        return [l for l in labels if not l.startswith(("@", "#"))]
    if test == "text()":
        return ["#text"]
    return [test]


def label_key(index: TreeIndex, axis: Axis, test: str) -> Key:
    """The sorted label-id tuple of a node test on ``index``'s document
    (labels it does not hold dropped): what names its candidates."""
    names = test_label_names(index.tree.labels, axis, test)
    return tuple(sorted(index.label_ids(names)))


def pred_size(index, pred: Pred, contexts: Optional[int] = None) -> int:
    """Summed candidate-array lengths of every path of a bound predicate,
    nested predicates included -- what back-to-front constructions
    touch; given a context count, each relative path is capped at the
    price of its first-witness searches -- the side :func:`_pred_mask`
    will run.  The one sizing both that choice and the predicate
    touches ``explain`` states read."""
    if isinstance(pred, (PredAnd, PredOr)):
        return pred_size(index, pred.left, contexts) + pred_size(
            index, pred.right, contexts
        )
    if isinstance(pred, PredNot):
        return pred_size(index, pred.inner, contexts)
    if isinstance(pred, Decided):
        pred = pred.pred
    path = pred.path
    size = sum(step.size for step in path.steps)
    if (
        contexts is not None
        and not path.absolute
        and _witness_budget(index, path.steps, contexts)
    ):
        size = min(size, _witness_price(contexts, path.steps))
    return size


def _witness_price(contexts: int, steps: tuple) -> int:
    """First-witness searches from ``contexts`` nodes, each succeeding
    in its first chunks: one expansion per step and context."""
    return contexts * len(steps) * WITNESS_DISPATCH


def _witness_budget(index: TreeIndex, steps: tuple, contexts: int) -> int:
    """What first-witness searches from ``contexts`` nodes may spend on
    a relative path of bound ``steps`` -- its last step's size, the
    least the back-to-front construction books -- or 0 where even their
    best case costs more: the one comparison that chooses between the
    two."""
    least = steps[-1].size if steps else 0
    return least if _witness_price(contexts, steps) < least else 0


# -- the frontier loop -------------------------------------------------------


def run_kernel(
    path: Path, index: TreeIndex, stats: Optional[EvalStats]
) -> Tuple[bool, np.ndarray]:
    """An absolute path, any axis: ``(accepted, final frontier)``, which
    is what the set-at-a-time strategies' ``execute`` returns -- the
    sorted, duplicate-free ``int64`` array itself (possibly a view of an
    index array), never converted to Python ints.  Binds the path
    first; a prepared plan runs its bound program (:func:`run_bound`)."""
    return run_bound(bind(path, index), index, stats)


def run_bound(
    program: Path, index: TreeIndex, stats: Optional[EvalStats]
) -> Tuple[bool, np.ndarray]:
    """:func:`run_kernel` of a path bound to ``index``."""
    frontier = _eval_steps(index, program.steps, None, stats)
    if stats is not None:
        stats.selected += int(frontier.size)
    return bool(frontier.size), frontier


def _eval_steps(index, steps: tuple, frontier, stats) -> np.ndarray:
    """Run bound location steps over a frontier (``None`` = the document
    node); an empty frontier after any step exits the chain early."""
    src = None
    for step in steps:
        frontier, src = _eval_step(index, step, frontier, src, stats)
        if frontier.size == 0:
            return _EMPTY
    return frontier if frontier is not None else _EMPTY


def _eval_step(
    index, step: Bound, frontier, src: Optional[Key], stats
) -> Tuple[np.ndarray, Optional[Key]]:
    """One bound location step, predicate included.  ``src`` names the
    label set the frontier is *all* of, if it is; the result comes with
    its own such key (a subset of the candidates as large as they are is
    the candidates)."""
    cand = index.labels.union(step.key)
    if stats is not None:
        stats.jumps += 1
    if cand.size == 0:
        return _EMPTY, None
    if frontier is not None:
        out = join(index, step.axis, cand, step.key, frontier, src, stats)
    elif step.rooted is not None:
        out = summary_run(index, cand, step.rooted, stats)
    else:
        # The implicit document node: its only child is the root, its
        # descendants are every node; it has no siblings, attributes,
        # parent or ancestors.
        if step.axis is Axis.CHILD:
            out = cand[:1] if cand[0] == 0 else _EMPTY
        elif step.axis is Axis.DESCENDANT:
            out = cand
        else:
            out = _EMPTY
        if stats is not None:
            stats.visited += int(out.size)
    if step.predicate is not None and out.size:
        out = out.compress(_pred_mask(index, step.predicate, out, stats))
    return out, step.key if out.size == cand.size else None


# -- predicates as masks -----------------------------------------------------


def _pred_mask(index, pred: Pred, nodes: np.ndarray, stats) -> np.ndarray:
    """Boolean mask over ``nodes``: which satisfy the predicate."""
    if isinstance(pred, (PredAnd, PredOr)):
        # The right operand only sees the nodes the left one left open:
        # its true ones under ``and``, its false ones under ``or``.
        mask = _pred_mask(index, pred.left, nodes, stats)
        undecided = np.flatnonzero(mask if isinstance(pred, PredAnd) else ~mask)
        if undecided.size:
            mask[undecided] = _pred_mask(
                index, pred.right, nodes[undecided], stats
            )
        return mask
    if isinstance(pred, PredNot):
        return ~_pred_mask(index, pred.inner, nodes, stats)
    if isinstance(pred, Decided):
        # One gather decides the nodes of decided paths; the open ones
        # ask the path itself.
        if stats is not None:
            stats.index_probes += int(nodes.size)
        verdict = np.take(pred.verdict, index.path_summary().pid[nodes])
        mask = verdict == 2
        open_ = np.flatnonzero(verdict == 1)
        if open_.size:
            mask[open_] = _pred_mask(index, pred.pred, nodes[open_], stats)
        return mask
    if isinstance(pred, PredPath):
        path = pred.path
        if path.absolute:
            result = _eval_steps(index, path.steps, None, stats)
            return np.full(nodes.size, bool(result.size), dtype=bool)
        if not path.steps:
            return np.ones(nodes.size, dtype=bool)  # '.' always exists
        budget = _witness_budget(index, path.steps, nodes.size)
        if budget:
            mask = _first_witnesses(index, path.steps, nodes, budget, stats)
            if mask is not None:
                return mask
        matches, key = _match_set(index, path.steps, stats)
        return successor_mask(
            index, path.steps[0].axis, nodes, matches, key, stats
        )
    raise AssertionError(pred)


def _first_witnesses(
    index, steps: tuple, nodes: np.ndarray, budget: int, stats
) -> Optional[np.ndarray]:
    """From which of the (few) ``nodes`` does the relative path match?
    ``None`` once the searches have spent ``budget`` touches.

    Front to back and depth first from each context node: level ``i`` of
    the stack holds the nodes some chunk of level ``i - 1`` reaches
    through ``steps[i - 1]``, and is itself expanded chunk by chunk,
    each four times the last, until a chunk reaches the end of the path
    (the first witness) or the level is spent.  An explicit stack, so a
    path may be thousands of steps long.  Every expansion is charged
    :data:`WITNESS_DISPATCH` plus what it books; the budget is the
    least the back-to-front construction books, so giving up and
    running that costs at most twice what it would have alone (plus the
    one expansion that crossed the line).
    """
    if stats is None:
        stats = EvalStats()  # the budget reads the counters
    budget += stats.visited + stats.index_probes
    last = len(steps) - 1
    mask = np.zeros(nodes.size, dtype=bool)
    for i in range(nodes.size):
        stack = [[nodes[i : i + 1], 0, 1]]  # level: nodes, position, chunk
        while stack:
            level = stack[-1]
            reached, pos, size = level
            if pos >= reached.size:
                stack.pop()
                continue
            budget -= WITNESS_DISPATCH
            if stats.visited + stats.index_probes > budget:
                return None
            level[1] = pos + size
            level[2] = size * 4
            chunk = reached[pos : pos + size]
            stats.visited += int(chunk.size)
            depth = len(stack) - 1
            reached, _ = _eval_step(index, steps[depth], chunk, None, stats)
            if reached.size:
                if depth == last:
                    mask[i] = True
                    break
                stack.append([reached, 0, _WITNESS_CHUNK])
    return mask


def _match_set(index, steps: tuple, stats) -> Tuple[np.ndarray, Optional[Key]]:
    """Nodes matching ``steps[0]`` from which ``steps[1:]`` matches, and
    their label key if they are all of that label set.

    Built back to front: ``M_k`` is the last step's test+predicate set,
    and ``M_i`` keeps the nodes of step ``i``'s set with a step-``i+1``
    successor in ``M_{i+1}``.  Existence of the whole relative path from
    a context node is then one successor probe against ``M_1``.
    """
    matches: Optional[np.ndarray] = None
    src: Optional[Key] = None
    for i in range(len(steps) - 1, -1, -1):
        step = steps[i]
        cand, key = index.labels.union(step.key), step.key
        full = cand.size
        if stats is not None:
            stats.visited += full
            stats.jumps += 1
        if step.predicate is not None and cand.size:
            cand = cand.compress(_pred_mask(index, step.predicate, cand, stats))
        if matches is not None and cand.size:
            cand = cand.compress(
                successor_mask(
                    index, steps[i + 1].axis, cand, matches, src, stats
                )
            )
        matches, src = cand, key if cand.size == full else None
        if matches.size == 0:
            return _EMPTY, None
    return matches, src


class KernelStrategy(Strategy):
    """The registry shell of the kernel: ``prepare`` binds the plan's
    path to its document once (:func:`bind`, into ``plan.artifacts``),
    so a warm ``execute`` only runs the joins.  A plan bound to joins
    the path summary would replace pays what each run books toward the
    summary, and binds again -- under the plan's execution lock -- once
    the summary exists."""

    def prepare(self, plan) -> None:
        index = plan.index
        renting = index.path_summary() is None and summarizable(plan.path)
        plan.artifacts[PROGRAM] = (index, bind(plan.path, index), renting)

    def explain(self, plan):
        from repro.engine.planner import describe_plan  # planner imports us
        return describe_plan(plan, self.executes_as or self.name)

    def execute(self, plan, index, stats):
        if plan.artifacts[PROGRAM][2] and index.path_summary() is not None:
            self.prepare(plan)
        _, program, renting = plan.artifacts[PROGRAM]
        answer = run_bound(program, index, stats)
        if renting:
            index.path_summary(stats.visited + stats.index_probes)
        return answer


@register_strategy
class VectorizedStrategy(KernelStrategy):
    """Set-at-a-time frontier evaluation over numpy node-id arrays."""

    name = "vectorized"
    fallback = "optimized"  # relative / backward queries keep working

    def supports(self, path: Path) -> bool:
        return is_vectorizable(path)
