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
  size, and for a rooted run of child steps the path-summary mask that
  answers it without a join (:func:`repro.engine.joins.child_path`);
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

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.counters import EvalStats
from repro.engine.joins import Key, child_path, join, successor_mask
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

#: The ``plan.artifacts`` entry of a kernel plan: ``(index, bound path)``.
PROGRAM = "kernel"


class Bound(NamedTuple):
    """A location step bound to one document.  ``key`` is the sorted
    label-id tuple of its node test (``()``: nothing matches) and the
    rank-column key of its candidates, ``size`` their count plus what
    its predicate's paths size (uncapped), ``predicate`` the step's
    predicate with every path bound, and ``rooted`` -- on the last step
    of a rooted run of child steps, whose earlier steps the bound path
    leaves out -- ``(run length, path-summary mask)``."""

    axis: Axis
    key: Key
    size: int
    predicate: Optional[Pred]
    rooted: Optional[Tuple[int, np.ndarray]] = None


def rooted_run(path: Path) -> int:
    """How many leading steps of ``path`` the path summary answers: a
    rooted run of at least two child steps with no predicate before its
    last, or none (0)."""
    run = 0
    if path.absolute:
        for step in path.steps:
            if step.axis is not Axis.CHILD:
                break
            run += 1
            if step.predicate is not None:
                break
    return run if run >= 2 else 0


def bind(path: Path, index: TreeIndex) -> Path:
    """``path`` with every step -- of the main path and of every
    predicate path -- bound to ``index``'s document (:class:`Bound`):
    what ``execute`` reads instead of resolving node tests and sizes.
    Keys, not arrays: a candidate array is an O(1) lookup or the fused
    union LRU's at run time, so no plan pins a merged union."""
    steps = tuple(_bind_step(index, step) for step in path.steps)
    run = rooted_run(path)
    if run:
        mask = index.path_summary(run).mask([step.key for step in steps[:run]])
        steps = (steps[run - 1]._replace(rooted=(run, mask)),) + steps[run:]
    return Path(path.absolute, steps)


def _bind_step(index: TreeIndex, step: Step) -> Bound:
    key = label_key(index, step.axis, step.test)
    size = index.labels.union_size(key)
    pred = None
    if step.predicate is not None:
        pred = _bind_pred(index, step.predicate)
        size += _pred_size(index, pred)
    return Bound(step.axis, key, size, pred)


def _bind_pred(index: TreeIndex, pred: Pred) -> Pred:
    """The predicate's own shape, every path in it bound."""
    if isinstance(pred, (PredAnd, PredOr)):
        return type(pred)(_bind_pred(index, pred.left), _bind_pred(index, pred.right))
    if isinstance(pred, PredNot):
        return PredNot(_bind_pred(index, pred.inner))
    if isinstance(pred, PredPath):
        return PredPath(bind(pred.path, index))
    raise AssertionError(pred)


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


def pred_size(
    index: TreeIndex, pred: Pred, contexts: Optional[int] = None
) -> int:
    """Summed candidate-array lengths of every path of a predicate,
    nested predicates included -- what back-to-front constructions
    touch; given a context count, each relative path is capped at the
    price of its first-witness searches -- the side :func:`_pred_mask`
    will run.  The one sizing both that choice and the predicate
    touches ``explain`` states read."""
    return _pred_size(index, _bind_pred(index, pred), contexts)


def _pred_size(index, pred: Pred, contexts: Optional[int] = None) -> int:
    """:func:`pred_size` of a bound predicate."""
    if isinstance(pred, (PredAnd, PredOr)):
        return _pred_size(index, pred.left, contexts) + _pred_size(
            index, pred.right, contexts
        )
    if isinstance(pred, PredNot):
        return _pred_size(index, pred.inner, contexts)
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
        out = child_path(index, cand, step.rooted, stats)
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


class KernelStrategy(StrategyBase):
    """The registry shell of the kernel: ``prepare`` binds the plan's
    path to its document once (:func:`bind`, into ``plan.artifacts``),
    so a warm ``execute`` only runs the joins."""

    def prepare(self, plan) -> None:
        index = plan.engine.index
        plan.artifacts[PROGRAM] = (index, bind(plan.path, index))

    def execute(self, plan, index, stats):
        bound = plan.artifacts.get(PROGRAM)
        if bound is None or bound[0] is not index:  # bound elsewhere
            return run_kernel(plan.path, index, stats)
        return run_bound(bound[1], index, stats)


@register_strategy
class VectorizedStrategy(KernelStrategy):
    """Set-at-a-time frontier evaluation over numpy node-id arrays."""

    name = "vectorized"
    fallback = "optimized"  # relative / backward queries keep working

    def supports(self, path: Path) -> bool:
        return is_vectorizable(path)
