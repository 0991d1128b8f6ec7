"""Set-at-a-time vectorized evaluation: whole frontiers per step.

Every other strategy in this library -- including the PR 2 interned hot
path -- advances *one node per Python-level step*.  This module is the
column-store counterpart: the run state is a sorted ``np.int64`` array of
node ids (the *frontier*), and each location step of the query moves the
whole frontier at once:

- child / attribute transitions are one vectorized membership test of
  ``parent[candidates]`` against the frontier
  (:func:`numpy.searchsorted` over the sorted frontier);
- descendant transitions are subtree-interval arithmetic: the frontier
  is staircase-pruned to disjoint top-most ``[v, xml_end[v])`` ranges,
  and the join runs from its *smaller side* -- a frontier much smaller
  than the candidate array binary-searches its range bounds *into the
  candidates* and returns the slices between them (one range: a
  zero-copy view), a large one locates every candidate in (at most) one
  range with a single batched binary search;
- following-sibling transitions reduce to a per-parent minimum over the
  frontier plus one membership probe per candidate;
- predicates become boolean masks over the frontier and cost no more
  than they must: ``and``/``or`` evaluate their right operand only on
  the nodes the left one left undecided; an existence path over *few*
  context nodes is searched front to back from each of them, in
  geometrically growing chunks that stop at the first witness; over
  many context nodes it is computed *back to front* -- the match sets
  ``M_k ... M_1`` (nodes from which the path suffix matches) are built
  with the same vectorized primitives, a few array passes instead of a
  per-node automaton run.

Both choices are made from sizes known before the work starts
(:data:`CONTEXT_SIDE_FACTOR`, :data:`WITNESS_DISPATCH`).  The loops and
predicate logic here are shared with :mod:`repro.engine.window`, which
plugs its own physical operators in through a :class:`Kernel`.

Candidate arrays come straight from the
:class:`~repro.index.labels.LabelIndex`: per-label sorted id arrays for
named tests, and :meth:`LabelIndex.fused` merged unions for wildcard /
``node()`` / multi-label tests (the same cached unions the tda jump
machinery uses).  Because node ids are document order and every mask
selects a subset of a sorted duplicate-free candidate array, results are
produced sorted and duplicate-free -- byte-identical to the reference
oracle with no sort and no dedup pass.

Counters are *redefined* for this strategy (see ``EvalStats``): a node
is "visited" when its array element is touched by a vectorized pass, a
"jump" is one batched index operation (a searchsorted / membership
pass over a whole frontier), and ``index_probes`` counts the probe
elements of those batches.  A context-side descendant join books what
it touches, not what it could have: two ``index_probes`` per context
range (its bounds, searched in the candidates) and as ``visited`` the
elements it copies into the result -- none for a single range, whose
result is a view of the candidate array.  A first-witness search books
every node it expands (its chunks) as ``visited``, plus whatever the
steps it runs over them book.  Totals stay comparable to the
node-at-a-time engines -- the same relevant elements are touched, just
many per operation instead of one.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.counters import EvalStats
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

#: A descendant step joins from the context side when the pruned
#: frontier is at most this fraction (1/x) of the candidate array: two
#: binary searches per range plus a gather of the output beat one
#: binary search per candidate up to about a quarter (measured on 2k-
#: to 100k-element arrays).
CONTEXT_SIDE_FACTOR = 4

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


class Kernel(NamedTuple):
    """The physical operators one set-at-a-time strategy supplies; the
    step loop and the predicate logic around them are written once."""

    #: ``(index, step, frontier, stats) -> sorted ids`` -- one location
    #: step (predicate included) over a frontier (``None``: document node).
    step: Callable
    #: ``(index, axis, nodes, targets, stats) -> bool mask`` -- which of
    #: ``nodes`` have an ``axis``-successor inside ``targets``.
    successor: Callable


def is_vectorizable(path: Path) -> bool:
    """The fragment this evaluator covers natively: absolute forward
    paths (backward axes route through the mixed pipeline, relative
    top-level paths through the automaton engines)."""
    return path.absolute and bool(path.steps) and not path.has_backward_axes()


def evaluate(
    query: "str | Path",
    index: TreeIndex,
    stats: Optional[EvalStats] = None,
) -> Tuple[bool, List[int]]:
    """Evaluate set-at-a-time; returns ``(accepted, selected ids)``."""
    if isinstance(query, str):
        from repro.xpath.parser import parse_xpath

        path = parse_xpath(query)
    else:
        path = query
    if not is_vectorizable(path):
        raise ValueError(
            f"query {str(path)!r} is outside the vectorized fragment "
            "(absolute forward paths only)"
        )
    accepted, frontier = run_kernel(path, index, stats, _KERNEL)
    return accepted, frontier.tolist()


# -- the frontier loop -------------------------------------------------------


def run_kernel(
    path: Path, index: TreeIndex, stats: Optional[EvalStats], kernel: Kernel
) -> Tuple[bool, np.ndarray]:
    """An absolute path through ``kernel``: ``(accepted, final frontier)``,
    which is what the set-at-a-time strategies' ``execute`` returns --
    the sorted, duplicate-free ``int64`` array itself (possibly a view of
    an index array), never converted to Python ints."""
    frontier = _eval_steps(index, path.steps, None, stats, kernel)
    if stats is not None:
        stats.selected += int(frontier.size)
    return bool(frontier.size), frontier


def _eval_steps(
    index: TreeIndex,
    steps: tuple,
    frontier: Optional[np.ndarray],
    stats: Optional[EvalStats],
    kernel: Kernel,
) -> np.ndarray:
    """Run location steps over a frontier (``None`` = the document
    node); an empty frontier after any step exits the chain early."""
    for step in steps:
        frontier = kernel.step(index, step, frontier, stats)
        if frontier.size == 0:
            return _EMPTY
    return frontier if frontier is not None else _EMPTY


def _eval_step(
    index: TreeIndex,
    step: Step,
    frontier: Optional[np.ndarray],
    stats: Optional[EvalStats],
) -> np.ndarray:
    cand = _candidates(index, step.axis, step.test)
    if stats is not None:
        stats.jumps += 1
    if cand.size == 0:
        return _EMPTY
    if frontier is not None and step.axis is Axis.DESCENDANT:
        out = _descendant_join(index, cand, frontier, stats)
    else:
        if stats is not None:
            stats.visited += int(cand.size)
        if frontier is None:
            # The implicit document node: its only child is the root,
            # its descendants are every node; it has no siblings or
            # attributes.
            if step.axis is Axis.CHILD:
                out = cand[:1] if cand[0] == 0 else _EMPTY
            elif step.axis is Axis.DESCENDANT:
                out = cand
            else:
                out = _EMPTY
        elif step.axis in (Axis.CHILD, Axis.ATTRIBUTE):
            parents = index.parent_array()[cand]
            out = cand[_in_sorted(parents, frontier, stats)]
        elif step.axis is Axis.FOLLOWING_SIBLING:
            out = cand[_following_sibling_mask(index, cand, frontier, stats)]
        else:  # pragma: no cover - supports() excludes backward axes
            raise AssertionError(step.axis)
    if step.predicate is not None and out.size:
        out = out[_pred_mask(index, step.predicate, out, stats, _KERNEL)]
    return out


def test_label_names(labels: List[str], axis: Axis, test: str) -> List[str]:
    """The element names a node test can match, resolved against one
    document's label inventory (the single place these semantics live --
    the planner prices steps through the same resolution)."""
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


def _candidates(index: TreeIndex, axis: Axis, test: str) -> np.ndarray:
    """Sorted ids of every node the step's node test can match.

    Named tests hit the per-label array directly (no lock, no LRU slot
    -- trivial single-label wrappers would otherwise compete with the
    genuinely expensive merged unions for the bounded fused cache);
    wildcard / multi-label tests go through the cached merged union.
    """
    names = test_label_names(index.tree.labels, axis, test)
    label_ids = index.label_ids(names)
    if not label_ids:
        return _EMPTY
    if len(label_ids) == 1:
        return index.labels.nodes_array(index.tree.labels[label_ids[0]])
    return index.fused(label_ids).arr


def _element_count(index: TreeIndex) -> int:
    """Number of element nodes (the ``*`` test's candidate count)."""
    cached = getattr(index, "_elem_count", None)
    if cached is None:
        tree = index.tree
        encoded = sum(
            index.labels.count(name)
            for name in tree.labels
            if name.startswith(("@", "#"))
        )
        cached = index._elem_count = tree.n - encoded
    return cached


def candidate_count(index: TreeIndex, axis: Axis, test: str) -> int:
    """Length of :func:`_candidates`' array, from O(1) label counts --
    nothing is merged or materialized to price a step."""
    if axis is not Axis.ATTRIBUTE:
        if test == "node()":
            return index.tree.n
        if test == "*":
            return _element_count(index)
    return sum(
        index.labels.count(name)
        for name in test_label_names(index.tree.labels, axis, test)
    )


def path_size(index: TreeIndex, steps: tuple) -> int:
    """Summed candidate-array lengths of a predicate path, nested
    predicates included: what its back-to-front construction touches.
    The one sizing both the kernel's first-witness choice and the
    planner's predicate price read."""
    return sum(
        candidate_count(index, step.axis, step.test)
        + (pred_size(index, step.predicate) if step.predicate is not None else 0)
        for step in steps
    )


def pred_size(
    index: TreeIndex, pred: Pred, contexts: Optional[int] = None
) -> int:
    """:func:`path_size` summed over every path of a predicate; given a
    context count, each relative path is capped at the price of its
    first-witness searches -- the side :func:`_pred_mask` will run."""
    if isinstance(pred, (PredAnd, PredOr)):
        return pred_size(index, pred.left, contexts) + pred_size(
            index, pred.right, contexts
        )
    if isinstance(pred, PredNot):
        return pred_size(index, pred.inner, contexts)
    path = pred.path
    size = path_size(index, path.steps)
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
    a relative path -- its last step's candidates, the least the
    back-to-front construction books -- or 0 where even their best case
    costs more: the one comparison that chooses between the two."""
    least = path_size(index, steps[-1:])
    return least if _witness_price(contexts, steps) < least else 0


# -- vectorized axis primitives ---------------------------------------------


def _in_sorted(
    values: np.ndarray,
    sorted_arr: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Membership mask of ``values`` in a sorted duplicate-free array."""
    if stats is not None:
        stats.jumps += 1
        stats.index_probes += int(values.size)
    if sorted_arr.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    clipped = np.minimum(pos, sorted_arr.size - 1)
    return (pos < sorted_arr.size) & (sorted_arr[clipped] == values)


def _staircase(
    index: TreeIndex, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Prune the frontier to top-most nodes: disjoint subtree ranges.

    Nested context subtrees are redundant for the descendant axis; the
    running maximum of ``xml_end`` drops them in one pass (subtree
    ranges either nest or are disjoint, so the survivors are pairwise
    disjoint and every candidate lies in at most one of them).
    """
    ends = index.xml_end_array()[frontier]
    if frontier.size <= 1:
        return frontier, ends
    keep = np.empty(frontier.size, dtype=bool)
    keep[0] = True
    np.greater_equal(
        frontier[1:], np.maximum.accumulate(ends)[:-1], out=keep[1:]
    )
    return frontier[keep], ends[keep]


def _descendant_join(
    index: TreeIndex,
    cand: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """The candidates that are strict XML descendants of a frontier
    node, joined from the smaller side of the staircase-pruned frontier
    and the candidate array.

    Context side (the array form of ``dt``/``ft`` jumping): each range
    ``(v, xml_end[v])`` is located in the candidates by its two bounds
    and the slices between them are the answer -- already sorted and
    disjoint because the ranges are.  Candidate side: each candidate is
    located in (at most) one range.
    """
    ctx, ctx_end = _staircase(index, frontier)
    if ctx.size * CONTEXT_SIDE_FACTOR > cand.size:
        if stats is not None:
            stats.jumps += 1
            stats.visited += int(cand.size)
            stats.index_probes += int(cand.size)
        j = np.searchsorted(ctx, cand, side="right") - 1
        clipped = np.maximum(j, 0)
        return cand[(j >= 0) & (cand > ctx[clipped]) & (cand < ctx_end[clipped])]
    lo = np.searchsorted(cand, ctx, side="right")
    hi = np.searchsorted(cand, ctx_end, side="left")
    if stats is not None:
        stats.jumps += 1
        stats.index_probes += 2 * int(ctx.size)
    if ctx.size == 1:
        return cand[lo[0] : hi[0]]
    counts = hi - lo
    total = int(counts.sum())
    if stats is not None:
        stats.visited += total
    # Gather the slices: output position k of range r reads
    # cand[lo[r] + k - (outputs before r)].
    take = np.arange(total)
    take += np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return cand[take]


def _following_sibling_mask(
    index: TreeIndex,
    cand: np.ndarray,
    frontier: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Which candidates follow a frontier node among its siblings.

    ``c`` qualifies iff some frontier node shares ``parent[c]`` and
    precedes ``c`` -- i.e. ``c`` exceeds the *minimum* frontier id under
    its parent.  The frontier is ascending, so ``np.unique``'s
    first-occurrence indexes are exactly those minima.
    """
    parent = index.parent_array()
    fp = parent[frontier]
    uniq, first = np.unique(fp, return_index=True)
    mins = frontier[first]
    pc = parent[cand]
    if stats is not None:
        stats.jumps += 1
        stats.index_probes += int(cand.size)
    pos = np.searchsorted(uniq, pc)
    clipped = np.minimum(pos, uniq.size - 1)
    found = (pos < uniq.size) & (uniq[clipped] == pc)
    return found & (cand > mins[clipped])


# -- predicates as masks -----------------------------------------------------


def _pred_mask(
    index: TreeIndex,
    pred: Pred,
    nodes: np.ndarray,
    stats: Optional[EvalStats],
    kernel: Kernel,
) -> np.ndarray:
    """Boolean mask over ``nodes``: which satisfy the predicate."""
    if isinstance(pred, (PredAnd, PredOr)):
        # The right operand only sees the nodes the left one left open:
        # its true ones under ``and``, its false ones under ``or``.
        mask = _pred_mask(index, pred.left, nodes, stats, kernel)
        undecided = mask if isinstance(pred, PredAnd) else ~mask
        if undecided.any():
            mask[undecided] = _pred_mask(
                index, pred.right, nodes[undecided], stats, kernel
            )
        return mask
    if isinstance(pred, PredNot):
        return ~_pred_mask(index, pred.inner, nodes, stats, kernel)
    if isinstance(pred, PredPath):
        path = pred.path
        if path.absolute:
            result = _eval_steps(index, path.steps, None, stats, kernel)
            return np.full(nodes.size, bool(result.size), dtype=bool)
        if not path.steps:
            return np.ones(nodes.size, dtype=bool)  # '.' always exists
        budget = _witness_budget(index, path.steps, nodes.size)
        if budget:
            mask = _first_witnesses(
                index, path.steps, nodes, budget, stats, kernel
            )
            if mask is not None:
                return mask
        matches = _match_set(index, path.steps, stats, kernel)
        return kernel.successor(
            index, path.steps[0].axis, nodes, matches, stats
        )
    raise AssertionError(pred)


def _first_witnesses(
    index: TreeIndex,
    steps: tuple,
    nodes: np.ndarray,
    budget: int,
    stats: Optional[EvalStats],
    kernel: Kernel,
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
            reached = kernel.step(index, steps[depth], chunk, stats)
            if reached.size:
                if depth == last:
                    mask[i] = True
                    break
                stack.append([reached, 0, _WITNESS_CHUNK])
    return mask


def _match_set(
    index: TreeIndex,
    steps: tuple,
    stats: Optional[EvalStats],
    kernel: Kernel,
) -> np.ndarray:
    """Nodes matching ``steps[0]`` from which ``steps[1:]`` matches.

    Built back to front: ``M_k`` is the last step's test+predicate set,
    and ``M_i`` keeps the nodes of step ``i``'s set with a step-``i+1``
    successor in ``M_{i+1}``.  Existence of the whole relative path from
    a context node is then one successor probe against ``M_1``.
    """
    matches: Optional[np.ndarray] = None
    for i in range(len(steps) - 1, -1, -1):
        step = steps[i]
        cand = _candidates(index, step.axis, step.test)
        if stats is not None:
            stats.visited += int(cand.size)
            stats.jumps += 1
        if step.predicate is not None and cand.size:
            cand = cand[_pred_mask(index, step.predicate, cand, stats, kernel)]
        if matches is not None and cand.size:
            cand = cand[
                kernel.successor(index, steps[i + 1].axis, cand, matches, stats)
            ]
        matches = cand
        if matches.size == 0:
            return _EMPTY
    return matches


def _has_successor_mask(
    index: TreeIndex,
    axis: Axis,
    nodes: np.ndarray,
    targets: np.ndarray,
    stats: Optional[EvalStats],
) -> np.ndarray:
    """Which of ``nodes`` have an ``axis``-successor inside ``targets``."""
    if targets.size == 0:
        return np.zeros(nodes.size, dtype=bool)
    parent = index.parent_array()
    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        parents = parent[targets]
        parents = np.unique(parents[parents >= 0])
        return _in_sorted(nodes, parents, stats)
    if axis is Axis.DESCENDANT:
        if stats is not None:
            stats.jumps += 1
            stats.index_probes += int(nodes.size)
        lo = np.searchsorted(targets, nodes, side="right")
        hi = np.searchsorted(
            targets, index.xml_end_array()[nodes], side="left"
        )
        return hi > lo
    if axis is Axis.FOLLOWING_SIBLING:
        # Per-parent *maximum* of the target set: reverse the ascending
        # array so unique's first occurrences are the maxima.
        tp = parent[targets][::-1]
        uniq, first = np.unique(tp, return_index=True)
        maxs = targets[::-1][first]
        if stats is not None:
            stats.jumps += 1
            stats.index_probes += int(nodes.size)
        pn = parent[nodes]
        pos = np.searchsorted(uniq, pn)
        clipped = np.minimum(pos, uniq.size - 1)
        found = (pos < uniq.size) & (uniq[clipped] == pn)
        return found & (maxs[clipped] > nodes)
    raise AssertionError(axis)  # pragma: no cover - forward fragment only


_KERNEL = Kernel(_eval_step, _has_successor_mask)


@register_strategy
class VectorizedStrategy(StrategyBase):
    """Set-at-a-time frontier evaluation over numpy node-id arrays."""

    name = "vectorized"
    fallback = "optimized"  # relative / backward queries keep working
    needs_asta = False
    parallel_safe = True

    def supports(self, path: Path) -> bool:
        return is_vectorizable(path)

    def execute(self, plan, index, stats):
        return run_kernel(plan.path, index, stats, _KERNEL)
