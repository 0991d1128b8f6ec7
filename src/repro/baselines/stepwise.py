"""Step-at-a-time Core XPath evaluation (the "conventional engine").

Evaluates one location step at a time over materialized node sets, the
algorithmic family of Gottlob-Koch [6] and of relational XQuery engines
(MonetDB/XQuery with staircase joins [9]).  This is the stand-in
comparator for Figure 8 / Appendix D: same answers as the automata
engines, but per-step node-set materialization instead of a single
automaton pass -- so it cannot restrict evaluation to relevant nodes
(Related Work: THOR "does step-wise evaluation of XPath a la Koch and
therefore cannot use these structures to restrict evaluation to only
relevant nodes").

Descendant steps use the staircase join; child and following-sibling
steps walk sibling lists; predicates are evaluated per candidate node with
early exit.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.baselines.staircase import descendants_with_label, topmost_prune
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import NIL, BinaryTree
from repro.xpath.ast import Axis, Path, Pred, PredAnd, PredNot, PredOr, PredPath, Step
from repro.xpath.parser import parse_xpath


def stepwise_evaluate(
    query: Union[str, Path],
    index: TreeIndex,
    stats: EvalStats,
) -> List[int]:
    """Selected node ids, document order (agrees with all other engines)."""
    path = parse_xpath(query) if isinstance(query, str) else query
    if not path.absolute:
        raise ValueError("stepwise_evaluate expects an absolute query")
    context = [-1]  # the document node
    result = _eval_steps(index, path.steps, context, stats)
    stats.selected = len(result)
    return result


def _eval_steps(
    index: TreeIndex,
    steps: tuple,
    context: List[int],
    stats: EvalStats,
) -> List[int]:
    current = context
    for step in steps:
        current = _eval_step(index, step, current, stats)
        if not current:
            break
    return current


def _eval_step(
    index: TreeIndex,
    step: Step,
    context: List[int],
    stats: EvalStats,
) -> List[int]:
    tree = index.tree
    label = None if step.test in ("*", "node()") else _test_label(step)
    if step.axis is Axis.DESCENDANT:
        if -1 in context:
            # descendant from the document node = every element incl. the
            # root: a full scan of the node table filtered by tag, exactly
            # what a top-level '//' costs a conventional engine.
            stats.visited += tree.n
            if label is not None:
                lab = tree.label_ids.get(label)
                label_of = tree.label_of
                out = (
                    []
                    if lab is None
                    else [w for w in range(tree.n) if label_of[w] == lab]
                )
            else:
                out = list(range(tree.n))
        else:
            out = descendants_with_label(tree, index.labels, context, label, stats)
        if step.test == "*":
            out = [v for v in out if not tree.label(v).startswith(("@", "#"))]
    elif step.axis in (Axis.CHILD, Axis.ATTRIBUTE):
        out = []
        for v in context:
            children = [0] if v == -1 else list(tree.children(v))
            for c in children:
                stats.visited += 1
                if _child_matches(tree, step, label, c):
                    out.append(c)
        out = _sorted_dedup(out)
    elif step.axis is Axis.FOLLOWING_SIBLING:
        out = []
        for v in context:
            if v == -1:
                continue
            cur = tree.right[v]
            while cur != NIL:
                stats.visited += 1
                if label is None or tree.label(cur) == label:
                    out.append(cur)
                cur = tree.right[cur]
        out = _sorted_dedup(out)
    elif step.axis is Axis.PARENT:
        out = []
        for v in context:
            if v == -1:
                continue
            p = tree.parent[v]
            if p == NIL:
                continue
            stats.visited += 1
            if label is None or tree.label(p) == label:
                out.append(p)
        out = _sorted_dedup(out)
    elif step.axis is Axis.ANCESTOR:
        out = []
        seen = set()
        for v in context:
            if v == -1:
                continue
            p = tree.parent[v]
            while p != NIL and p not in seen:
                seen.add(p)
                stats.visited += 1
                if label is None or tree.label(p) == label:
                    out.append(p)
                p = tree.parent[p]
        out = _sorted_dedup(out)
    else:  # pragma: no cover - exhaustive over Axis
        raise AssertionError(step.axis)
    if step.predicate is not None:
        out = [v for v in out if _eval_pred(index, step.predicate, v, stats)]
    return out


def _test_label(step: Step) -> str:
    if step.axis is Axis.ATTRIBUTE:
        return "@" + step.test
    if step.test == "text()":
        return "#text"
    return step.test


def _child_matches(tree: BinaryTree, step: Step, label: Optional[str], c: int) -> bool:
    name = tree.label(c)
    if step.axis is Axis.ATTRIBUTE:
        if step.test in ("*", "node()"):
            return name.startswith("@")
        return name == label
    if label is not None:
        return name == label
    if step.test == "*":
        return not name.startswith(("@", "#"))
    return True  # node()


def _sorted_dedup(nodes: List[int]) -> List[int]:
    if not nodes:
        return nodes
    nodes.sort()
    out = [nodes[0]]
    for v in nodes[1:]:
        if v != out[-1]:
            out.append(v)
    return out


def _eval_pred(
    index: TreeIndex, pred: Pred, v: int, stats: EvalStats
) -> bool:
    if isinstance(pred, PredAnd):
        return _eval_pred(index, pred.left, v, stats) and _eval_pred(
            index, pred.right, v, stats
        )
    if isinstance(pred, PredOr):
        return _eval_pred(index, pred.left, v, stats) or _eval_pred(
            index, pred.right, v, stats
        )
    if isinstance(pred, PredNot):
        return not _eval_pred(index, pred.inner, v, stats)
    if isinstance(pred, PredPath):
        path = pred.path
        if path.absolute:
            return bool(_eval_steps(index, path.steps, [-1], stats))
        if not path.steps:
            return True
        return bool(_eval_steps(index, path.steps, [v], stats))
    raise AssertionError(pred)
