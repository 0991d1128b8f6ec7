"""Bottom-up evaluation of BDSTAs (Section 3.2, Algorithm B.2).

Three entry points:

- :func:`bottom_up` -- the unique run of a bottom-up complete BDSTA,
  computed by a reverse-preorder sweep (linear, used as the workhorse);
- :func:`bottom_up_reduce` -- the paper's list-reduction formulation of
  Algorithm B.2 over the explicit leaf sequence, kept for fidelity and
  cross-checked against :func:`bottom_up` in the tests;
- :func:`bottomup_jump` -- the subtree-skipping variant: whole binary
  subtrees that provably reduce to the initial state q0 are skipped using
  O(|L| log n) label-count probes.  The paper only sketches its
  ``bottomup_jump`` (their index lacks ancestor jumps; Section 5), so we
  implement the subtree-skipping core that Lemma 3.2's conditions license
  and validate it for soundness + node-visit reduction rather than the
  full Theorem 3.2 optimality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.automata.sta import STA, State
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import NIL, BinaryTree


def bottom_up(
    sta: STA,
    tree: BinaryTree,
    stats: EvalStats,
) -> Optional[Dict[int, State]]:
    """The unique run of a bottom-up complete BDSTA; None if rejecting."""
    if len(sta.bottom) != 1:
        raise ValueError("bottom_up requires a BDSTA (|B| = 1)")
    (q0,) = tuple(sta.bottom)
    run: Dict[int, State] = {}
    for v in range(tree.n - 1, -1, -1):
        lc, rc = tree.left[v], tree.right[v]
        s1 = q0 if lc == NIL else run[lc]
        s2 = q0 if rc == NIL else run[rc]
        sources = sta.source(s1, s2, tree.label(v))
        if len(sources) != 1:
            raise ValueError("automaton is not bottom-up deterministic/complete")
        run[v] = sources[0]
        stats.visited += 1
    if run[0] not in sta.top:
        return None
    return run


def selected_by_run(sta: STA, tree: BinaryTree, run: Dict[int, State]) -> List[int]:
    """Nodes v with (run[v], label(v)) ∈ S, in document order."""
    return [
        v for v in range(tree.n) if sta.selects(run[v], tree.label(v))
    ]


# ---------------------------------------------------------------------------
# Algorithm B.2: list reduction over the explicit leaf sequence
# ---------------------------------------------------------------------------


def bottom_up_reduce(sta: STA, tree: BinaryTree) -> Optional[Dict[int, State]]:
    """Algorithm B.2 verbatim (iteratively), over explicit ``#`` leaves.

    Builds the preorder sequence of ``#`` leaves, then shift-reduces:
    whenever the two front items are siblings they are replaced by their
    parent with the state δ(q1, q2, label).  Virtual leaves are encoded as
    ``(parent, side)`` pairs with negative ids.
    """
    if len(sta.bottom) != 1:
        raise ValueError("bottom_up_reduce requires a BDSTA")
    (q0,) = tuple(sta.bottom)

    # Items: (node_id, state); virtual leaves use ids -(2v+2) for the left
    # # child of v and -(2v+3) for the right one.
    def leaf_items() -> List[Tuple[int, State]]:
        order: List[int] = []
        stack = [0]
        while stack:
            v = stack.pop()
            if v < 0:
                order.append(v)
                continue
            lc, rc = tree.left[v], tree.right[v]
            stack.append(rc if rc != NIL else -(2 * v + 3))
            stack.append(lc if lc != NIL else -(2 * v + 2))
        return [(v, q0) for v in order]

    def parent_and_side(item: int) -> Tuple[int, int]:
        if item < 0:
            code = -item - 2
            return code // 2, code % 2
        p = tree.bparent[item]
        side = 0 if tree.left[p] == item else 1
        return p, side

    run: Dict[int, State] = {}
    # Shift-reduce with an output stack: push items; reduce when the top
    # two are the left and right children of the same parent.
    out: List[Tuple[int, State]] = []
    for item in leaf_items():
        out.append(item)
        while len(out) >= 2:
            (v2, s2) = out[-1]
            (v1, s1) = out[-2]
            if v1 == 0:
                break  # the fully-reduced root cannot be anyone's child
            p1, side1 = parent_and_side(v1)
            p2, side2 = parent_and_side(v2)
            if p1 != p2 or side1 != 0 or side2 != 1:
                break
            sources = sta.source(s1, s2, tree.label(p1))
            if len(sources) != 1:
                raise ValueError("automaton is not bottom-up deterministic")
            out.pop()
            out.pop()
            run[p1] = sources[0]
            out.append((p1, sources[0]))
    if len(out) != 1 or out[0][0] != 0:
        raise AssertionError("reduction did not converge to the root")
    if run[0] not in sta.top:
        return None
    return run


# ---------------------------------------------------------------------------
# subtree-skipping bottom-up evaluation
# ---------------------------------------------------------------------------


def active_label_ids(sta: STA, tree: BinaryTree) -> Optional[List[int]]:
    """Label ids of *active* atoms (δ(q0,q0,l) ≠ q0) materialized in ``tree``.

    Returns None when the co-finite rest atom is active (then every label
    of the document not mentioned by the automaton is active and skipping
    by counting is not worthwhile).
    """
    from repro.automata.minimize import atoms

    (q0,) = tuple(sta.bottom)
    ids: List[int] = []
    for rep, atom in atoms(sta):
        src = sta.source(q0, q0, rep)
        active = not (len(src) == 1 and src[0] == q0)
        if not active:
            continue
        if not atom.is_finite():
            return None
        for name in atom.names:
            lab = tree.label_ids.get(name)
            if lab is not None:
                ids.append(lab)
    return ids


def bottomup_jump(
    sta: STA,
    index: TreeIndex,
    stats: EvalStats,
) -> Optional[Dict[int, State]]:
    """Bottom-up run that skips q0-inert binary subtrees.

    Sound for bottom-up complete BDSTAs: a subtree whose labels all map
    (q0, q0, l) -> q0 reduces to q0 (induction over the subtree), so the
    run values on the nodes actually visited agree with :func:`bottom_up`.
    The skipped nodes are exactly those Lemma 3.2's first/second conditions
    certify non-relevant through q0-inertia.
    """
    if len(sta.bottom) != 1:
        raise ValueError("bottomup_jump requires a BDSTA (|B| = 1)")
    (q0,) = tuple(sta.bottom)
    tree = index.tree
    active = active_label_ids(sta, tree)
    run: Dict[int, State] = {}

    def eval_range(v: int) -> State:
        """State of node v, skipping inert regions inside [v, bend(v))."""
        # Iterative post-order over the binary tree with skip checks.
        result: Dict[int, State] = {}
        stack: List[Tuple[int, int]] = [(v, 0)]
        while stack:
            node, phase = stack.pop()
            if phase == 0:
                # Skip test applies to the *binary* subtree rooted at node.
                if active is not None:
                    lo, hi = node, tree.bend(node)
                    stats.index_probes += 1
                    if index.labels.count_in_range(active, lo, hi) == 0:
                        result[node] = q0
                        continue
                stack.append((node, 1))
                rc = tree.right[node]
                lc = tree.left[node]
                if rc != NIL:
                    stack.append((rc, 0))
                if lc != NIL:
                    stack.append((lc, 0))
            else:
                lc, rc = tree.left[node], tree.right[node]
                s1 = q0 if lc == NIL else result[lc]
                s2 = q0 if rc == NIL else result[rc]
                sources = sta.source(s1, s2, tree.label(node))
                if len(sources) != 1:
                    raise ValueError("automaton is not bottom-up deterministic")
                result[node] = sources[0]
                stats.visited += 1
        run.update(result)
        return result[v]

    root_state = eval_range(0)
    if root_state not in sta.top:
        return None
    return run
