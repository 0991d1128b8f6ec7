"""``topdown_jump``: the jumping top-down evaluation (Algorithm B.1).

Given a *minimal, complete* TDSTA, computes the partial run restricted to
(top-down) relevant nodes using the jumping functions of Definition 3.2.
Theorem 3.1: the returned mapping is defined exactly on the relevant nodes
of the unique run, and is empty iff the run is rejecting.

The per-state analysis follows Lemma 3.1.  For a state ``q`` we partition
the labels that *cannot* make a node relevant into three skip sets:

- ``loop_both``  : δ(q,l) = (q, q)   and (q,l) ∉ S   -> condition 1,
- ``loop_left``  : δ(q,l) = (q, q>)  and (q,l) ∉ S   -> condition 2,
- ``loop_right`` : δ(q,l) = (q>, q)  and (q,l) ∉ S   -> condition 3.

Pure shapes map onto the three jump cases of Algorithm B.1 (dt/ft for
loop_both, lt for loop_left, rt for loop_right -- the arXiv pseudocode's
line 23 says ``lt`` for the third case, an evident transcription slip).
Mixed shapes, or essential-label sets that are co-finite (where the O(|L|)
index cost model forbids jumping -- the paper's "no jump is possible"),
fall back to visiting the node directly, which is sound but may touch
non-relevant nodes; the engine never does worse than plain descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.automata.labelset import LabelSet
from repro.automata.relevance import topdown_universal_state
from repro.automata.sta import STA, State
from repro.counters import EvalStats
from repro.index.jumping import OMEGA, TreeIndex
from repro.tree.binary import NIL


class _Failure(Exception):
    """No accepting run exists."""


@dataclass
class _StateInfo:
    essential: LabelSet
    shape: str  # "both" | "left" | "right" | "mixed" | "skip"
    essential_ids: Optional[List[int]]  # None when co-finite / not jumpable


def _analyze(sta: STA, index: TreeIndex) -> Dict[State, _StateInfo]:
    q_top = topdown_universal_state(sta)
    info: Dict[State, _StateInfo] = {}
    for q in sta.states:
        loop_both = LabelSet.empty()
        loop_left = LabelSet.empty()
        loop_right = LabelSet.empty()
        sel = sta.selecting.get(q, LabelSet.empty())
        for t in sta.transitions:
            if t.q != q:
                continue
            skippable = t.labels.difference(sel)
            if (t.q1, t.q2) == (q, q):
                loop_both = loop_both.union(skippable)
            elif t.q1 == q and t.q2 == q_top:
                loop_left = loop_left.union(skippable)
            elif t.q2 == q and t.q1 == q_top:
                loop_right = loop_right.union(skippable)
        essential = (
            loop_both.union(loop_left).union(loop_right).complement()
        ).union(sel)
        if q == q_top:
            shape = "skip"  # A[q>] accepts everything, selects nothing
        elif not loop_left.is_empty() and loop_both.is_empty() and loop_right.is_empty():
            shape = "left"
        elif not loop_right.is_empty() and loop_both.is_empty() and loop_left.is_empty():
            shape = "right"
        elif loop_left.is_empty() and loop_right.is_empty() and not loop_both.is_empty():
            # Skipping a loop_both region leaves all its # leaves in q; that
            # is only acceptance-transparent when q ∈ B.  Otherwise fall
            # back to plain descent (sound; the region must be walked to
            # check the B constraint anyway).
            shape = "both" if q in sta.bottom else "mixed"
        else:
            shape = "mixed"  # mixed loop shapes, or nothing skippable
        ids = essential.positive_ids(index.tree) if shape in ("both", "left", "right") else None
        if shape == "both" and ids is None:
            shape = "mixed"  # co-finite essential set: not jumpable
        info[q] = _StateInfo(essential, shape, ids)
    return info


def topdown_jump(
    sta: STA,
    index: TreeIndex,
    stats: EvalStats,
) -> Dict[int, State]:
    """Partial run on relevant nodes; ``{}`` iff the run is rejecting.

    Parameters mirror Algorithm B.1: a minimal complete TDSTA and a tree
    index supplying dt/ft/lt/rt.
    """
    if len(sta.top) != 1:
        raise ValueError("topdown_jump requires a TDSTA (|T| = 1)")
    tree = index.tree
    info = _analyze(sta, index)
    sink = _find_sink(sta)
    (q0,) = tuple(sta.top)

    def relevant_nodes(v: int, q: State) -> List[int]:
        st = info[q]
        if st.shape == "skip":
            return []
        if st.essential.contains(tree.label(v)):
            return [v]
        if st.shape == "both":
            stats.jumps += 1
            out: List[int] = []
            cur = index.dt(v, st.essential_ids)
            while cur != OMEGA:
                out.append(cur)
                stats.jumps += 1
                cur = index.ft(cur, st.essential_ids, v)
            return out
        if st.shape == "left":
            if st.essential_ids is None:
                return [v]
            stats.jumps += 1
            hit = index.lt(v, st.essential_ids)
            if hit == OMEGA:
                # End of the left spine: its terminal # leaf carries q.
                if q not in sta.bottom:
                    raise _Failure
                return []
            return [hit]
        if st.shape == "right":
            if st.essential_ids is None:
                return [v]
            stats.jumps += 1
            hit = index.rt(v, st.essential_ids)
            if hit == OMEGA:
                if q not in sta.bottom:
                    raise _Failure
                return []
            return [hit]
        return [v]  # mixed: sound fallback, visit the node itself

    run: Dict[int, State] = {}
    stack: List[tuple] = []

    def schedule(v: int, q: State) -> None:
        for node in relevant_nodes(v, q):
            stack.append((node, q))

    try:
        schedule(0, q0)
        while stack:
            v, q = stack.pop()
            run[v] = q
            stats.visited += 1
            dests = sta.dest(q, tree.label(v))
            if len(dests) != 1:
                raise ValueError(
                    "topdown_jump requires a complete deterministic TDSTA"
                )
            q1, q2 = dests[0]
            if q1 == sink or q2 == sink:
                raise _Failure
            lc, rc = tree.left[v], tree.right[v]
            for child, qc in ((lc, q1), (rc, q2)):
                if child == NIL:
                    if qc not in sta.bottom:
                        raise _Failure
                else:
                    schedule(child, qc)
    except _Failure:
        return {}
    return run


def _find_sink(sta: STA) -> Optional[State]:
    from repro.automata.relevance import topdown_sink_state

    return topdown_sink_state(sta)
