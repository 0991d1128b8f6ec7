"""Deterministic compilation of path queries (the Intro's TDTA story).

The paper's "extreme |Q|-optimization" compiles a *restricted* XPath
subset into a top-down deterministic automaton whose run needs a single
look-up per node.  The restriction is essential: with predicates a
top-down automaton cannot know whether to select (the ``//a[.//b]//c``
discussion of Section 1).

This module realizes that restricted compiler by determinizing the
compiled ASTA's top-down approximation *exactly*:

- a query qualifies (:func:`is_path_shaped`) iff every transition formula
  is ``⊤``, ``↓1 q``, ``↓2 q`` or ``↓1 q ∨ ↓2 q`` -- the shape the
  Section 4.2 compiler produces for predicate-free location paths;
- for such automata every disjunct carries at most one obligation, so the
  subset states of ``tda(A)`` describe exactly the realizable active
  state sets, and selection depends only on the root path: the resulting
  :class:`~repro.automata.sta.STA` is a top-down deterministic selector
  equivalent to the ASTA.

The produced TDSTA feeds the Section 3 pipeline: minimization
(:func:`~repro.automata.minimize.minimize_tdsta`) and the jumping
evaluation of Algorithm B.1 (:func:`~repro.automata.topdown.topdown_jump`)
-- see :mod:`repro.engine.deterministic`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.asta.automaton import ASTA
from repro.asta.formula import down_states
from repro.automata.labelset import LabelSet
from repro.automata.sta import STA, Transition

StateSet = FrozenSet[str]


class NotPathShaped(ValueError):
    """The ASTA is outside the deterministically-compilable fragment."""


def is_path_shaped(asta: ASTA) -> bool:
    """True iff the ASTA came from a predicate-free location path.

    Structurally: every formula is ⊤ / ↓1 q / ↓2 q / ↓1 q ∨ ↓2 q, and
    every *selecting* formula is ⊤.  The latter is the paper's Section 1
    point: with a predicate, selection depends on the subtree, which a
    top-down deterministic automaton cannot know (``//a[.//b]//c``).
    """
    for t in asta.transitions:
        f = t.formula
        if t.selecting and f != ("T",):
            return False
        if f == ("T",):
            continue
        if f[0] == "d":
            continue
        if (
            f[0] == "|"
            and f[1][0] == "d"
            and f[2][0] == "d"
            and len(down_states(f)) <= 2
        ):
            continue
        return False
    return True


def _enc(states: StateSet) -> str:
    return "{" + ",".join(sorted(states)) + "}" if states else "{∅}"


def path_tdsta(asta: ASTA, max_states: int = 4096) -> STA:
    """Exact top-down deterministic STA for a path-shaped ASTA."""
    if not is_path_shaped(asta):
        raise NotPathShaped(
            "deterministic compilation requires a predicate-free path query"
        )
    atoms = asta.atoms()
    empty: StateSet = frozenset()
    seen: Set[StateSet] = set()
    frontier: List[StateSet] = []

    def visit(states: StateSet) -> str:
        if states not in seen:
            if len(seen) >= max_states:
                raise NotPathShaped(
                    f"subset construction exceeded {max_states} states"
                )
            seen.add(states)
            frontier.append(states)
        return _enc(states)

    top = visit(frozenset(asta.top))
    visit(empty)

    transitions: List[Transition] = []
    selecting: Dict[str, LabelSet] = {}

    while frontier:
        states = frontier.pop()
        name = _enc(states)
        for rep, atom in atoms:
            s1: Set[str] = set()
            s2: Set[str] = set()
            fires = False
            for q in states:
                for t in asta.transitions_of(q):
                    if not t.labels.contains(rep):
                        continue
                    for side, q2 in down_states(t.formula):
                        (s1 if side == 1 else s2).add(q2)
                    if t.selecting:
                        fires = True
            transitions.append(
                Transition(
                    name, atom, visit(frozenset(s1)), visit(frozenset(s2))
                )
            )
            if fires:
                prev = selecting.get(name, LabelSet.empty())
                selecting[name] = prev.union(atom)

    names = sorted(_enc(s) for s in seen)
    return STA(
        names,
        [top],
        names,  # every state accepts #: path queries impose no constraints
        selecting,
        _merge_labels(transitions),
    )


def _merge_labels(transitions: List[Transition]) -> List[Transition]:
    grouped: Dict[Tuple[str, str, str], LabelSet] = {}
    order: List[Tuple[str, str, str]] = []
    for t in transitions:
        key = (t.q, t.q1, t.q2)
        if key in grouped:
            grouped[key] = grouped[key].union(t.labels)
        else:
            grouped[key] = t.labels
            order.append(key)
    return [Transition(q, grouped[(q, q1, q2)], q1, q2) for q, q1, q2 in order]
