"""Selecting tree automata (Definition 2.1) with reference semantics.

An STA is ``(Σ, Q, T, B, S, δ)``: top states, bottom states, selecting
configurations and transitions ``q, L -> (q1, q2)``.  Σ is implicit (label
sets are finite/co-finite over all names; see
:mod:`repro.automata.labelset`).

This module deliberately implements the *mathematical* semantics -- the set
of all accepting runs -- as a polynomial oracle (bottom-up reachable-state
sets plus a top-down usefulness pass).  The optimized evaluators of
Sections 3-4 are tested against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.automata.labelset import LabelSet
from repro.tree.binary import NIL, BinaryTree

State = str


@dataclass(frozen=True)
class Transition:
    """One rule ``q, L -> (q1, q2)``."""

    q: State
    labels: LabelSet
    q1: State
    q2: State

    def __repr__(self) -> str:
        return f"{self.q}, {self.labels} -> ({self.q1}, {self.q2})"


class STA:
    """A selecting tree automaton over binary fcns trees.

    Parameters
    ----------
    states:
        The state set Q.
    top:
        T ⊆ Q (accepting at the root for bottom-up reading; initial for
        top-down reading).
    bottom:
        B ⊆ Q (required at ``#`` leaves; initial for bottom-up reading).
    selecting:
        The set S as a mapping ``state -> LabelSet`` (``(q, l) ∈ S`` iff
        ``l ∈ selecting[q]``).
    transitions:
        The rule set δ.
    """

    def __init__(
        self,
        states: Iterable[State],
        top: Iterable[State],
        bottom: Iterable[State],
        selecting: Dict[State, LabelSet],
        transitions: Sequence[Transition],
    ) -> None:
        self.states: Tuple[State, ...] = tuple(dict.fromkeys(states))
        self.top: FrozenSet[State] = frozenset(top)
        self.bottom: FrozenSet[State] = frozenset(bottom)
        self.selecting: Dict[State, LabelSet] = {
            q: ls for q, ls in selecting.items() if not ls.is_empty()
        }
        self.transitions: Tuple[Transition, ...] = tuple(transitions)
        self._validate()

    def _validate(self) -> None:
        known = set(self.states)
        for q in self.top | self.bottom | set(self.selecting):
            if q not in known:
                raise ValueError(f"unknown state {q!r}")
        for t in self.transitions:
            for q in (t.q, t.q1, t.q2):
                if q not in known:
                    raise ValueError(f"unknown state {q!r} in {t}")

    # -- structural queries ------------------------------------------------------

    def alphabet_sample(self) -> Tuple[str, ...]:
        """All names mentioned anywhere, plus a fresh ``other`` witness.

        Behaviour of the automaton is uniform on unmentioned labels, so this
        finite sample is sufficient for determinism checks, minimization and
        equivalence.
        """
        names: Set[str] = set()
        for t in self.transitions:
            names |= t.labels.mentioned()
        for ls in self.selecting.values():
            names |= ls.mentioned()
        other = "†other"
        while other in names:
            other += "'"
        return tuple(sorted(names)) + (other,)

    def dest(self, q: State, label: str) -> list[Tuple[State, State]]:
        """δ(q, l): destination pairs (top-down reading)."""
        return [
            (t.q1, t.q2)
            for t in self.transitions
            if t.q == q and t.labels.contains(label)
        ]

    def source(self, q1: State, q2: State, label: str) -> list[State]:
        """δ(q1, q2, l): source states (bottom-up reading)."""
        return [
            t.q
            for t in self.transitions
            if t.q1 == q1 and t.q2 == q2 and t.labels.contains(label)
        ]

    def selects(self, q: State, label: str) -> bool:
        """Whether ``(q, label) ∈ S``."""
        ls = self.selecting.get(q)
        return ls is not None and ls.contains(label)

    # -- determinism / completeness (Section 2) ------------------------------------

    def is_topdown_deterministic(self) -> bool:
        if len(self.top) != 1:
            return False
        sample = self.alphabet_sample()
        return all(
            len(self.dest(q, label)) <= 1
            for q in self.states
            for label in sample
        )

    def is_topdown_complete(self) -> bool:
        sample = self.alphabet_sample()
        return all(
            len(self.dest(q, label)) >= 1
            for q in self.states
            for label in sample
        )

    def is_bottomup_deterministic(self) -> bool:
        if len(self.bottom) != 1:
            return False
        sample = self.alphabet_sample()
        return all(
            len(set(self.source(q1, q2, label))) <= 1
            for q1 in self.states
            for q2 in self.states
            for label in sample
        )

    def is_bottomup_complete(self) -> bool:
        sample = self.alphabet_sample()
        return all(
            len(self.source(q1, q2, label)) >= 1
            for q1 in self.states
            for q2 in self.states
            for label in sample
        )

    # -- Definition 2.4 --------------------------------------------------------------

    def is_non_changing(self, q: State) -> bool:
        """∀l: δ(q, l) = {(q, q)} -- the state loops on everything."""
        sample = self.alphabet_sample()
        return all(self.dest(q, label) == [(q, q)] for label in sample)

    def is_topdown_universal(self, q: State) -> bool:
        return self.is_non_changing(q) and q in self.bottom and q not in self.selecting

    def is_topdown_sink(self, q: State) -> bool:
        return self.is_non_changing(q) and q not in self.bottom

    # -- restriction A[q] (Definition A.2) ---------------------------------------------

    def restrict(self, *tops: State) -> "STA":
        """A[q1..qn]: replace T and drop states unreachable from it."""
        reach: Set[State] = set(tops)
        frontier = list(tops)
        by_source: Dict[State, list[Transition]] = {}
        for t in self.transitions:
            by_source.setdefault(t.q, []).append(t)
        while frontier:
            q = frontier.pop()
            for t in by_source.get(q, ()):
                for nxt in (t.q1, t.q2):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
        return STA(
            [q for q in self.states if q in reach],
            [q for q in tops],
            [q for q in self.bottom if q in reach],
            {q: ls for q, ls in self.selecting.items() if q in reach},
            [t for t in self.transitions if t.q in reach],
        )

    # -- reference semantics (oracle) ------------------------------------------------

    def reachable_states(self, tree: BinaryTree) -> list[FrozenSet[State]]:
        """For each node, the states q with some valid sub-run R(v) = q.

        Valid means: every ``#`` leaf strictly below (in the binary sense)
        is assigned a bottom state.  Computed bottom-up in one backwards
        sweep (children have larger ids).
        """
        bottom = frozenset(self.bottom)
        out: list[FrozenSet[State]] = [frozenset()] * tree.n
        for v in range(tree.n - 1, -1, -1):
            lc, rc = tree.left[v], tree.right[v]
            s1 = bottom if lc == NIL else out[lc]
            s2 = bottom if rc == NIL else out[rc]
            label = tree.label(v)
            here: Set[State] = set()
            for t in self.transitions:
                if t.q1 in s1 and t.q2 in s2 and t.labels.contains(label):
                    here.add(t.q)
            out[v] = frozenset(here)
        return out

    def accepts(self, tree: BinaryTree) -> bool:
        """t ∈ L(A)?"""
        return bool(self.reachable_states(tree)[0] & self.top)

    def useful_states(self, tree: BinaryTree) -> list[FrozenSet[State]]:
        """States per node that occur in at least one *accepting* run."""
        reach = self.reachable_states(tree)
        useful: list[Set[State]] = [set() for _ in range(tree.n)]
        useful[0] = set(reach[0] & self.top)
        bottom = frozenset(self.bottom)
        for v in range(tree.n):
            if not useful[v]:
                continue
            lc, rc = tree.left[v], tree.right[v]
            s1 = bottom if lc == NIL else reach[lc]
            s2 = bottom if rc == NIL else reach[rc]
            label = tree.label(v)
            for t in self.transitions:
                if (
                    t.q in useful[v]
                    and t.q1 in s1
                    and t.q2 in s2
                    and t.labels.contains(label)
                ):
                    if lc != NIL:
                        useful[lc].add(t.q1)
                    if rc != NIL:
                        useful[rc].add(t.q2)
        return [frozenset(u) for u in useful]

    def selected_nodes(self, tree: BinaryTree) -> list[int]:
        """A(t): nodes selected by some accepting run (Definition 2.3)."""
        if not self.selecting:
            return []
        useful = self.useful_states(tree)
        out = []
        for v in range(tree.n):
            label = tree.label(v)
            if any(self.selects(q, label) for q in useful[v]):
                out.append(v)
        return out

    def deterministic_topdown_run(self, tree: BinaryTree) -> Optional[Dict[int, State]]:
        """The unique run of a top-down complete TDSTA; None if rejecting.

        States are also assigned to the virtual ``#`` leaves conceptually;
        acceptance checks them against B on the fly.
        """
        (q0,) = tuple(self.top)
        run: Dict[int, State] = {}
        stack: list[Tuple[int, State]] = [(0, q0)]
        while stack:
            v, q = stack.pop()
            run[v] = q
            dests = self.dest(q, tree.label(v))
            if len(dests) != 1:
                raise ValueError("automaton is not top-down deterministic/complete")
            q1, q2 = dests[0]
            lc, rc = tree.left[v], tree.right[v]
            for child, qc in ((lc, q1), (rc, q2)):
                if child == NIL:
                    if qc not in self.bottom:
                        return None
                else:
                    stack.append((child, qc))
        return run

    # -- misc ---------------------------------------------------------------------------

    def rename(self, mapping: Dict[State, State]) -> "STA":
        """Apply a state renaming (used by minimization back-translation)."""

        def r(q: State) -> State:
            return mapping.get(q, q)

        merged_sel: Dict[State, LabelSet] = {}
        for q, ls in self.selecting.items():
            tgt = r(q)
            merged_sel[tgt] = ls if tgt not in merged_sel else merged_sel[tgt].union(ls)
        return STA(
            dict.fromkeys(r(q) for q in self.states),
            {r(q) for q in self.top},
            {r(q) for q in self.bottom},
            merged_sel,
            list(
                dict.fromkeys(
                    Transition(r(t.q), t.labels, r(t.q1), r(t.q2))
                    for t in self.transitions
                )
            ),
        )

    def __repr__(self) -> str:
        return (
            f"STA(|Q|={len(self.states)}, |δ|={len(self.transitions)}, "
            f"T={sorted(self.top)}, B={sorted(self.bottom)})"
        )
