"""Relevant nodes (Definition 3.1, Lemma 3.1).

A node is *relevant* when the minimal automaton gains information there:
it is selected, or a state change occurs.  These reference computations
back the optimality statement (Theorem 3.1) in the test suite:

- :func:`topdown_relevant` -- Lemma 3.1 over the unique run of a minimal
  complete TDSTA;
- :func:`relevant_definition31` -- Definition 3.1 itself, by
  sub-automaton equivalence: the specification Lemma 3.1 is checked
  against.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

from repro.automata.sta import STA, State
from repro.tree.binary import BinaryTree


def topdown_universal_state(sta: STA) -> Optional[State]:
    """The state q> of a minimal TDSTA, if present (Definition 2.4)."""
    for q in sta.states:
        if sta.is_topdown_universal(q):
            return q
    return None


def topdown_sink_state(sta: STA) -> Optional[State]:
    """The state q⊥ of a minimal TDSTA, if present."""
    for q in sta.states:
        if sta.is_topdown_sink(q):
            return q
    return None


def topdown_relevant(sta: STA, tree: BinaryTree) -> Optional[FrozenSet[int]]:
    """Relevant nodes per Lemma 3.1 for a minimal complete TDSTA.

    Returns None when the unique run is rejecting (then ``topdown_jump``
    must return the empty mapping, Theorem 3.1).
    """
    run = sta.deterministic_topdown_run(tree)
    if run is None:
        return None
    q_top = topdown_universal_state(sta)
    out: Set[int] = set()
    for v in range(tree.n):
        label = tree.label(v)
        q = run[v]
        if sta.selects(q, label):
            out.add(v)
            continue
        ((q1, q2),) = sta.dest(q, label)
        if q == q1 == q2:
            continue
        if q == q1 and q2 == q_top:
            continue
        if q == q2 and q1 == q_top:
            continue
        out.add(v)
    return frozenset(out)


def universal_sta() -> STA:
    """A_⊤: accepts T(Σ), selects nothing (Definition 3.1's reference)."""
    from repro.automata.labelset import ANY
    from repro.automata.sta import Transition

    return STA(["qT"], ["qT"], ["qT"], {}, [Transition("qT", ANY, "qT", "qT")])


def relevant_definition31(sta: STA, tree: BinaryTree) -> Optional[FrozenSet[int]]:
    """Relevant nodes straight from Definition 3.1, for TDSTAs.

    Uses actual sub-automaton equivalence checks ``A[q] ≡ A[q']`` and
    ``A[q] ≡ A_⊤`` (the EXPTIME-complete route the paper says is
    impractical -- which is fine here: this is the *specification*, used
    by the tests to validate Lemma 3.1's efficient characterization on
    minimal automata).

    The definition speaks about nodes whose both children are in Dom(t);
    our virtual-# encoding makes every node binary-internal, with ``#``
    children behaving as sub-runs that trivially satisfy their state's
    B-membership, so the same conditions apply with the child states read
    off the unique run.
    """
    from repro.automata.minimize import tdsta_equivalent

    run = sta.deterministic_topdown_run(tree)
    if run is None:
        return None
    top = universal_sta()

    # Cache pairwise sub-automaton equivalences (they depend only on
    # states, not nodes).
    equiv_cache: dict = {}

    def equivalent(q1: State, q2: State) -> bool:
        key = (q1, q2)
        if key not in equiv_cache:
            equiv_cache[key] = tdsta_equivalent(
                sta.restrict(q1), sta.restrict(q2)
            )
        return equiv_cache[key]

    univ_cache: dict = {}

    def is_universal(q: State) -> bool:
        if q not in univ_cache:
            univ_cache[q] = tdsta_equivalent(sta.restrict(q), top)
        return univ_cache[q]

    out: Set[int] = set()
    for v in range(tree.n):
        label = tree.label(v)
        q = run[v]
        if sta.selects(q, label):
            out.add(v)
            continue
        ((q1, q2),) = sta.dest(q, label)
        if equivalent(q, q1) and equivalent(q, q2):
            continue
        if equivalent(q, q1) and is_universal(q2):
            continue
        if equivalent(q, q2) and is_universal(q1):
            continue
        out.add(v)
    return frozenset(out)

