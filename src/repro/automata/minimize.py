"""Minimization of top-down deterministic selecting tree automata
(Appendix A.2).

The paper reduces STA minimization to ordinary tree-automaton minimization
through the hat-encoding (Appendix A.1), then observes that the same
effect is obtained *directly* by running the standard partition-refinement
algorithm with an initial partition that additionally separates states by
their selecting behaviour.  This module implements the direct method for
the top-down case, the one the ``deterministic`` strategy runs:

- :func:`minimize_tdsta` -- completion, removal of unreachable states,
  refinement, merging;
- :func:`tdsta_equivalent` -- the decision procedure via minimization +
  canonical isomorphism (the reference Definition 3.1 is checked with);
- :func:`atoms` -- the label-atom decomposition that lets us treat the
  implicit infinite alphabet finitely (automata behave uniformly on all
  labels not mentioned in any transition or selecting configuration).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.automata.labelset import LabelSet
from repro.automata.sta import STA, State, Transition

SINK = "⊥sink"


def atoms(sta: STA) -> List[Tuple[str, LabelSet]]:
    """Label atoms of an STA: each mentioned name plus the co-finite rest.

    Returns ``(representative_label, atom_as_LabelSet)`` pairs.  Every
    transition label set is a union of atoms, so the automaton's behaviour
    on the representative determines its behaviour on the whole atom.
    """
    sample = sta.alphabet_sample()
    names, other = sample[:-1], sample[-1]
    out: List[Tuple[str, LabelSet]] = [(n, LabelSet.of(n)) for n in names]
    out.append((other, LabelSet.not_of(*names)))
    return out


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def complete_topdown(sta: STA) -> STA:
    """Add a sink so that δ(q, l) is non-empty everywhere."""
    reps = atoms(sta)
    new_transitions = list(sta.transitions)
    need_sink = False
    for q in sta.states:
        missing = [atom for rep, atom in reps if not sta.dest(q, rep)]
        for atom in missing:
            need_sink = True
            new_transitions.append(Transition(q, atom, SINK, SINK))
    if not need_sink:
        return sta
    new_transitions.append(Transition(SINK, LabelSet.not_of(), SINK, SINK))
    return STA(
        list(sta.states) + [SINK],
        sta.top,
        sta.bottom,
        dict(sta.selecting),
        new_transitions,
    )


# ---------------------------------------------------------------------------
# reachability trimming
# ---------------------------------------------------------------------------


def _topdown_reachable(sta: STA) -> set:
    reach = set(sta.top)
    frontier = list(sta.top)
    while frontier:
        q = frontier.pop()
        for t in sta.transitions:
            if t.q == q:
                for nxt in (t.q1, t.q2):
                    if nxt not in reach:
                        reach.add(nxt)
                        frontier.append(nxt)
    return reach


def _restrict_states(sta: STA, keep: set) -> STA:
    return STA(
        [q for q in sta.states if q in keep],
        [q for q in sta.top if q in keep],
        [q for q in sta.bottom if q in keep],
        {q: ls for q, ls in sta.selecting.items() if q in keep},
        [
            t
            for t in sta.transitions
            if t.q in keep and t.q1 in keep and t.q2 in keep
        ],
    )


# ---------------------------------------------------------------------------
# partition refinement
# ---------------------------------------------------------------------------


def _selection_signature(sta: STA, reps: Iterable[str]) -> Dict[State, Tuple[bool, ...]]:
    return {
        q: tuple(sta.selects(q, rep) for rep in reps) for q in sta.states
    }


def _refine(
    sta: STA,
    initial: Dict[State, int],
    successor_sig,
) -> Dict[State, int]:
    """Generic partition refinement; ``successor_sig(q, classes)`` must be
    equal for equivalent states."""
    classes = dict(initial)
    while True:
        sigs: Dict[State, tuple] = {
            q: (classes[q], successor_sig(q, classes)) for q in sta.states
        }
        renumber: Dict[tuple, int] = {}
        new_classes: Dict[State, int] = {}
        for q in sta.states:
            sig = sigs[q]
            if sig not in renumber:
                renumber[sig] = len(renumber)
            new_classes[q] = renumber[sig]
        if new_classes == classes:
            return classes
        classes = new_classes


def _merge_by_classes(sta: STA, classes: Dict[State, int]) -> STA:
    """Collapse each class to its first member (stable representative)."""
    rep_of_class: Dict[int, State] = {}
    mapping: Dict[State, State] = {}
    for q in sta.states:
        c = classes[q]
        if c not in rep_of_class:
            rep_of_class[c] = q
        mapping[q] = rep_of_class[c]
    merged = sta.rename(mapping)
    return _merge_transition_labels(merged)


def _merge_transition_labels(sta: STA) -> STA:
    """Union label sets of transitions sharing (q, q1, q2)."""
    grouped: Dict[Tuple[State, State, State], LabelSet] = {}
    order: List[Tuple[State, State, State]] = []
    for t in sta.transitions:
        key = (t.q, t.q1, t.q2)
        if key in grouped:
            grouped[key] = grouped[key].union(t.labels)
        else:
            grouped[key] = t.labels
            order.append(key)
    return STA(
        sta.states,
        sta.top,
        sta.bottom,
        dict(sta.selecting),
        [Transition(q, grouped[(q, q1, q2)], q1, q2) for q, q1, q2 in order],
    )


def minimize_tdsta(sta: STA) -> STA:
    """Unique minimal complete TDSTA equivalent to ``sta`` (Theorem A.1)."""
    if not sta.is_topdown_deterministic():
        raise ValueError("minimize_tdsta requires a top-down deterministic STA")
    work = complete_topdown(sta)
    work = _restrict_states(work, _topdown_reachable(work))
    reps = [rep for rep, _ in atoms(work)]
    sel_sig = _selection_signature(work, reps)
    initial_keys: Dict[tuple, int] = {}
    initial: Dict[State, int] = {}
    for q in work.states:
        key = (q in work.bottom, sel_sig[q])
        if key not in initial_keys:
            initial_keys[key] = len(initial_keys)
        initial[q] = initial_keys[key]

    dest_cache = {
        (q, rep): work.dest(q, rep)[0] for q in work.states for rep in reps
    }

    def successor_sig(q: State, classes: Dict[State, int]) -> tuple:
        out = []
        for rep in reps:
            q1, q2 = dest_cache[(q, rep)]
            out.append((classes[q1], classes[q2]))
        return tuple(out)

    classes = _refine(work, initial, successor_sig)
    return _merge_by_classes(work, classes)


# ---------------------------------------------------------------------------
# equivalence via canonical forms
# ---------------------------------------------------------------------------


def _canonical_tdsta(sta: STA) -> tuple:
    """Canonical description of a minimal complete TDSTA."""
    reps_atoms = atoms(sta)
    reps = [rep for rep, _ in reps_atoms]
    (q0,) = tuple(sta.top)
    order: Dict[State, int] = {q0: 0}
    queue = [q0]
    while queue:
        q = queue.pop(0)
        for rep in reps:
            for nxt in sta.dest(q, rep)[0]:
                if nxt not in order:
                    order[nxt] = len(order)
                    queue.append(nxt)
    desc = []
    for q in sorted(order, key=order.get):
        row = []
        for rep, atom in reps_atoms:
            q1, q2 = sta.dest(q, rep)[0]
            row.append((atom, order[q1], order[q2], sta.selects(q, rep)))
        desc.append((q in sta.bottom, tuple(row)))
    return tuple(desc)


def tdsta_equivalent(a: STA, b: STA) -> bool:
    """Decide A ≡ B for top-down deterministic STAs.

    Both automata are minimized and compared over the *joint* label atoms
    (a fresh unmentioned label of one may be mentioned by the other).
    """
    joint = _with_joint_atoms(a, b)
    a2, b2 = (minimize_tdsta(x) for x in joint)
    return _canonical_tdsta(a2) == _canonical_tdsta(b2)


def _with_joint_atoms(a: STA, b: STA) -> Tuple[STA, STA]:
    """Make both automata mention each other's labels (no-op transitions).

    Minimization canonicalizes over an automaton's own atom decomposition;
    giving both the same mentioned-name set aligns the decompositions.
    """
    names = sorted(
        set(a.alphabet_sample()[:-1]) | set(b.alphabet_sample()[:-1])
    )

    def pad(sta: STA) -> STA:
        mentioned = set(sta.alphabet_sample()[:-1])
        missing = [n for n in names if n not in mentioned]
        if not missing:
            return sta
        # Mention missing names by splitting one existing transition's
        # label set syntactically (semantics unchanged).
        ts = list(sta.transitions)
        extra = []
        for n in missing:
            split_done = False
            for i, t in enumerate(ts):
                if t.labels.contains(n) and not t.labels.is_finite():
                    ts[i] = Transition(
                        t.q, t.labels.difference(LabelSet.of(n)), t.q1, t.q2
                    )
                    extra.append(Transition(t.q, LabelSet.of(n), t.q1, t.q2))
                    split_done = True
                    break
                if t.labels.contains(n):
                    split_done = True  # already finite and mentions n
                    break
            if not split_done:
                # Name occurs in no transition: behaviour on it is "no
                # transition"; mention it via an empty-effect marker on the
                # selection side of an arbitrary state.
                pass
        return STA(sta.states, sta.top, sta.bottom, dict(sta.selecting), ts + extra)

    return pad(a), pad(b)
