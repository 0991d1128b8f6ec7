"""Top-down approximation of an ASTA (Definition 4.2) and jump analysis.

``tda(A)`` is the deterministic automaton over state *sets*
``S ⊆ Q`` with ``Si = {q | ∃q' ∈ S, ↓i q ∈ δ(q', σ)}``.  The exponential
blow-up is avoided by computing it on the fly: :class:`TDAAnalysis` builds
and caches, per reached state set ``S`` and label atom, the successor pair
``(S1, S2)`` plus everything the jumping evaluator needs:

- whether the atom is *essential* for ``S`` (a state change, a possible
  selection, or a spontaneously-true formula -- skipping such a node could
  lose answers or acceptance);
- the *skip class* of non-essential atoms, i.e. which Lemma 3.1-style loop
  the transitions realize:

  - ``both``  -- every enabled rule is ``q → ↓1 q ∨ ↓2 q`` (recursion into
    both children with identity propagation): regions of such labels can be
    replaced by their top-most essential descendants (dt/ft jumps);
  - ``left`` / ``right`` -- every enabled rule is ``q → ↓i q``: the region
    is a spine, reachable by lt/rt jumps;

  The identity-shape requirement is what makes combining the jumped-to
  results by plain union semantically exact (Figure 1's jump table is
  precisely this analysis run on A_//a//b[c]).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.asta.automaton import ASTA, ASTATransition
from repro.asta.formula import accepts_spontaneously, down, down_states, for_
from repro.automata.labelset import LabelSet

StateSet = FrozenSet[str]


@dataclass
class AtomInfo:
    """Behaviour of a state set on one label atom."""

    s1: StateSet
    s2: StateSet
    selecting: bool
    skip_class: str  # "ess" | "both" | "left" | "right"


@dataclass
class SetInfo:
    """Jump plan for one tda state set."""

    per_atom: Dict[str, AtomInfo]
    jump_shape: str  # "both" | "left" | "right" | "none"
    essential_ids: Optional[List[int]]  # label ids to jump to (None: no jump)
    essential_names: FrozenSet[str]
    fused: object = None
    """Lazily attached :class:`~repro.index.labels.FusedLabels` for
    ``essential_ids`` (the evaluator caches it here so dt/ft jumps are one
    bisect over the merged array)."""
    early_stop: bool = False
    """True when no state of the set is marking: once every state has been
    accepted by some jumped-to node, further targets cannot change the
    result (their ropes are all empty), so the dt/ft chain may stop --
    this is what makes predicate checks one-witness existential even for
    ↓1-side predicates (paper: "only one witness is checked by the
    automaton, the first one in pre-order")."""


class TDAAnalysis:
    """On-the-fly, cached computation of tda(A) and its jump plans."""

    def __init__(self, asta: ASTA, tree, interner=None) -> None:
        self.asta = asta
        self.tree = tree
        self._atoms = asta.atoms()
        self._other = self._atoms[-1][0]
        self._mentioned = frozenset(rep for rep, _ in self._atoms[:-1])
        # With an interner (any object exposing ``state_id``) the cache is
        # keyed by dense ints instead of hashing frozensets of state names;
        # :class:`repro.engine.intern.RunTables` passes its SidInterner
        # here so the tda cache shares the evaluator's sid space.
        self._interner = interner
        self._cache: Dict[object, SetInfo] = {}

    def atom_rep(self, label: str) -> str:
        return label if label in self._mentioned else self._other

    def info(self, states: StateSet) -> SetInfo:
        """The jump plan for ``S`` (computed once per distinct set)."""
        key = (
            self._interner.state_id(states)
            if self._interner is not None
            else states
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        per_atom: Dict[str, AtomInfo] = {}
        for rep, _atom in self._atoms:
            per_atom[rep] = self._atom_info(states, rep)
        shape, ids, names = self._jump_plan(states, per_atom)
        early_stop = not any(self.asta.is_marking(q) for q in states)
        info = SetInfo(per_atom, shape, ids, names, early_stop=early_stop)
        self._cache[key] = info
        return info

    def _atom_info(self, states: StateSet, rep: str) -> AtomInfo:
        active = self.asta.active(states, rep)
        s1: set = set()
        s2: set = set()
        selecting = False
        spontaneous = False
        identity_both = True
        identity_left = True
        identity_right = True
        for t in active:
            downs = down_states(t.formula)
            s1.update(q for i, q in downs if i == 1)
            s2.update(q for i, q in downs if i == 2)
            if t.selecting:
                selecting = True
            if accepts_spontaneously(t.formula):
                spontaneous = True
            both_form = for_(down(1, t.q), down(2, t.q))
            if t.formula != both_form or t.selecting:
                identity_both = False
            if t.formula != down(1, t.q) or t.selecting:
                identity_left = False
            if t.formula != down(2, t.q) or t.selecting:
                identity_right = False
        fs1, fs2 = frozenset(s1), frozenset(s2)
        if selecting or spontaneous:
            skip = "ess"
        elif active and identity_both and fs1 == states and fs2 == states:
            skip = "both"
        elif active and identity_left and fs1 == states and not fs2:
            skip = "left"
        elif active and identity_right and fs2 == states and not fs1:
            skip = "right"
        elif not active:
            # No rule enabled: the node accepts nothing; its subtrees are
            # unreachable.  Treat as essential so the evaluator visits it
            # and produces the empty result set there.
            skip = "ess"
        else:
            skip = "ess"  # state change: by definition essential
        return AtomInfo(fs1, fs2, selecting, skip)

    def _jump_plan(
        self, states: StateSet, per_atom: Dict[str, AtomInfo]
    ) -> Tuple[str, Optional[List[int]], FrozenSet[str]]:
        if not states:
            return "none", None, frozenset()
        classes = {info.skip_class for info in per_atom.values()}
        non_ess = classes - {"ess"}
        essential_names = frozenset(
            rep for rep, info in per_atom.items() if info.skip_class == "ess"
        )
        if len(non_ess) != 1:
            # Nothing skippable, or mixed loop shapes: no jump.
            return "none", None, essential_names
        (shape,) = non_ess
        # The jump targets are the essential atoms.  If the co-finite
        # "other" atom is essential the target set is co-finite: the index
        # cost model (O(|L|)) forbids jumping (paper: "no jump possible").
        if self._other in essential_names:
            return "none", None, essential_names
        ids: List[int] = []
        for name in essential_names:
            lab = self.tree.label_ids.get(name)
            if lab is not None:
                ids.append(lab)
        return shape, ids, essential_names

    def run_approximation(self, states: StateSet, label: str) -> Tuple[StateSet, StateSet]:
        """tda(A)'s transition: δa(S, σ) = (S1, S2)."""
        info = self.info(states).per_atom[self.atom_rep(label)]
        return info.s1, info.s2

    def cache_size(self) -> int:
        """Distinct tda states materialized so far."""
        return len(self._cache)
