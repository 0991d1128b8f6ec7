"""Interned evaluation tables: the engine's integer-keyed hot path.

The stack machine of :mod:`repro.engine.core` looks three things up per
visited node: the enabled transitions (Algorithm 4.1 line 3), the
information-propagation narrowing, and the formula-evaluation template.
Keying those memos by ``(frozenset[str], str, ...)`` tuples pays a
Python-level hashing constant at every single node visit.

:class:`RunTables` removes that constant: a per-plan interner maps each
distinct state set to a dense integer (a *sid*) and reuses the tree's
label interning (``tree.label_of[v]`` already is a small int), so every
memo becomes a flat dict keyed by a small int tuple:

- ``trans``:     ``(sid, lab) -> (active, r1_sid, r2_sid, leaf_template)``
- ``ip``:        ``(sid, lab, dom1_sid) -> narrowed r2 sid``
- ``templates``: ``(sid, lab, dom1_sid, dom2_sid) -> evaluation template``
- ``jump``:      ``(sid, lab) -> jump decision`` (resolved against the
  :class:`~repro.asta.tda.TDAAnalysis` jump plan and the fused label
  arrays of :meth:`repro.index.labels.LabelIndex.fused`)

The int tuples are additionally *packed* into single machine ints
(``key1 = sid << label_shift | lab``, with 16-bit fields for the domain
sids), so the per-visit cost of a memo probe is one int hash -- no tuple
allocation, no element-wise hashing.

A :class:`~repro.engine.plan.PreparedQuery` carries its ``RunTables`` in
``plan.artifacts`` (see :class:`repro.engine.registry.AstaStrategy`), so
Workspace-cached plans keep their warmed tables across ``execute()``
calls; the registry generation counter that invalidates plan caches
therefore also bounds the lifetime of these tables.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.asta.automaton import ASTA
from repro.asta.formula import (
    Formula,
    down_states,
    partial_eval,
    pending_down2,
)
from repro.asta.tda import TDAAnalysis
from repro.index.jumping import TreeIndex

StateSet = FrozenSet[str]

# Jump decision kinds (first element of a ``jump`` entry).
J_VISIT, J_BOTH, J_LEFT, J_RIGHT = 0, 1, 2, 3


class SidInterner:
    """Dense integer ids (*sids*) for state sets, plus their memoized
    pairwise unions.

    Its own small object so that both :class:`RunTables` and the
    :class:`~repro.asta.tda.TDAAnalysis` it owns can share one sid space
    without the analysis pointing back at the tables (that edge made
    every plan's tables -- and through them the index -- a reference
    cycle).
    """

    __slots__ = ("sets", "_sid_of", "_union")

    #: Bit width of the packed dom-sid fields; a plan never comes close
    #: to 2**16 distinct state sets (state_id guards the limit).
    SID_BITS = 16

    def __init__(self) -> None:
        self.sets: List[StateSet] = []
        self._sid_of: Dict[StateSet, int] = {}
        self._union: Dict[int, int] = {}

    def state_id(self, states: StateSet) -> int:
        """Dense integer id of a state set (allocated on first sight)."""
        sid = self._sid_of.get(states)
        if sid is None:
            sid = len(self.sets)
            if sid >= 1 << self.SID_BITS:
                raise RuntimeError(
                    "interner sid space exhausted (2**16 state sets)"
                )
            self._sid_of[states] = sid
            self.sets.append(states)
        return sid

    def union_sid(self, a: int, b: int) -> int:
        """sid of ``sets[a] | sets[b]`` (memoized pairwise).

        The evaluator threads each Γ's domain sid next to the dict, so
        merging two Γs updates the domain with one int-keyed look-up
        instead of re-hashing a frozenset union.
        """
        if a == b or b == 0:
            return a
        if a == 0:
            return b
        key = (a << self.SID_BITS) | b
        hit = self._union.get(key)
        if hit is None:
            hit = self._union[key] = self.state_id(self.sets[a] | self.sets[b])
        return hit


class RunTables:
    """Interned per-plan memo tables for the stack machine.

    Bound to one ``(asta, index)`` pair; safe to reuse across any number
    of executions because every entry is a pure function of the automaton
    and the (immutable) tree.  ``state_id`` / ``union_sid`` / ``sets``
    are those of the tables' :class:`SidInterner`.
    """

    __slots__ = (
        "asta",
        "index",
        "tda",
        "sets",
        "state_id",
        "union_sid",
        "empty_sid",
        "label_shift",
        "trans",
        "ip",
        "templates",
        "jump",
        "sweep",
        "top_sid",
    )

    SID_BITS = SidInterner.SID_BITS

    def __init__(self, asta: ASTA, index: TreeIndex, *, jumping: bool = True) -> None:
        self.asta = asta
        self.index = index
        interner = SidInterner()
        self.sets = interner.sets
        self.state_id = interner.state_id
        self.union_sid = interner.union_sid
        self.empty_sid = self.state_id(frozenset())  # always sid 0
        self.label_shift = max(len(index.tree.labels), 1).bit_length()
        self.trans: Dict[int, tuple] = {}
        self.ip: Dict[int, int] = {}
        self.templates: Dict[int, tuple] = {}
        self.jump: Dict[int, tuple] = {}
        # (key1 << 1 | ip) -> sweep spec (False, or (q, selects, r1_empty,
        # dom_sid)): whether nodes of this (state set, label) linearize
        # inside a fused-array sweep (see core._run_interned.sweep_try).
        self.sweep: Dict[int, object] = {}
        self.top_sid = self.state_id(frozenset(asta.top))
        self.tda: Optional[TDAAnalysis] = (
            TDAAnalysis(asta, index.tree, interner=interner) if jumping else None
        )

    def entries(self) -> int:
        """Total memo entries across the interned tables."""
        return len(self.trans) + len(self.ip) + len(self.templates)

    # -- table builders (called on cache miss only) -------------------------
    #
    # Each builder takes the packed key it must insert under plus the
    # unpacked fields it needs; the machine computes the keys inline.

    def trans_entry(self, key1: int, sid: int, lab: int) -> tuple:
        """Build + insert the transition entry for ``(sid, lab)``.

        The entry bundles the enabled transitions, the interned synthetic
        ↓1/↓2 state sets, the *leaf template* -- the ``(q, selecting)``
        rows that survive evaluation against empty child domains, letting
        the machine finish leaves without frames or further look-ups --
        and the ip-narrowed ↓2 sid for an empty left domain (the dominant
        case: every childless-to-the-left node), saving the separate ip
        probe there.
        """
        states = self.sets[sid]
        label = self.index.tree.labels[lab]
        active = self.asta.active(states, label)
        r1 = frozenset(
            q for t in active for i, q in down_states(t.formula) if i == 1
        )
        r2 = frozenset(
            q for t in active for i, q in down_states(t.formula) if i == 2
        )
        empty: StateSet = frozenset()
        leaf_tpl = tuple(
            (q, selecting)
            for q, selecting, _src in _make_template(active, empty, empty)
        )
        r2n0 = self.narrow(key1 << self.SID_BITS, active, 0)
        leaf_out = self.state_id(frozenset(q for q, _sel in leaf_tpl))
        entry = (
            active,
            self.state_id(r1),
            self.state_id(r2),
            leaf_tpl,
            r2n0,
            leaf_out,
        )
        self.trans[key1] = entry
        return entry

    def narrow(self, ikey: int, active, dom1_sid: int) -> int:
        """Information propagation: the narrowed ↓2 state set (as a sid)."""
        dom1 = self.sets[dom1_sid]
        marking = self.asta.is_marking
        decided = {t.q for t in active if partial_eval(t.formula, dom1) == 1}
        r2: set = set()
        for t in active:
            pe = partial_eval(t.formula, dom1)
            if pe == 0:
                continue
            if marking(t.q):
                r2 |= _marks_down2(t.formula, dom1, marking)
                if pe == -1:
                    r2 |= pending_down2(t.formula, dom1)
                continue
            if pe == 1:
                continue
            if t.q in decided:
                continue  # truth settled elsewhere, no marks at stake
            r2 |= pending_down2(t.formula, dom1)
        out = self.state_id(frozenset(r2))
        self.ip[ikey] = out
        return out

    def template(
        self, ekey: int, active, dom1_sid: int, dom2_sid: int
    ) -> tuple:
        """Build + insert the evaluation template for the domain pair.

        Returns ``(rows, out_sid)``: the contribution rows plus the
        interned domain of the Γ they produce (every row asserts its
        state, so the output domain is static) -- nested-run folds chain
        ``out_sid`` into the next template key without re-hashing any
        state set.
        """
        rows = _make_template(
            active, self.sets[dom1_sid], self.sets[dom2_sid]
        )
        out_sid = self.state_id(frozenset(q for q, _s, _c in rows))
        # Diagonal: every row sources at most its own ↓2 input, so states
        # never mix and runs of identical steps compose per-state:
        # out[q] = (own selections over the run) + (in[q] if carried).
        # The spec rows are (q, selects?, carries ↓2 forward?); rope
        # order inside a Γ is irrelevant (flatten sorts), so composing
        # selections as one chain is exact.  Lets the evaluator collapse
        # steady-state ``//label`` sweeps into plain rope chains.
        diag_spec = None
        if all(src in ((), ((2, q),)) for q, _s, src in rows):
            by_q: Dict[str, List[bool]] = {}
            for q, selecting, src in rows:
                flags = by_q.setdefault(q, [False, False])
                flags[0] = flags[0] or selecting
                flags[1] = flags[1] or bool(src)
            diag_spec = tuple((q, a, b) for q, (a, b) in by_q.items())
        rec = (rows, out_sid, diag_spec)
        self.templates[ekey] = rec
        return rec

    def jump_decision(self, key1: int, sid: int, lab: int) -> tuple:
        """Resolve + insert the jump decision for a (state set, label).

        Decisions are one of::

            (J_VISIT,)                                    evaluate in place
            (J_BOTH, fused_list, size, early_stop, |S|)   dt/ft chain
            (J_LEFT, label_id_set) / (J_RIGHT, ...)       spine walk

        ``fused_list`` is the plain-list mirror of the merged label array
        (one bisect per dt/ft instead of a per-label search loop).
        """
        states = self.sets[sid]
        tda = self.tda
        info = tda.info(states)
        shape = info.jump_shape
        if (
            shape == "none"
            or info.per_atom[
                tda.atom_rep(self.index.tree.labels[lab])
            ].skip_class
            == "ess"
        ):
            dec: tuple = (J_VISIT,)
        elif shape == "both":
            fused = self.index.fused(info.essential_ids)
            dec = (J_BOTH, fused.lst, fused.size, info.early_stop, len(states))
        elif shape == "left":
            dec = (J_LEFT, frozenset(info.essential_ids))
        else:
            dec = (J_RIGHT, frozenset(info.essential_ids))
        self.jump[key1] = dec
        return dec


# ---------------------------------------------------------------------------
# Formula templates (shared by the interned and plain machines)
# ---------------------------------------------------------------------------


def _make_template(active, dom1: StateSet, dom2: StateSet) -> tuple:
    """Evaluate formulas once against the domains, record contributions."""
    rows = []
    for t in active:
        ok, sources = _formula_template(t.formula, dom1, dom2)
        if ok:
            rows.append((t.q, t.selecting, tuple(sources)))
    return tuple(rows)


def _formula_template(
    f: Formula, dom1: StateSet, dom2: StateSet
) -> Tuple[bool, list]:
    """Figure 7's judgement with domains: (truth, contributing (side, q))."""
    tag = f[0]
    if tag == "T":
        return True, []
    if tag == "F":
        return False, []
    if tag == "d":
        side, q = f[1], f[2]
        if q in (dom1 if side == 1 else dom2):
            return True, [(side, q)]
        return False, []
    if tag == "!":
        b, _ = _formula_template(f[1], dom1, dom2)
        return (not b), []
    b1, s1 = _formula_template(f[1], dom1, dom2)
    if tag == "&":
        if not b1:
            return False, []
        b2, s2 = _formula_template(f[2], dom1, dom2)
        if not b2:
            return False, []
        return True, s1 + s2
    b2, s2 = _formula_template(f[2], dom1, dom2)
    if b1 and b2:
        return True, s1 + s2
    if b1:
        return True, s1
    if b2:
        return True, s2
    return False, []


def _marks_down2(f: Formula, dom1: StateSet, marking) -> set:
    """↓2 states that may carry marks through non-false, non-negated branches."""
    out: set = set()
    _marks_walk(f, dom1, marking, out)
    return out


def _marks_walk(f: Formula, dom1, marking, out: set) -> None:
    if partial_eval(f, dom1) == 0:
        return
    tag = f[0]
    if tag == "d":
        if f[1] == 2 and marking(f[2]):
            out.add(f[2])
    elif tag in ("&", "|"):
        _marks_walk(f[1], dom1, marking, out)
        _marks_walk(f[2], dom1, marking, out)
    # negation: marks never cross ¬ (Figure 7's "not" rule drops them)
