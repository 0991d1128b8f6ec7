"""The shared ASTA evaluation stack machine (Algorithm 4.1 + techniques).

One iterative bottom-up-with-top-down-preprocessing evaluator, with the
paper's three implementation techniques as independent switches:

- ``jumping``: restrict the traversal to the on-the-fly top-down
  approximation of relevant nodes (Definition 4.2 /
  :class:`~repro.asta.tda.TDAAnalysis`), replacing recursion into a child
  by recursion into the jumped-to nodes of its binary subtree;
- ``memo``: memoize the transition look-up (line 3 of Algorithm 4.1) and
  the formula evaluation (``eval_trans``) as templates keyed by
  ``(state set, label, Dom Γ1, Dom Γ2)``;
- ``ip`` (information propagation): after the first child returns,
  re-evaluate the pending formulas to narrow the state set sent into the
  second child -- this is what gives predicates their one-witness
  existential behaviour and re-enables jumping on the remaining siblings.

:data:`SERIES` names the paper's four settings of the switches (the
Figure 4 series); the registry runs each row as a strategy of that name.

The machine is fully iterative (explicit work/value stacks): sibling
chains are right spines of the binary tree and would overflow Python's
recursion limit on any realistic document.

Two machines share the semantics:

- :func:`_run_interned` (``memo=True``) runs over the integer-keyed
  tables of :class:`~repro.engine.intern.RunTables`: state sets travel as
  dense sids, every memo is a flat int-tuple-keyed dict, leaves finish
  through a precomputed template without frames, and dt/ft chains walk
  the fused label array with one bisect per jump.  Pass ``tables=`` to
  reuse warmed tables across runs (prepared queries do this).
- :func:`_run_plain` (``memo=False``) pays the full per-node transition
  scan by design -- it is the "Naive"/"Jumping" series of Figure 4, and
  the oracle the interned machine is tested against.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.asta.automaton import ASTA
from repro.asta.formula import down_states, partial_eval, pending_down2
from repro.asta.semantics import (
    EMPTY_ROPE,
    ResultSet,
    concat,
    eval_transitions,
    root_answer,
)
from repro.asta.tda import TDAAnalysis
from repro.counters import EvalStats
from repro.engine.intern import (
    J_BOTH,
    J_LEFT,
    J_VISIT,
    RunTables,
    _formula_template,
    _make_template,
    _marks_down2,
    _marks_walk,
)
from repro.index.jumping import OMEGA, TreeIndex
from repro.tree.binary import NIL

StateSet = FrozenSet[str]

# Work-stack frame tags.
_EVAL, _MID, _FINISH, _LIT, _CHAIN, _FOLD = 0, 1, 2, 3, 4, 5

_EMPTY_SET: FrozenSet[str] = frozenset()

__all__ = [
    "SERIES",
    "run_asta",
    "_formula_template",
    "_make_template",
    "_marks_down2",
    "_marks_walk",
]

# The Figure 4 series: one row of :func:`run_asta` switches per engine.
# ``jumping`` keeps information propagation on: it is what keeps
# predicate checks existential and jumps alive past satisfied
# predicates.  ``optimized`` is the defaults.
SERIES: Dict[str, Dict[str, bool]] = {
    "naive": dict(jumping=False, memo=False, ip=False),
    "jumping": dict(jumping=True, memo=False, ip=True),
    "memo": dict(jumping=False, memo=True, ip=False),
    "optimized": dict(jumping=True, memo=True, ip=True),
}


def run_asta(
    asta: ASTA,
    index: TreeIndex,
    *,
    stats: EvalStats,
    jumping: bool = True,
    memo: bool = True,
    ip: bool = True,
    tables: Optional[RunTables] = None,
) -> Tuple[bool, List[int]]:
    """Evaluate ``asta`` over ``index.tree``, booking the run in ``stats``.

    Returns ``(accepted, selected node ids in document order)``.  With
    ``memo=True`` an optional ``tables`` (a warmed
    :class:`~repro.engine.intern.RunTables` for the same automaton and
    index) carries memo entries across calls.
    """
    if memo:
        if (
            tables is None
            or tables.asta is not asta
            or tables.index is not index
            or (jumping and tables.tda is None)
        ):
            tables = RunTables(asta, index, jumping=jumping)
        return _run_interned(
            asta, index, tables, jumping=jumping, ip=ip, stats=stats
        )
    tda: Optional[TDAAnalysis] = None
    if jumping:
        if (
            tables is not None
            and tables.tda is not None
            and tables.asta is asta
            and tables.index is index
        ):
            tda = tables.tda
        else:
            tda = TDAAnalysis(asta, index.tree)
    return _run_plain(asta, index, tda=tda, ip=ip, stats=stats)


# ---------------------------------------------------------------------------
# The interned machine (memo=True)
# ---------------------------------------------------------------------------


def _run_interned(
    asta: ASTA,
    index: TreeIndex,
    tables: RunTables,
    *,
    jumping: bool,
    ip: bool,
    stats: EvalStats,
) -> Tuple[bool, List[int]]:
    """The integer-keyed machine.

    Every Γ travels as a ``(dict, dom_sid)`` pair: the interned id of its
    domain rides along, so memo keys are assembled from ints that are
    already in hand -- the machine never hashes a state set in steady
    state (template records carry their output domain, chain merges go
    through the memoized pairwise union).
    """
    tree = index.tree
    label_of = tree.label_of
    left_arr = tree.left
    right_arr = tree.right
    parent_arr = tree.parent
    xml_end = tree.xml_end
    n = tree.n

    trans_entry = tables.trans_entry
    narrow = tables.narrow
    template = tables.template
    jump_decision = tables.jump_decision
    union_sid = tables.union_sid
    trans_d = tables.trans
    ip_d = tables.ip
    tpl_d = tables.templates
    jump_d = tables.jump
    sweep_d = tables.sweep
    ip_bit = 1 if ip else 0
    LS = tables.label_shift
    SB = tables.SID_BITS

    entries_before = tables.entries()
    visited = 0
    jumps = 0
    memo_hits = 0

    work: list = []
    values: list = []
    work_append = work.append
    work_pop = work.pop
    values_append = values.append
    values_pop = values.pop

    # The helpers below either compute a Γ pair without any frames
    # (returning it) or push the frames that will eventually produce it
    # on the value stack (returning None).  Callers push their own
    # continuation frame *before* calling and pop it back off when the
    # child resolved immediately -- the helpers push nothing in that
    # case, so the continuation is still on top.

    def leaf_gamma(v: int, sid: int):
        """Γ of a binary leaf: the leaf template applied to ``v``."""
        nonlocal visited, memo_hits
        visited += 1
        lab = label_of[v]
        key1 = (sid << LS) | lab
        try:
            entry = trans_d[key1]
            memo_hits += 1
        except KeyError:
            entry = trans_entry(key1, sid, lab)
        g: ResultSet = {}
        for q, selecting in entry[3]:
            g[q] = ("v", v) if selecting else EMPTY_ROPE
        return (g, entry[5])

    def unwind(fold, gamma: ResultSet, dom_sid: int):
        """Apply the collected fold steps innermost-out: each step's Γ is
        its memoized template applied to its (already resolved) left Γ
        and the inner Γ.

        Runs of identical *diagonal* steps (no left domain, same state
        set and label, domain-preserving, every state feeding only
        itself) collapse into per-state rope chains -- the steady state
        of a ``//label`` sweep costs two tuple allocations per node
        instead of a Γ dict.
        """
        nonlocal memo_hits
        idx = len(fold) - 1
        while idx >= 0:
            v, key1, d1, g1d = fold[idx]
            ekey = (key1 << 32) | (d1 << SB) | dom_sid
            try:
                rows, out_sid, diag = tpl_d[ekey]
                memo_hits += 1
            except KeyError:
                rows, out_sid, diag = template(
                    ekey, trans_d[key1][0], d1, dom_sid
                )
            if diag is not None and d1 == 0 and out_sid == dom_sid:
                start = idx
                while (
                    start > 0
                    and fold[start - 1][1] == key1
                    and fold[start - 1][2] == 0
                ):
                    start -= 1
                if start < idx:
                    out: ResultSet = {}
                    for q, selects, carries in diag:
                        if carries:
                            rope = gamma[q]
                            if selects:
                                j = idx
                                while j >= start:
                                    vv = fold[j][0]
                                    rope = (
                                        ("+", ("v", vv), rope)
                                        if rope
                                        else ("v", vv)
                                    )
                                    j -= 1
                        else:
                            # Nothing carried: only the outermost (last
                            # applied) step's own contribution survives.
                            rope = (
                                ("v", fold[start][0])
                                if selects
                                else EMPTY_ROPE
                            )
                        out[q] = rope
                    gamma = out
                    memo_hits += idx - start  # the collapsed look-ups
                    idx = start - 1
                    continue
            out = {}
            for q, selecting, sources in rows:
                rope = ("v", v) if selecting else EMPTY_ROPE
                for side, q2 in sources:
                    r = g1d[q2] if side == 1 else gamma[q2]
                    if r:
                        rope = ("+", rope, r) if rope else r
                prev = out.get(q)
                if prev is None:
                    out[q] = rope
                elif rope:
                    out[q] = ("+", prev, rope) if prev else rope
            gamma = out
            dom_sid = out_sid
            idx -= 1
        return (gamma, dom_sid)

    def pure_resolve(child: int, csid: int):
        """Γ pair of a child context *without touching the work stack*:
        trivially-empty children, binary leaves, and sweepable chains
        resolve; anything that would need frames returns None (the
        caller falls back, nothing has been pushed or mutated)."""
        nonlocal visited, jumps, memo_hits
        if child < 0 or csid == 0:
            return ({}, 0)
        if jumping:
            clab = label_of[child]
            key1 = (csid << LS) | clab
            try:
                dec = jump_d[key1]
            except KeyError:
                dec = jump_decision(key1, csid, clab)
            kind = dec[0]
            if kind != J_VISIT:
                if kind == J_BOTH:
                    lst, size = dec[1], dec[2]
                    p = parent_arr[child]
                    hi = n if p < 0 else xml_end[p]
                    i = bisect_left(lst, child + 1)
                    if i == size or lst[i] >= hi:
                        jumps += 1
                        return ({}, 0)
                    res = sweep_try(i, hi, csid, lst, size)
                    if res is None:
                        # Abandoned: the generic fallback re-resolves (and
                        # re-counts) this jump, so do not count it here.
                        return None
                    flags, rope, D, count = res
                    visited += count
                    jumps += count + 1
                    memo_hits += count
                    return (
                        {q: (rope if a else EMPTY_ROPE) for q, a in flags},
                        D,
                    )
                labset = dec[1]
                step = left_arr if kind == J_LEFT else right_arr
                cur = step[child]
                while cur >= 0:
                    if label_of[cur] in labset:
                        child = cur
                        break
                    cur = step[cur]
                else:
                    jumps += 1
                    return ({}, 0)
                jumps += 1
        if left_arr[child] < 0 and right_arr[child] < 0:
            return leaf_gamma(child, csid)
        return None

    def fold_run(t: int, sid: int):
        """Evaluate internal node ``t`` as an iterative right fold.

        The dominant traversal shape under jumping is a right spine:
        each node's left child resolves without frames (NIL, empty down
        states, or a sweepable chain) and its right context resolves to
        at most one jump target, whose Γ feeds straight into the node's
        template.  This loop collects those steps -- each carrying its
        resolved left Γ -- without any frames, then :func:`unwind`
        applies the templates backwards.  The first step that needs the
        general machine suspends: the collected prefix waits behind a
        _FOLD frame and the rest evaluates normally.
        """
        nonlocal visited, jumps, memo_hits
        fold: list = []
        while True:
            lab = label_of[t]
            key1 = (sid << LS) | lab
            try:
                entry = trans_d[key1]
                memo_hits += 1
            except KeyError:
                entry = trans_entry(key1, sid, lab)
            lc = left_arr[t]
            if lc >= 0 and entry[1] != 0:
                g1p = pure_resolve(lc, entry[1])
                if g1p is None:
                    # The left child needs frames: generic evaluation.
                    if fold:
                        work_append((_FOLD, fold))
                    work_append((_EVAL, t, sid))
                    return None
                g1d, d1 = g1p
            else:
                g1d, d1 = None, 0
            visited += 1
            rc = right_arr[t]
            if d1:
                if ip:
                    ikey = (key1 << SB) | d1
                    try:
                        r2n = ip_d[ikey]
                        memo_hits += 1
                    except KeyError:
                        r2n = narrow(ikey, entry[0], d1)
                else:
                    r2n = entry[2]
            else:
                r2n = entry[4] if ip else entry[2]
            if rc >= 0 and r2n != 0:
                if jumping:
                    clab = label_of[rc]
                    dkey = (r2n << LS) | clab
                    try:
                        dec = jump_d[dkey]
                    except KeyError:
                        dec = jump_decision(dkey, r2n, clab)
                    kind = dec[0]
                    if kind == J_VISIT:
                        fold.append((t, key1, d1, g1d))
                        t, sid = rc, r2n
                        continue
                    if kind == J_BOTH:
                        jumps += 1
                        lst, size = dec[1], dec[2]
                        p = parent_arr[rc]
                        hi = n if p < 0 else xml_end[p]
                        i = bisect_left(lst, rc + 1)
                        if i < size and lst[i] < hi:
                            res = sweep_try(i, hi, r2n, lst, size)
                            if res is not None:
                                # The whole right context linearized:
                                # unwind the fold over the swept Γ.
                                flags2, rope2, D2, count = res
                                visited += count
                                jumps += count
                                memo_hits += count
                                g2 = {
                                    q2: (rope2 if a2 else EMPTY_ROPE)
                                    for q2, a2 in flags2
                                }
                                fold.append((t, key1, d1, g1d))
                                return unwind(fold, g2, D2)
                            t2 = lst[i]
                            # The advance past t2 is static: single target?
                            jumps += 1
                            p2 = parent_arr[t2]
                            lo = n if p2 < 0 else xml_end[p2]
                            ni = i + 1
                            if ni < size:
                                if lst[ni] < lo:
                                    ni = bisect_left(lst, lo, ni + 1)
                                if ni < size and lst[ni] >= hi:
                                    ni = size
                            if ni < size:
                                # Multi-target chain: needs merge frames.
                                fold.append((t, key1, d1, g1d))
                                work_append((_FOLD, fold))
                                work_append(
                                    (_CHAIN, hi, r2n, ni, dec, None, 0)
                                )
                                work_append((_EVAL, t2, r2n))
                                return None
                            fold.append((t, key1, d1, g1d))
                            t, sid = t2, r2n
                            continue
                    else:  # spine jump
                        jumps += 1
                        labset = dec[1]
                        step = left_arr if kind == J_LEFT else right_arr
                        cur = step[rc]
                        while cur >= 0:
                            if label_of[cur] in labset:
                                break
                            cur = step[cur]
                        if cur >= 0:
                            fold.append((t, key1, d1, g1d))
                            t, sid = cur, r2n
                            continue
                else:
                    fold.append((t, key1, d1, g1d))
                    t, sid = rc, r2n
                    continue
            # Terminal step: the right context contributes nothing.
            if d1 == 0:
                gamma: ResultSet = {}
                for q, selecting in entry[3]:
                    gamma[q] = ("v", t) if selecting else EMPTY_ROPE
                dsid = entry[5]
            else:
                ekey = (key1 << 32) | (d1 << SB)
                try:
                    rows, dsid, _diag = tpl_d[ekey]
                    memo_hits += 1
                except KeyError:
                    rows, dsid, _diag = template(ekey, entry[0], d1, 0)
                gamma = {}
                for q, selecting, sources in rows:
                    rope = ("v", t) if selecting else EMPTY_ROPE
                    for _side, q2 in sources:
                        r = g1d[q2]
                        if r:
                            rope = ("+", rope, r) if rope else r
                    prev = gamma.get(q)
                    if prev is None:
                        gamma[q] = rope
                    elif rope:
                        gamma[q] = ("+", prev, rope) if prev else rope
            return unwind(fold, gamma, dsid) if fold else (gamma, dsid)

    def build_sweep(skey: int, csid: int, lab: int):
        """Decide (once per state set, label, and ip flag) whether nodes
        of this kind linearize inside a sweep.

        The chain's state set may *decay once*: a node's narrowed right
        context either re-enters the same set (fixpoint) or a second set
        that is itself a fixpoint -- the one-witness narrowing of
        Q12-style predicate queries.  Requirements, per level: the left
        context contributes nothing (``r1 = ∅``) or re-enters that
        level's set, and all templates (child domains ∅ or the level's
        output domain) are *transparent* -- every source its own
        ↓1/↓2 input, domain preserved, consistent select flags; states
        only present in the first level must not select (the walk cannot
        tell levels apart).  Then a node's Γ is exactly 'own selection +
        everything below and to the right', so the whole region is the
        union of selections over the walked nodes.
        """
        try:
            entry = trans_d[skey]
        except KeyError:
            entry = trans_entry(skey, csid, lab)
        spec: object = False
        D1 = entry[5]
        r1_1 = entry[1]
        csid2 = entry[4] if ip else entry[2]

        def transparent(skey_t, active_t, D_t, dom1, dom2):
            """Per-state select flags when no template row mixes states
            (each state sources only its own inputs), else None."""
            ekey = (skey_t << 32) | (dom1 << SB) | dom2
            try:
                rec = tpl_d[ekey]
            except KeyError:
                rec = template(ekey, active_t, dom1, dom2)
            rows, out_sid, _diag = rec
            if out_sid != D_t:
                return None
            flags: dict = {}
            for q, selecting, sources in rows:
                flags[q] = flags.get(q, False) or selecting
                for _side, q2 in sources:
                    if q2 != q:
                        return None
            return tuple(sorted(flags.items()))

        while D1 != 0:  # single-pass block (break = not sweepable)
            if csid2 == csid:
                entry2, skey2, D2, r1_2 = entry, skey, D1, r1_1
            else:
                skey2 = (csid2 << LS) | lab
                try:
                    entry2 = trans_d[skey2]
                except KeyError:
                    entry2 = trans_entry(skey2, csid2, lab)
                D2 = entry2[5]
                r1_2 = entry2[1]
                r2n2 = entry2[4] if ip else entry2[2]
                if r2n2 != csid2 or D2 == 0:
                    break  # second level is not a fixpoint
            skip1, skip2 = r1_1 == 0, r1_2 == 0
            if skip1 != skip2:
                break
            if not skip1 and (r1_1 not in (csid, csid2) or r1_2 != csid2):
                break
            shapes2 = [
                transparent(skey2, entry2[0], D2, d1, d2)
                for d1 in (0, D2)
                for d2 in (0, D2)
            ]
            if shapes2[0] is None or any(s != shapes2[0] for s in shapes2):
                break
            flags2 = dict(shapes2[0])
            if csid2 == csid:
                flags1 = flags2
            else:
                dom1s = (0, D1) if r1_1 == csid else (0, D2)
                shapes1 = [
                    transparent(skey, entry[0], D1, d1, d2)
                    for d1 in dom1s
                    for d2 in (0, D2)
                ]
                if shapes1[0] is None or any(s != shapes1[0] for s in shapes1):
                    break
                flags1 = dict(shapes1[0])
                if (
                    any(q not in flags1 for q in flags2)
                    or any(
                        flags1[q] != flags2[q]
                        for q in flags1
                        if q in flags2
                    )
                    or any(flags1[q] for q in flags1 if q not in flags2)
                ):
                    break
            spec = (
                tuple(sorted(flags1.items())),
                any(flags1.values()),
                skip1,
                D1,
                csid2,
            )
            break
        sweep_d[(skey << 1) | ip_bit] = spec
        return spec

    def sweep_try(i: int, hi: int, csid: int, lst, size: int):
        """Walk the fused array linearly over a sweepable range.

        Returns ``(flags, rope, dom_sid, count)`` when every entry in
        ``[i, first >= hi)`` passes the per-node checks -- the chain's Γ
        is then the union of the swept selections, regardless of how the
        per-level dt/ft chains nest (transparent templates compose
        per-state, and rope order is irrelevant).  Returns None on the
        first non-conforming node; nothing has been mutated, so the
        caller falls back to the generic chain.
        """
        shift = csid << LS
        k = i
        w = lst[k]
        rope = EMPTY_ROPE
        count = 0
        flags = None
        D = -1
        csid2 = csid
        shift2 = shift
        while True:
            skey = shift | label_of[w]
            try:
                spec = sweep_d[(skey << 1) | ip_bit]
            except KeyError:
                spec = build_sweep(skey, csid, label_of[w])
            if not spec:
                return None
            if flags is None:
                flags, _a, _r1z, D, csid2 = spec
                shift2 = csid2 << LS
            elif spec[0] != flags or spec[3] != D or spec[4] != csid2:
                return None
            skip_to = w + 1
            lc = left_arr[w]
            if lc >= 0:
                if spec[2]:
                    # r1 = ∅: the left subtree is never evaluated, so its
                    # fused entries are not part of the run -- skip them.
                    skip_to = xml_end[w]
                else:
                    # The same (or decayed) set descends: nested entries
                    # are walked; the left label must stay inside the
                    # fused region under both levels.
                    clab = label_of[lc]
                    lkey = shift | clab
                    try:
                        dec1 = jump_d[lkey]
                    except KeyError:
                        dec1 = jump_decision(lkey, csid, clab)
                    if csid2 != csid:
                        lkey2 = shift2 | clab
                        try:
                            dec1b = jump_d[lkey2]
                        except KeyError:
                            dec1b = jump_decision(lkey2, csid2, clab)
                    else:
                        dec1b = dec1
                    k1 = dec1[0]
                    if k1 != dec1b[0]:
                        return None
                    if k1 == J_BOTH:
                        if dec1[1] is not lst or dec1b[1] is not lst:
                            return None
                    elif k1 == J_VISIT:
                        if k + 1 >= size or lst[k + 1] != lc:
                            return None
                    else:
                        return None
            rc = right_arr[w]
            if rc >= 0:
                # Both levels send the right context through csid2.
                clab = label_of[rc]
                rkey = shift2 | clab
                try:
                    dec2 = jump_d[rkey]
                except KeyError:
                    dec2 = jump_decision(rkey, csid2, clab)
                k2 = dec2[0]
                if k2 == J_BOTH:
                    if dec2[1] is not lst:
                        return None
                elif k2 == J_VISIT:
                    # rc itself is the continuation: the walk covers it
                    # only if it appears in the fused array (it is w's
                    # subtree end, so it follows any nested entries).
                    if k + 1 >= size or lst[k + 1] != rc:
                        j = bisect_left(lst, rc, k + 1)
                        if j == size or lst[j] != rc:
                            return None
                else:
                    return None
            if spec[1]:
                rope = ("+", rope, ("v", w)) if rope else ("v", w)
            count += 1
            k += 1
            if k == size:
                break
            w = lst[k]
            if w < skip_to:
                k = bisect_left(lst, skip_to, k + 1)
                if k == size:
                    break
                w = lst[k]
            if w >= hi:
                break
        return (flags, rope, D, count)

    def chain_run(merged: ResultSet, msid: int, i: int, hi: int, csid: int, dec):
        """Evaluate the dt/ft chain from fused index ``i``; leaf targets
        and foldable internal targets merge in place, anything else
        suspends into frames.

        A chain whose whole range is sweepable short-circuits through
        :func:`sweep_try` -- one linear walk of the fused array.

        The advance from a target is static (``bend`` does not depend on
        the target's evaluation), so it is computed up front; consecutive
        targets are usually adjacent in the fused array, so the advance
        first tries index ``i + 1`` and only bisects the remaining suffix
        when the next entry is still inside the current target's subtree.
        """
        nonlocal visited, jumps, memo_hits
        lst, size, early_stop, nstates = dec[1], dec[2], dec[3], dec[4]
        res = sweep_try(i, hi, csid, lst, size)
        if res is not None:
            flags, rope, D, count = res
            visited += count
            jumps += count
            memo_hits += count
            for q, a in flags:
                r = rope if a else EMPTY_ROPE
                prev = merged.get(q)
                if prev is None:
                    merged[q] = r
                elif r:
                    merged[q] = ("+", prev, r) if prev else r
            return (merged, union_sid(msid, D))
        target = lst[i]
        while True:
            # Advance first: where does the chain go after this target?
            jumps += 1
            p = parent_arr[target]
            lo = n if p < 0 else xml_end[p]
            ni = i + 1
            if ni < size:
                if lst[ni] < lo:
                    ni = bisect_left(lst, lo, ni + 1)
                if ni < size and lst[ni] >= hi:
                    ni = size
            if left_arr[target] < 0 and right_arr[target] < 0:
                visited += 1
                lab = label_of[target]
                key1 = (csid << LS) | lab
                try:
                    entry = trans_d[key1]
                    memo_hits += 1
                except KeyError:
                    entry = trans_entry(key1, csid, lab)
                for q, selecting in entry[3]:
                    rope = ("v", target) if selecting else EMPTY_ROPE
                    prev = merged.get(q)
                    if prev is None:
                        merged[q] = rope
                    elif rope:
                        merged[q] = ("+", prev, rope) if prev else rope
                msid = union_sid(msid, entry[5])
            else:
                if ni == size and not merged:
                    # Last target of a chain that merged nothing yet: its
                    # Γ is the chain's Γ, no merge frame needed.
                    return fold_run(target, csid)
                work_append((_CHAIN, hi, csid, ni, dec, merged, msid))
                g = fold_run(target, csid)
                if g is None:
                    return None
                work_pop()  # the _CHAIN just pushed; the fold pushed nothing
                gd, gsid = g
                if merged:
                    for q, rope in gd.items():
                        prev = merged.get(q)
                        if prev is None:
                            merged[q] = rope
                        elif rope:
                            merged[q] = ("+", prev, rope) if prev else rope
                    msid = union_sid(msid, gsid)
                else:
                    merged = gd
                    msid = gsid
            if ni == size:
                return (merged, msid)
            if early_stop and len(merged) == nstates:
                # Every state already accepted and none is marking: later
                # targets cannot change the result (one-witness
                # existential semantics).
                return (merged, msid)
            i = ni
            target = lst[i]

    def resolve_child(child: int, csid: int):
        """Γ pair of a child context, or None after pushing its frames."""
        nonlocal jumps
        if child < 0 or csid == 0:
            return ({}, 0)
        if jumping:
            clab = label_of[child]
            key1 = (csid << LS) | clab
            try:
                dec = jump_d[key1]
            except KeyError:
                dec = jump_decision(key1, csid, clab)
            kind = dec[0]
            if kind != J_VISIT:
                if kind == J_BOTH:
                    jumps += 1
                    lst, size = dec[1], dec[2]
                    p = parent_arr[child]
                    hi = n if p < 0 else xml_end[p]
                    i = bisect_left(lst, child + 1)
                    if i == size or lst[i] >= hi:
                        return ({}, 0)
                    return chain_run({}, 0, i, hi, csid, dec)
                jumps += 1
                labset = dec[1]
                step = left_arr if kind == J_LEFT else right_arr
                cur = step[child]
                while cur >= 0:
                    if label_of[cur] in labset:
                        child = cur
                        break
                    cur = step[cur]
                else:
                    return ({}, 0)
        if left_arr[child] < 0 and right_arr[child] < 0:
            return leaf_gamma(child, csid)
        return fold_run(child, csid)

    work_append((_EVAL, tree.root(), tables.top_sid))
    # The per-node pipeline (left child -> ip narrowing -> right child ->
    # template finish) is deliberately unrolled into the _EVAL/_MID/_FINISH
    # handlers below: the pipeline suspends into a frame wherever a child
    # needs real evaluation and the later handlers re-enter it mid-way, so
    # the shared tail blocks repeat rather than being factored into
    # functions (two calls per visited node is measurable here).
    while work:
        frame = work_pop()
        tag = frame[0]
        if tag == _EVAL:
            v, sid = frame[1], frame[2]
            visited += 1
            lab = label_of[v]
            key1 = (sid << LS) | lab
            try:
                entry = trans_d[key1]
                memo_hits += 1
            except KeyError:
                entry = trans_entry(key1, sid, lab)
            lc = left_arr[v]
            rc = right_arr[v]
            if lc < 0 and rc < 0:
                # Leaf reached as the root (children resolve elsewhere).
                g: ResultSet = {}
                for q, selecting in entry[3]:
                    g[q] = ("v", v) if selecting else EMPTY_ROPE
                values_append((g, entry[5]))
                continue
            active, r1_sid, r2_sid, r2n0 = (
                entry[0],
                entry[1],
                entry[2],
                entry[4],
            )
            if lc < 0 or r1_sid == 0:
                g1d: ResultSet = {}
                dom1_sid = 0
            else:
                work_append((_MID, v, key1, active, r2_sid, r2n0))
                g1 = resolve_child(lc, r1_sid)
                if g1 is None:
                    continue
                work_pop()  # the _MID just pushed; the child pushed nothing
                g1d, dom1_sid = g1
        elif tag == _MID:
            _, v, key1, active, r2_sid, r2n0 = frame
            rc = right_arr[v]
            g1d, dom1_sid = values_pop()
        elif tag == _FINISH:
            _, v, key1, active, g1d, dom1_sid = frame
            g2d, dom2_sid = values_pop()
            ekey = (key1 << 32) | (dom1_sid << SB) | dom2_sid
            try:
                tpl = tpl_d[ekey]
                memo_hits += 1
            except KeyError:
                tpl = template(ekey, active, dom1_sid, dom2_sid)
            out: ResultSet = {}
            for q, selecting, sources in tpl[0]:
                rope = ("v", v) if selecting else EMPTY_ROPE
                for side, q2 in sources:
                    r = g1d[q2] if side == 1 else g2d[q2]
                    if r:
                        rope = ("+", rope, r) if rope else r
                prev = out.get(q)
                if prev is None:
                    out[q] = rope
                elif rope:
                    out[q] = ("+", prev, rope) if prev else rope
            values_append((out, tpl[1]))
            continue
        elif tag == _FOLD:
            gd, gsid = values_pop()
            values_append(unwind(frame[1], gd, gsid))
            continue
        else:  # _CHAIN (carries the precomputed next fused index)
            _, hi, csid, ni, dec, merged, msid = frame
            gd, gsid = values_pop()
            if merged:
                for q, rope in gd.items():
                    prev = merged.get(q)
                    if prev is None:
                        merged[q] = rope
                    elif rope:
                        merged[q] = ("+", prev, rope) if prev else rope
                msid = union_sid(msid, gsid)
            else:
                merged = gd  # gd is exclusively owned: adopt, don't copy
                msid = gsid
            if ni == dec[2] or (dec[3] and len(merged) == dec[4]):
                values_append((merged, msid))
                continue
            g = chain_run(merged, msid, ni, hi, csid, dec)
            if g is not None:
                values_append(g)
            continue

        # -- between the children (entered from _EVAL or _MID) --------------
        if dom1_sid:
            if ip:
                ikey = (key1 << SB) | dom1_sid
                try:
                    r2n = ip_d[ikey]
                    memo_hits += 1
                except KeyError:
                    r2n = narrow(ikey, active, dom1_sid)
            else:
                r2n = r2_sid
        else:
            r2n = r2n0 if ip else r2_sid
        if rc < 0 or r2n == 0:
            g2d: ResultSet = {}
            dom2_sid = 0
        else:
            work_append((_FINISH, v, key1, active, g1d, dom1_sid))
            g2 = resolve_child(rc, r2n)
            if g2 is None:
                continue
            work_pop()  # the _FINISH just pushed; the child pushed nothing
            g2d, dom2_sid = g2

        # -- template finish (same block as the _FINISH handler) ------------
        ekey = (key1 << 32) | (dom1_sid << SB) | dom2_sid
        try:
            tpl = tpl_d[ekey]
            memo_hits += 1
        except KeyError:
            tpl = template(ekey, active, dom1_sid, dom2_sid)
        out = {}
        for q, selecting, sources in tpl[0]:
            rope = ("v", v) if selecting else EMPTY_ROPE
            for side, q2 in sources:
                r = g1d[q2] if side == 1 else g2d[q2]
                if r:
                    rope = ("+", rope, r) if rope else r
            prev = out.get(q)
            if prev is None:
                out[q] = rope
            elif rope:
                out[q] = ("+", prev, rope) if prev else rope
        values_append((out, tpl[1]))

    ((gamma_root, _root_sid),) = values
    accepted, selected = root_answer(asta, gamma_root)
    stats.visited += visited
    stats.jumps += jumps
    stats.memo_hits += memo_hits
    stats.memo_entries += tables.entries() - entries_before
    stats.selected = len(selected)
    return accepted, selected




# ---------------------------------------------------------------------------
# The plain machine (memo=False): full per-node transition scan
# ---------------------------------------------------------------------------


def _run_plain(
    asta: ASTA,
    index: TreeIndex,
    *,
    tda: Optional[TDAAnalysis],
    ip: bool,
    stats: EvalStats,
) -> Tuple[bool, List[int]]:
    tree = index.tree
    labels_arr = tree.labels
    label_of = tree.label_of
    left_arr, right_arr = tree.left, tree.right

    marking = asta.is_marking

    def active_and_r1(states: StateSet, label: str) -> tuple:
        active = asta.active(states, label)
        r1 = frozenset(
            q for t in active for i, q in down_states(t.formula) if i == 1
        )
        r2 = frozenset(
            q for t in active for i, q in down_states(t.formula) if i == 2
        )
        return active, r1, r2

    def narrowed_r2(active, dom1: FrozenSet[str]) -> FrozenSet[str]:
        decided = set()
        for t in active:
            if partial_eval(t.formula, dom1) == 1:
                decided.add(t.q)
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
        return frozenset(r2)

    def child_frames(child: int, states: StateSet, work: list) -> None:
        """Push frames that leave exactly one Γ for this child on the
        value stack."""
        if child == NIL or not states:
            work.append((_LIT,))
            return
        if tda is None:
            work.append((_EVAL, child, states))
            return
        info = tda.info(states)
        label_rep = tda.atom_rep(labels_arr[label_of[child]])
        if info.jump_shape == "none" or info.per_atom[label_rep].skip_class == "ess":
            work.append((_EVAL, child, states))
            return
        ids = info.essential_ids
        if info.jump_shape == "both":
            stats.jumps += 1
            fused = info.fused
            if fused is None:
                fused = info.fused = index.fused(ids)
            first = fused.first_at_or_after(child + 1, tree.bend(child))
            if first < 0:
                work.append((_LIT,))
                return
            # Lazy dt/ft chain: evaluate one target, merge, then decide
            # whether the chain may stop early (see SetInfo.early_stop).
            work.append((_CHAIN, child, states, first, fused, {}, info.early_stop))
            work.append((_EVAL, first, states))
            return
        stats.jumps += 1
        hit = index.lt(child, ids) if info.jump_shape == "left" else index.rt(child, ids)
        if hit == OMEGA:
            work.append((_LIT,))
        else:
            work.append((_EVAL, hit, states))

    # ---- the machine ------------------------------------------------------

    work: list = []
    values: List[ResultSet] = []
    top: StateSet = frozenset(asta.top)
    work.append((_EVAL, tree.root(), top))
    while work:
        frame = work.pop()
        tag = frame[0]
        if tag == _EVAL:
            _, v, states = frame
            stats.visited += 1
            label = labels_arr[label_of[v]]
            active, r1, r2syn = active_and_r1(states, label)
            work.append((_MID, v, states, label, active, r2syn))
            child_frames(left_arr[v], r1, work)
        elif tag == _MID:
            _, v, states, label, active, r2syn = frame
            g1 = values.pop()
            dom1 = _EMPTY_SET if not g1 else frozenset(g1)
            if ip:
                r2 = narrowed_r2(active, dom1)
            else:
                r2 = r2syn
            work.append((_FINISH, v, active, g1))
            child_frames(right_arr[v], r2, work)
        elif tag == _FINISH:
            _, v, active, g1 = frame
            g2 = values.pop()
            values.append(eval_transitions(active, g1, g2, v))
        elif tag == _CHAIN:
            _, anchor, states, last, fused, acc, early_stop = frame
            g = values.pop()
            if acc:
                # acc is owned exclusively by this chain: merge in place.
                merged = acc
                for q, rope in g.items():
                    prev = merged.get(q)
                    merged[q] = rope if prev is None else concat(prev, rope)
            else:
                merged = g
            if early_stop and len(merged) == len(states):
                # Every state already accepted and none is marking: later
                # targets cannot change the result (one-witness semantics).
                values.append(merged)
                continue
            stats.jumps += 1
            nxt = fused.first_at_or_after(tree.bend(last), tree.bend(anchor))
            if nxt < 0:
                values.append(merged)
                continue
            work.append((_CHAIN, anchor, states, nxt, fused, merged, early_stop))
            work.append((_EVAL, nxt, states))
        else:  # _LIT
            values.append({})

    (gamma_root,) = values
    accepted, selected = root_answer(asta, gamma_root)
    stats.selected = len(selected)
    return accepted, selected
