"""Evaluation rules for ASTAs (Figure 7, Appendix C).

The result of evaluating a subtree is a *result set* Γ: a mapping from
states to sets of selected nodes; the domain of Γ is the set of states
accepted at that subtree's root.  Node sets are represented as *ropes*
(O(1) concatenation, flattened once at the end), implementing the paper's
"Result Sets" technique; because evaluation proceeds in document order the
flattened list is already sorted in the overwhelmingly common case, and a
final merge pass restores sortedness/dedup in the remaining ones.

:func:`eval_formula` implements the judgement ``Γ1, Γ2 ⊢A φ = (b, R)`` and
:func:`eval_transitions` the ``eval_trans`` function of Definition C.3.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.asta.automaton import ASTA, ASTATransition
from repro.asta.formula import Formula

Rope = tuple
EMPTY_ROPE: Rope = ()

ResultSet = Dict[str, Rope]
"""Γ: state -> rope of selected node ids; key presence = state accepted."""


def leaf(v: int) -> Rope:
    """Singleton rope {v}."""
    return ("v", v)


def concat(a: Rope, b: Rope) -> Rope:
    """O(1) union of two ropes (the paper's constant-time concatenation)."""
    if not a:
        return b
    if not b:
        return a
    return ("+", a, b)


def flatten(rope: Rope) -> List[int]:
    """Materialize a rope into a sorted duplicate-free id list.

    A rope is a DAG, not a tree: one sub-rope may be concatenated into
    many (a state's result set feeds every transition that reads it), so
    each node is walked once, by identity.  A walk of the unfolded tree
    reads a shared node once per path to it: quadratically often on a
    chain of siblings, each ``following-sibling`` set holding the next.
    """
    out: List[int] = []
    append = out.append
    seen = set()
    add = seen.add
    stack = [rope]
    pop = stack.pop
    push = stack.append
    while stack:
        r = pop()
        key = id(r)  # every node is alive (held by the rope) while walked
        if key in seen or not r:
            continue
        add(key)
        if r[0] == "v":
            append(r[1])
        else:
            push(r[1])
            push(r[2])
    if not out:
        return out
    out.sort()
    # C-level ordered dedup (evaluation order makes duplicates rare).
    return list(dict.fromkeys(out))


def eval_formula(f: Formula, g1: ResultSet, g2: ResultSet) -> Tuple[bool, Rope]:
    """The judgement Γ1, Γ2 ⊢A φ = (b, R) of Figure 7."""
    tag = f[0]
    if tag == "T":
        return True, EMPTY_ROPE
    if tag == "F":
        return False, EMPTY_ROPE
    if tag == "d":
        g = g1 if f[1] == 1 else g2
        rope = g.get(f[2])
        if rope is None:
            return False, EMPTY_ROPE
        return True, rope
    if tag == "!":
        b, _ = eval_formula(f[1], g1, g2)
        return (not b), EMPTY_ROPE
    b1, r1 = eval_formula(f[1], g1, g2)
    if tag == "&":
        if not b1:
            return False, EMPTY_ROPE
        b2, r2 = eval_formula(f[2], g1, g2)
        if not b2:
            return False, EMPTY_ROPE
        return True, concat(r1, r2)
    # disjunction: union the markings of all true branches (rule "or")
    b2, r2 = eval_formula(f[2], g1, g2)
    if b1 and b2:
        return True, concat(r1, r2)
    if b1:
        return True, r1
    if b2:
        return True, r2
    return False, EMPTY_ROPE


def eval_transitions(
    active: Iterable[ASTATransition],
    g1: ResultSet,
    g2: ResultSet,
    v: int,
) -> ResultSet:
    """``eval_trans`` (Definition C.3): one node's result set.

    For each enabled transition whose formula holds: collect the markings
    of the formula's true branches, prepend the node itself for ⇒ rules,
    and union per target state.
    """
    out: ResultSet = {}
    for t in active:
        ok, rope = eval_formula(t.formula, g1, g2)
        if not ok:
            continue
        if t.selecting:
            rope = concat(leaf(v), rope)
        prev = out.get(t.q)
        out[t.q] = rope if prev is None else concat(prev, rope)
    return out


def root_answer(asta: ASTA, root_gamma: ResultSet) -> Tuple[bool, List[int]]:
    """Final answer: accepted?, selected nodes propagated to a top state."""
    accepted = False
    rope: Rope = EMPTY_ROPE
    for q in asta.top:
        if q in root_gamma:
            accepted = True
            rope = concat(rope, root_gamma[q])
    return accepted, flatten(rope)
