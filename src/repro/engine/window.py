"""The ``window`` strategy: the set-at-a-time kernel over every axis.

The staircase-join line of work evaluates XPath axes relationally: give
every node its preorder rank ``pre`` (our node id) and postorder rank
``post``, and each axis becomes a two-dimensional *window* predicate on
the (pre, post) plane -- ``u`` is an ancestor of ``v`` iff
``pre(u) < pre(v)`` and ``post(u) > post(v)``.  Because subtree ranges
either nest or are disjoint, the window of a context node projects onto
the sorted preorder axis as the half-open interval ``[v, xml_end[v])``,
so every location step is an interval join over sorted id arrays --
the operators of :mod:`repro.engine.joins`, driven by the step loop and
predicate logic of :mod:`repro.engine.frontier`.

That kernel is the one ``vectorized`` runs; what this name adds is the
fragment.  ``ancestor::`` is reverse containment (a candidate qualifies
iff the frontier has an element strictly inside its window -- two
gathers from the frontier's rank column) and ``parent::`` is read off
the frontier's parents, so ``window`` covers *every* absolute path,
backward axes inside predicates included, where ``vectorized`` hands
them to the mixed pipeline.
"""

from __future__ import annotations

from repro.engine.frontier import KernelStrategy
from repro.engine.registry import register_strategy
from repro.xpath.ast import Path


def is_window_evaluable(path: Path) -> bool:
    """The fragment this strategy covers natively: every *absolute*
    path, forward or backward -- which makes ``window`` the set-at-a-time
    name whose fragment strictly contains the vectorized one."""
    return path.absolute and bool(path.steps)


@register_strategy
class WindowStrategy(KernelStrategy):
    """Interval joins over the pre/post plane, every axis native."""

    name = "window"
    fallback = "optimized"  # only "/" gets there, and is refused

    def supports(self, path: Path) -> bool:
        return is_window_evaluable(path)
