"""Shared instrumentation counters.

The paper's evaluation (Figure 3, Figure 5) is largely about *counting*:
selected nodes, nodes visited with and without jumping, memoization table
entries.  Every run counts: one :class:`EvalStats` per run, allocated by
``PreparedQuery.execute`` or by the direct caller of a machine, and
handed down to every machine and helper the run reaches -- never
``None`` below that point -- so the benchmarks reproduce those tables
exactly.  A caller that ignores the counters passes ``EvalStats()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EvalStats:
    """Counters matching the rows of Figure 3 / Figure 5.

    The node-at-a-time engines count nodes and index calls one by one.
    The set-at-a-time strategies (``vectorized`` / ``window``) move whole
    arrays, and book per array pass (:mod:`repro.engine.joins`):
    ``jumps`` one per pass; ``visited`` the elements the pass reads to
    set marks or copies into its result (a CSR gather books the children
    it copies, a context-side descendant join the slices it copies --
    nothing for a single range, a view -- an ad-hoc rank column its
    ``n`` slots), plus every node a first-witness search expands;
    ``index_probes`` the probe elements: one per element looked up in a
    mark bitmap, two per element located by rank column or binary search
    (both bounds of its range, or its slot and that range's end), two
    per context node whose range is looked up.  ``visited +
    index_probes`` is what the touches ``explain`` states are held
    against.
    """

    visited: int = 0
    """Nodes whose transitions were evaluated (Figure 3 lines 2/3)."""

    selected: int = 0
    """Nodes in the final answer (Figure 3 line 1)."""

    memo_entries: int = 0
    """Entries inserted into memoization tables (Figure 3 line 4)."""

    memo_hits: int = 0
    """Look-ups answered from the memo tables."""

    jumps: int = 0
    """Number of index jump operations (dt/ft/lt/rt) performed."""

    index_probes: int = 0
    """Binary-search probes inside the label index."""

    def ratio_selected_visited(self) -> float:
        """Line (5) of Figure 3: selected / visited, in percent."""
        if self.visited == 0:
            return 0.0
        return 100.0 * self.selected / self.visited

    def snapshot(self) -> dict:
        return {
            "visited": self.visited,
            "selected": self.selected,
            "memo_entries": self.memo_entries,
            "memo_hits": self.memo_hits,
            "jumps": self.jumps,
            "index_probes": self.index_probes,
        }
