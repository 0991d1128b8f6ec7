"""Figure 3: selected/visited node counts and memo-table sizes.

The benchmark times the counting run (optimized engine with stats); the
assertions pin the paper's structural claims per query.  The full table is
printed by ``python -m repro.bench.experiments fig3``.
"""

from __future__ import annotations

import pytest

from repro.counters import EvalStats
from repro.engine.core import SERIES, run_asta
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath

_ASTAS = {qid: compile_xpath(q) for qid, q in QUERIES.items()}


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_fig3(benchmark, xmark_index, qid):
    asta = _ASTAS[qid]

    def counted_run():
        stats = EvalStats()
        run_asta(asta, xmark_index, stats=stats)
        return stats

    stats = benchmark(counted_run)
    # Line (1) <= line (2): selection requires a visit.
    assert stats.selected <= stats.visited
    # Line (2) <= line (3): jumping never visits more than full traversal.
    nojump = EvalStats()
    run_asta(asta, xmark_index, stats=nojump, **SERIES["memo"])
    assert stats.visited <= nojump.visited
    # Line (4): memoization tables stay tiny relative to the document.
    assert stats.memo_entries < xmark_index.tree.n / 10
