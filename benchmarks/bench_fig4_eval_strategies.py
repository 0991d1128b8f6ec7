"""Figure 4: query answering time per evaluation strategy.

Benchmark rows ``test_fig4[<engine>-<Qxx>]`` reproduce the four series of
Figure 4 (naive / jumping / memo / optimized, the rows of
``repro.engine.core.SERIES``) over Q01-Q15.  The paper's shape:
naive is 10-100x slower on top-level '//' queries; jumping and memoization
are complementary; Opt is the fastest except on the two-node queries
Q01/Q12 where memo insertion is pure overhead.
"""

from __future__ import annotations

import pytest

from repro.counters import EvalStats
from repro.engine.core import SERIES, run_asta
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath

_ASTAS = {qid: compile_xpath(q) for qid, q in QUERIES.items()}


@pytest.mark.parametrize("engine", list(SERIES))
@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_fig4(benchmark, xmark_index, qid, engine):
    asta = _ASTAS[qid]
    accepted, selected = benchmark(
        lambda: run_asta(asta, xmark_index, stats=EvalStats(), **SERIES[engine])
    )
    # Sanity: all strategies agree with the optimized engine.
    assert selected == run_asta(asta, xmark_index, stats=EvalStats())[1]
