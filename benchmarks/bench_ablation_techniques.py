"""Ablation: each Section 4.4 technique toggled independently.

Rows ``test_ablation[jump=X-memo=Y-ip=Z]`` time the full Q01-Q15 batch for
every (jumping, memoization, information propagation) combination --
the design-choice ablation DESIGN.md calls out.  Expected shape: the
techniques are complementary (paper: "Opt. Eval" is at least twice as
fast as either optimization taken individually, except Q01/Q12).
"""

from __future__ import annotations

import pytest

from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath

_ASTAS = [compile_xpath(q) for q in QUERIES.values()]

GRID = [
    pytest.param(j, m, i, id=f"jump={int(j)}-memo={int(m)}-ip={int(i)}")
    for j in (False, True)
    for m in (False, True)
    for i in (False, True)
]


@pytest.mark.parametrize("jumping,memo,ip", GRID)
def test_ablation(benchmark, xmark_index, jumping, memo, ip):
    def run_batch():
        for asta in _ASTAS:
            run_asta(
                asta, xmark_index, stats=EvalStats(),
                jumping=jumping, memo=memo, ip=ip,
            )

    benchmark.pedantic(run_batch, rounds=2, iterations=1, warmup_rounds=0)
