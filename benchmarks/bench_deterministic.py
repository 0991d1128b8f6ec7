"""Deterministic minimal-TDSTA pipeline vs the ASTA engine on path queries.

The Intro's "extreme |Q|-optimization": for predicate-free paths the
minimal deterministic automaton needs one look-up per relevant node.
Rows compare it with the optimized ASTA engine on the path-shaped subset
of Q01-Q15.
"""

from __future__ import annotations

import pytest

from repro.counters import EvalStats
from repro.engine.api import Engine
from repro.engine.core import run_asta
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath

PATH_QIDS = ("Q01", "Q02", "Q03", "Q04", "Q05", "Q06", "Q11")


@pytest.mark.parametrize("qid", PATH_QIDS)
def test_deterministic(benchmark, xmark_index, qid):
    query = QUERIES[qid]
    plan = Engine(xmark_index, "deterministic").prepare(query)  # compiles
    assert plan.strategy.name == "deterministic"
    result = benchmark(plan.execute)
    _, selected = run_asta(compile_xpath(query), xmark_index, stats=EvalStats())
    assert result.nodes == selected


@pytest.mark.parametrize("qid", PATH_QIDS)
def test_asta_optimized(benchmark, xmark_index, qid):
    asta = compile_xpath(QUERIES[qid])
    benchmark(lambda: run_asta(asta, xmark_index, stats=EvalStats()))
