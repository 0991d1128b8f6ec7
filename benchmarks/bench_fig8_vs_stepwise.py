"""Figure 8 (Appendix D): automata engine vs the step-wise baseline.

Rows ``test_fig8[<engine>-<Qxx>]`` compare the SXSI-style optimized engine
against the Gottlob-Koch-family step-wise engine (the MonetDB stand-in).
Paper's shape: the automata engine wins broadly, most dramatically on
queries whose step-wise plan materializes large intermediate node sets.
"""

from __future__ import annotations

import pytest

from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.engine.core import run_asta
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath

_ASTAS = {qid: compile_xpath(q) for qid, q in QUERIES.items()}


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_fig8_sxsi_style(benchmark, xmark_index, qid):
    _, selected = benchmark(
        lambda: run_asta(_ASTAS[qid], xmark_index, stats=EvalStats())
    )
    assert selected == stepwise_evaluate(QUERIES[qid], xmark_index, EvalStats())


@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_fig8_stepwise(benchmark, xmark_index, qid):
    benchmark(lambda: stepwise_evaluate(QUERIES[qid], xmark_index, EvalStats()))
