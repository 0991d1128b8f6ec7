"""Figure 5: hybrid vs regular evaluation on configurations A-D.

Rows ``test_fig5[<strategy>-<config>]`` reproduce the two bars per
configuration for //listitem//keyword//emph.  Paper's shape: hybrid wins
by orders of magnitude on A/B (rare pivot label), behaves like the regular
run on C, and D is its worst case.
"""

from __future__ import annotations

import pytest

from repro.counters import EvalStats
from repro.engine.api import Engine
from repro.engine.core import run_asta
from repro.xmark.configs import CONFIG_SPECS
from repro.xmark.queries import HYBRID_QUERY
from repro.xpath.compiler import compile_xpath

_ASTA = compile_xpath(HYBRID_QUERY)


@pytest.mark.parametrize("name", sorted(CONFIG_SPECS))
def test_fig5_hybrid(benchmark, config_indexes, name):
    index = config_indexes[name]
    plan = Engine(index, "hybrid").prepare(HYBRID_QUERY)
    assert plan.strategy.name == "hybrid"
    result = benchmark(plan.execute)
    assert result.nodes == run_asta(_ASTA, index, stats=EvalStats())[1]


@pytest.mark.parametrize("name", sorted(CONFIG_SPECS))
def test_fig5_regular(benchmark, config_indexes, name):
    index = config_indexes[name]
    benchmark(lambda: run_asta(_ASTA, index, stats=EvalStats()))
