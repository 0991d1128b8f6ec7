"""Pinned behaviour of the strategy layer: answers, counters, fallbacks.

Four pins that hold the strategy registry to what it did before the
Figure-4 series became one table of switches:

- for each Figure-4 series (naive, jumping, memo, optimized) x Q01-Q15
  on XMark scale 0.2, seed 42: the answer ids and the ``EvalStats``
  snapshot of a cold run, of a second (warm) run of the same prepared
  plan, and of a direct ``run_asta`` call with the series' switches --
  against ``tests/golden_fig4_series.json``;
- the same cold and warm snapshots for every other registered name and
  for ``stepwise_evaluate`` (Figure 8's baseline, which no strategy
  reaches) -- against ``tests/golden_strategy_counters.json``.  Each
  name runs on an index of its own: the kernel's path summary is built
  from the touches earlier runs booked on that index;
- the strategy each of the ten registered names resolves to on four
  queries (forward chain, predicate, ``parent::``, ``ancestor::``);
- the exact text of ``repro --list-strategies``.

``python tests/test_strategy_pins.py`` rewrites the golden file from
the code in the tree; only do that for a change meant to move it.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.engine import registry
from repro.engine.api import Engine
from repro.engine.core import run_asta
from repro.index.jumping import TreeIndex
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_fig4_series.json")
COUNTER_GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden_strategy_counters.json"
)
SCALE, SEED = 0.2, 42

# The switches of each Figure-4 series, written out here rather than
# imported so the pin does not depend on where the code keeps them.
SWITCHES = {
    "naive": dict(jumping=False, memo=False, ip=False),
    "jumping": dict(jumping=True, memo=False, ip=True),
    "memo": dict(jumping=False, memo=True, ip=False),
    "optimized": dict(jumping=True, memo=True, ip=True),
}

# The registered names golden_fig4_series.json does not cover, plus the
# Figure 8 baseline under its function's name.
COUNTED = ("auto", "deterministic", "hybrid", "mixed", "vectorized", "window")
STEPWISE = "stepwise_evaluate"

RESOLVE_QUERIES = ("//a//b", "//a[b]//c", "//b/parent::a", "//a/ancestor::r")

# registry.resolve(name, query).name, one column per RESOLVE_QUERIES.
RESOLVED = {
    "auto": ("auto", "auto", "auto", "auto"),
    "deterministic": ("deterministic", "optimized", "mixed", "mixed"),
    "hybrid": ("hybrid", "optimized", "mixed", "mixed"),
    "jumping": ("jumping", "jumping", "mixed", "mixed"),
    "memo": ("memo", "memo", "mixed", "mixed"),
    "mixed": ("mixed", "mixed", "mixed", "mixed"),
    "naive": ("naive", "naive", "mixed", "mixed"),
    "optimized": ("optimized", "optimized", "mixed", "mixed"),
    "vectorized": ("vectorized", "vectorized", "mixed", "mixed"),
    "window": ("window", "window", "window", "window"),
}

LIST_STRATEGIES = """\
auto           The default: the set-at-a-time kernel (``window``) under its everyday name.
deterministic  Minimal-TDSTA pipeline for predicate-free path queries (Section 3).
hybrid         Start-anywhere evaluation for descendant chains (Section 4.4).
jumping        Relevant-node jumping without memoization (Figure 4 "Jumping").
memo           Full traversal with memoized transitions (Figure 4 "Memo").
mixed          Forward prefix on the ASTA engine + step-wise rest (Section 6).
naive          Full traversal, |Q| transition scan per node (Figure 4 "Naive").
optimized      Jumping + memoization + information propagation (Figure 4 "Opt.").
vectorized     Set-at-a-time frontier evaluation over numpy node-id arrays.
window         Interval joins over the pre/post plane, every axis native.
"""


def observe(index: TreeIndex) -> dict:
    """Everything the golden file records, computed from ``index``."""
    ids, stats = {}, {}
    for name in SWITCHES:
        engine = Engine(index, strategy=name)
        stats[name] = {}
        for qid, query in QUERIES.items():
            plan = engine.prepare(query)
            cold, warm = plan.execute(), plan.execute()
            assert list(cold.ids) == list(warm.ids), (name, qid)
            ids.setdefault(qid, list(cold.ids))
            assert list(cold.ids) == ids[qid], (name, qid)
            stats[name][qid] = {
                "cold": cold.stats.snapshot(),
                "warm": warm.stats.snapshot(),
            }
    return {"scale": SCALE, "seed": SEED, "nodes": index.tree.n, "ids": ids,
            "stats": stats}


def _stepwise_runs(index: TreeIndex, query: str):
    for _ in range(2):
        stats = EvalStats()
        yield stepwise_evaluate(query, index, stats), stats


def _strategy_runs(index: TreeIndex, name: str, query: str):
    plan = Engine(index, strategy=name).prepare(query)
    for _ in range(2):
        result = plan.execute()
        yield result.ids, result.stats


def counter_runs(tree, name: str):
    """``(qid, [(ids, stats) cold, (ids, stats) warm])`` for Q01-Q15
    under ``name``, on an index of its own."""
    index = TreeIndex(tree)
    for qid, query in QUERIES.items():
        if name == STEPWISE:
            yield qid, list(_stepwise_runs(index, query))
        else:
            yield qid, list(_strategy_runs(index, name, query))


def observe_counters(tree) -> dict:
    """Everything the all-strategy counter golden file records."""
    stats = {}
    for name in COUNTED + (STEPWISE,):
        stats[name] = {
            qid: {"cold": cold.snapshot(), "warm": warm.snapshot()}
            for qid, ((_, cold), (_, warm)) in counter_runs(tree, name)
        }
    return {"scale": SCALE, "seed": SEED, "nodes": tree.n, "stats": stats}


@pytest.fixture(scope="module")
def xmark_02():
    return TreeIndex(XMarkGenerator(scale=SCALE, seed=SEED).tree())


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


class TestFigure4Golden:
    def test_document_is_the_pinned_one(self, xmark_02, golden):
        assert (golden["scale"], golden["seed"]) == (SCALE, SEED)
        assert xmark_02.tree.n == golden["nodes"]

    @pytest.mark.parametrize("name", sorted(SWITCHES))
    def test_series_answers_and_counters(self, xmark_02, golden, name):
        engine = Engine(xmark_02, strategy=name)
        for qid, query in QUERIES.items():
            plan = engine.prepare(query)
            assert plan.strategy.name == name
            expected = golden["stats"][name][qid]
            for run in ("cold", "warm"):
                result = plan.execute()
                assert list(result.ids) == golden["ids"][qid], (name, qid, run)
                assert result.stats.snapshot() == expected[run], (name, qid, run)

    @pytest.mark.parametrize("name", sorted(SWITCHES))
    def test_run_asta_with_the_series_switches(self, xmark_02, golden, name):
        for qid, query in QUERIES.items():
            stats = EvalStats()
            _, selected = run_asta(
                compile_xpath(query), xmark_02, stats=stats, **SWITCHES[name]
            )
            assert list(selected) == golden["ids"][qid], (name, qid)
            assert stats.snapshot() == golden["stats"][name][qid]["cold"], (name, qid)


class TestStrategyCounters:
    @pytest.fixture(scope="class")
    def counter_golden(self):
        with open(COUNTER_GOLDEN) as f:
            return json.load(f)

    def test_document_is_the_pinned_one(self, xmark_02, counter_golden):
        assert (counter_golden["scale"], counter_golden["seed"]) == (SCALE, SEED)
        assert xmark_02.tree.n == counter_golden["nodes"]

    def test_every_registered_name_is_pinned(self):
        assert sorted(COUNTED + tuple(SWITCHES)) == registry.strategy_names()

    @pytest.mark.parametrize("name", COUNTED + (STEPWISE,))
    def test_answers_and_counters(self, xmark_02, golden, counter_golden, name):
        expected = counter_golden["stats"][name]
        for qid, runs in counter_runs(xmark_02.tree, name):
            for run, (ids, stats) in zip(("cold", "warm"), runs):
                assert list(ids) == golden["ids"][qid], (name, qid, run)
                assert stats.snapshot() == expected[qid][run], (name, qid, run)


class TestResolution:
    def test_the_ten_names(self):
        assert registry.strategy_names() == sorted(RESOLVED)

    @pytest.mark.parametrize("name", sorted(RESOLVED))
    def test_resolves_to(self, name):
        got = tuple(
            registry.resolve(name, parse_xpath(q)).name for q in RESOLVE_QUERIES
        )
        assert got == RESOLVED[name]


class TestListStrategies:
    def test_output_is_byte_identical(self):
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--list-strategies"],
            env=env, capture_output=True, check=True, timeout=60,
        ).stdout
        assert out.decode() == LIST_STRATEGIES


if __name__ == "__main__":
    tree = XMarkGenerator(scale=SCALE, seed=SEED).tree()
    for path, observed in (
        (GOLDEN, observe(TreeIndex(tree))),
        (COUNTER_GOLDEN, observe_counters(tree)),
    ):
        with open(path, "w") as f:
            json.dump(observed, f, indent=None, separators=(",", ":"), sort_keys=True)
            f.write("\n")
