"""Prepared queries: reuse, zero re-work on execute, immutable stats."""

import pytest

from repro import Engine
from repro.engine import api as api_module
from repro.engine.plan import ExecutionResult

XML = "<r><a><x/><b/><c><b/></c></a><b/></r>"


class TestPlanReuse:
    def test_prepare_is_cached_per_query_and_strategy(self):
        engine = Engine(XML)
        assert engine.prepare("//a//b") is engine.prepare("//a//b")
        assert engine.prepare("//a//b") is not engine.prepare(
            "//a//b", strategy="naive"
        )

    def test_execute_matches_select(self):
        engine = Engine(XML)
        plan = engine.prepare("//a//b")
        assert list(plan.execute().ids) == engine.select("//a//b") == [3, 5]

    def test_plan_select_convenience(self):
        assert Engine(XML).prepare("//a//b").select() == [3, 5]

    def test_execute_does_zero_parsing_and_compilation(self, monkeypatch):
        engine = Engine(XML)
        plan = engine.prepare("//a//b")
        plan.execute()  # warm any lazy artifact
        compilations = engine.cache.compilations

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("re-parsed/re-compiled on execute()")

        monkeypatch.setattr(api_module, "parse_xpath", boom)
        monkeypatch.setattr("repro.engine.plan.compile_xpath", boom)
        monkeypatch.setattr("repro.engine.mixed.compile_xpath", boom)
        result = plan.execute()
        assert list(result.ids) == [3, 5]
        assert engine.cache.compilations == compilations

    def test_prepared_backward_query_compiles_prefix_once(self):
        engine = Engine(XML, strategy="optimized")
        plan = engine.prepare("//a/b/parent::a")
        assert plan.strategy.name == "mixed"
        first = plan.execute()
        compilations = engine.cache.compilations
        second = plan.execute()
        assert list(first.ids) == list(second.ids) == [1]
        assert engine.cache.compilations == compilations

    def test_prepared_deterministic_reuses_tdsta(self):
        engine = Engine(XML, strategy="deterministic")
        plan = engine.prepare("//a//b")
        assert plan.artifacts["tdsta"] is not None
        assert list(plan.execute().ids) == [3, 5]

    def test_compiled_cache_shared_between_plan_and_compile(self):
        engine = Engine(XML)
        plan = engine.prepare("//a//b")
        assert engine.compile("//a//b") is plan.asta
        assert engine.cache.compilations == 1


class TestExecutionResult:
    def test_result_is_immutable(self):
        result = Engine(XML).prepare("//a//b").execute()
        with pytest.raises(AttributeError):
            result.ids = ()

    def test_each_execution_gets_fresh_stats(self):
        engine = Engine(XML)
        plan = engine.prepare("//a//b")
        # The first run pays for the document's path summary, and the
        # plan binds to it before the second: from then on every run
        # books the same counters, none of them carried over.
        r0, r1, r2 = plan.execute(), plan.execute(), plan.execute()
        assert r1.stats is not r2.stats
        assert r0.stats.selected == r1.stats.selected == r2.stats.selected == 2
        assert r1.stats.visited == r2.stats.visited
        assert r1.stats.jumps == r2.stats.jumps

    def test_prepared_plan_keeps_warmed_memo_tables(self):
        engine = Engine(XML, strategy="optimized")
        plan = engine.prepare("//a//b")
        r1, r2 = plan.execute(), plan.execute()
        # The first execution fills the interned tables; the second runs
        # entirely against them (same answers, zero new insertions).
        assert list(r1.ids) == list(r2.ids)
        assert r1.stats.memo_entries > 0
        assert r2.stats.memo_entries == 0
        assert r2.stats.memo_hits >= r1.stats.memo_hits

    def test_no_last_stats_race_between_plans(self):
        engine = Engine(XML)
        many = engine.prepare("//b").execute()
        few = engine.prepare("//a/c/b").execute()
        # Results keep their own counters regardless of later executions.
        assert many.stats.selected == 3
        assert few.stats.selected == 1

    def test_result_sequence_protocol(self):
        result = Engine(XML).prepare("//a//b").execute()
        assert len(result) == 2
        assert list(result) == [3, 5]
        assert result.nodes == [3, 5]
        assert isinstance(result, ExecutionResult)


class TestPlanExplain:
    def test_explain_names_resolved_strategy(self):
        engine = Engine(XML, strategy="optimized")
        assert "strategy: optimized" in engine.prepare("//a//b").explain()
        assert "strategy: mixed" in engine.prepare("//b/parent::a").explain()

    def test_engine_explain_delegates_to_plan(self):
        engine = Engine(XML)
        assert engine.explain("//a//b") == engine.prepare("//a//b").explain()
