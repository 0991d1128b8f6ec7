"""The strategy-plugin registry: registration, resolution, fallbacks."""

import pytest

from repro.engine import registry
from repro.engine.api import Engine
from repro.engine.registry import AstaStrategy, Strategy, register_strategy
from repro.xpath.parser import parse_xpath

from test_engines_equivalence import assert_strategy_matches_oracle

XML = "<r><a><x/><b/><c><b/></c></a><b/></r>"

BUILTINS = {
    "naive",
    "jumping",
    "memo",
    "optimized",
    "hybrid",
    "deterministic",
    "mixed",
}


class TestBuiltinRegistration:
    def test_all_seven_builtins_registered(self):
        assert BUILTINS <= set(registry.strategy_names())

    def test_get_strategy_returns_named_instance(self):
        for name in BUILTINS:
            assert registry.get_strategy(name).name == name

    def test_unknown_strategy_raises_with_choices(self):
        with pytest.raises(ValueError, match="optimized"):
            registry.get_strategy("warp")

    def test_describe_strategies_has_summaries(self):
        described = dict(registry.describe_strategies())
        assert BUILTINS <= set(described)
        for name in BUILTINS:
            assert described[name], f"{name} has no one-line summary"


class TestResolution:
    def test_forward_query_keeps_requested_strategy(self):
        path = parse_xpath("//a/b")
        for name in ("naive", "jumping", "memo", "optimized"):
            assert registry.resolve(name, path).name == name

    def test_backward_axes_resolve_to_mixed_from_any_strategy(self):
        path = parse_xpath("//a/b/parent::a")
        assert path.has_backward_axes()
        for name in sorted(BUILTINS):
            assert registry.resolve(name, path).name == "mixed"

    def test_hybrid_falls_back_to_optimized_off_fragment(self):
        assert registry.resolve("hybrid", parse_xpath("/r/a[b]")).name == "optimized"

    def test_hybrid_native_on_descendant_chain(self):
        assert registry.resolve("hybrid", parse_xpath("//a//b")).name == "hybrid"

    def test_deterministic_native_on_path_queries(self):
        assert (
            registry.resolve("deterministic", parse_xpath("//a//b")).name
            == "deterministic"
        )

    def test_deterministic_falls_back_on_predicates(self):
        # Predicates are outside the deterministically-compilable
        # fragment (the //a[.//b]//c discussion of Section 1), so the
        # resolution is truthful about what runs.
        assert (
            registry.resolve("deterministic", parse_xpath("//a[b]")).name
            == "optimized"
        )

    @pytest.mark.parametrize(
        "name,resolved", [("vectorized", "mixed"), ("window", "window")]
    )
    def test_kernel_names_resolve_by_fragment(self, name, resolved):
        # One kernel, two fragments: a backward axis takes vectorized
        # away from itself, and window keeps it.
        path = parse_xpath("//a/parent::b")
        assert registry.resolve(name, path).name == resolved

    def test_mixed_is_terminal(self):
        strategy = registry.get_strategy("mixed")
        assert strategy.fallback is None
        assert strategy.supports(parse_xpath("//a/parent::r"))


class TestPluginStrategies:
    def test_register_and_execute_plugin(self):
        @register_strategy
        class EchoNaive(Strategy):
            """A toy plugin: delegates to the naive evaluator."""

            name = "echo-naive"
            fallback = "mixed"

            def execute(self, plan, index, stats):
                from repro.engine.core import SERIES, run_asta

                return run_asta(plan.asta, index, stats=stats, **SERIES["naive"])

        try:
            assert "echo-naive" in registry.strategy_names()
            engine = Engine(XML, strategy="echo-naive")
            assert engine.select("//a//b") == [3, 5]
            # The conformance helper covers plugins exactly like builtins.
            for query in ("//a//b", "//b[not(c)]", "//a/b/parent::a"):
                assert_strategy_matches_oracle(engine, "echo-naive", query)
        finally:
            registry.unregister_strategy("echo-naive")
        assert "echo-naive" not in registry.strategy_names()

    def test_nameless_strategy_rejected(self):
        with pytest.raises(ValueError):

            @register_strategy
            class Nameless(Strategy):
                pass

    def test_exhausted_fallback_chain_raises(self):
        @register_strategy
        class Unsupporting(Strategy):
            """Supports nothing, falls back to itself."""

            name = "refusenik"
            fallback = "refusenik"

            def supports(self, path):
                return False

        try:
            with pytest.raises(ValueError, match="fallback chain"):
                registry.resolve("refusenik", parse_xpath("//a"))
        finally:
            registry.unregister_strategy("refusenik")


class TestEngineIntegration:
    def test_engine_validates_strategy_via_registry(self):
        with pytest.raises(ValueError):
            Engine(XML, strategy="warp")

    def test_engine_accepts_mixed_directly(self):
        assert Engine(XML, strategy="mixed").select("//a//b") == [3, 5]

    def test_resolved_strategy_visible_on_plan(self):
        engine = Engine(XML, strategy="hybrid")
        assert engine.prepare("//a//b").strategy.name == "hybrid"
        assert engine.prepare("/r/a[b]").strategy.name == "optimized"
        assert engine.prepare("//b/parent::a").strategy.name == "mixed"

    def test_reregistration_invalidates_cached_plans(self):
        engine = Engine(XML, strategy="optimized")
        stale = engine.prepare("//a//b")

        @register_strategy
        class Override(Strategy):
            """Replaces 'optimized' to prove plan caches refresh."""

            name = "optimized"

            def execute(self, plan, index, stats):
                return True, [-42]

        try:
            assert engine.select("//a//b") == [-42]
            assert engine.prepare("//a//b") is not stale
        finally:
            register_strategy(AstaStrategy("optimized"))
        assert engine.select("//a//b") == [3, 5]
