"""The cost-based adaptive planner (repro.engine.planner) and the
bounded caches it leans on (plan-cache and fused-cache LRUs)."""

import pytest

from repro.counters import EvalStats
from repro.engine import frontier, joins, planner, registry
from repro.engine.api import Engine
from repro.engine.planner import (
    PlannerState,
    estimate_costs,
    extract_features,
    plan_explain,
    planner_fields,
)
from repro.engine.workspace import Workspace
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xmark.queries import QUERIES
from repro.xpath.parser import parse_xpath

XML = (
    "<site>"
    "<a><x/><b/><c><b/><d/></c></a>"
    "<b><a><b/></a></b>"
    "<keyword/>"
    "<listitem><text><keyword><emph/></keyword></text></listitem>"
    "</site>"
)


@pytest.fixture()
def index():
    return TreeIndex(BinaryTree.from_document(parse_xml(XML)))


class TestFeatureExtraction:
    def test_basic_features(self, index):
        f = extract_features(parse_xpath("//a/b[.//c]"), index)
        assert f.n == index.tree.n
        assert f.steps == 2
        assert f.axes == ("descendant", "child")
        assert f.descendant_steps == 1
        assert f.wildcard_steps == 0
        assert f.pred_depth == 1
        assert f.pred_paths == 1
        assert not f.encoded
        # Candidate sizes come straight from the label-index lengths.
        assert f.step_candidates == (
            index.labels.count("a"),
            index.labels.count("b"),
        )
        assert f.pred_candidates == (0, index.labels.count("c"))

    def test_wildcards_and_node_test(self, index):
        f = extract_features(parse_xpath("//*/node()"), index)
        assert f.wildcard_steps == 2
        assert f.step_candidates[1] == index.tree.n
        assert f.step_candidates[0] == index.tree.n  # element-only doc

    def test_encoded_document_flag(self):
        tree = BinaryTree.from_document(
            parse_xml('<r a="1"/>'), encode_attributes=True
        )
        index = TreeIndex(tree)
        f = extract_features(parse_xpath("//r[@a]"), index)
        assert f.encoded
        assert f.pred_candidates == (1,)  # the one @a node

    def test_nested_predicate_depth(self, index):
        f = extract_features(parse_xpath("//a[b[c] and not(d)]"), index)
        assert f.pred_depth == 2
        assert f.pred_paths == 3

    def test_height_from_store_stats_wins(self, index):
        index.doc_stats = {"height": 77}
        assert planner.doc_height(index) == 77

    def test_height_computed_and_cached_without_stats(self, index):
        h = planner.doc_height(index)
        assert h == index.tree.height() == index.tree._height
        by_loop = max(index.tree.depth(v) for v in range(index.tree.n))
        assert h == by_loop


class TestCostModel:
    def test_monotone_in_candidate_volume(self, index):
        rare = estimate_costs(
            parse_xpath("//emph"), extract_features(parse_xpath("//emph"), index)
        )
        common = estimate_costs(
            parse_xpath("//b"), extract_features(parse_xpath("//b"), index)
        )
        for name in ("vectorized", "optimized"):
            assert common[name] >= rare[name]

    def test_monotone_in_predicates(self, index):
        plain_p = parse_xpath("//a")
        pred_p = parse_xpath("//a[.//b]")
        plain = estimate_costs(plain_p, extract_features(plain_p, index))
        pred = estimate_costs(pred_p, extract_features(pred_p, index))
        for name in ("vectorized", "optimized"):
            assert pred[name] >= plain[name]

    def test_monotone_in_steps(self, index):
        one_p, two_p = parse_xpath("//b"), parse_xpath("//b//b")
        one = estimate_costs(one_p, extract_features(one_p, index))
        two = estimate_costs(two_p, extract_features(two_p, index))
        for name in ("vectorized", "optimized"):
            assert two[name] >= one[name]

    def test_hybrid_priced_only_in_its_fragment(self, index):
        chain = parse_xpath("//a//b")
        other = parse_xpath("//a/b")  # child step: outside the chain fragment
        assert "hybrid" in estimate_costs(chain, extract_features(chain, index))
        assert "hybrid" not in estimate_costs(other, extract_features(other, index))

    def test_node_at_a_time_wins_on_tiny_documents(self, index):
        # A handful of candidate elements cannot amortize the fixed
        # vectorized dispatch overhead.
        p = parse_xpath("/site/a")
        costs = estimate_costs(p, extract_features(p, index))
        assert costs["optimized"] < costs["vectorized"]

    def test_vectorized_wins_at_scale(self, xmark_index):
        p = parse_xpath("//listitem//keyword")
        costs = estimate_costs(p, extract_features(p, xmark_index))
        assert costs["vectorized"] < costs["optimized"]

    def test_vectorized_priced_only_in_its_fragment(self, index):
        # A relative top-level path resolves away from 'vectorized'
        # through the fallback chain, so pricing it would desync the
        # choice from the strategy that actually executes.
        p = parse_xpath("a//b")
        costs = estimate_costs(p, extract_features(p, index))
        assert "vectorized" not in costs
        assert "optimized" in costs

    def test_relative_path_plan_chooses_a_resolvable_strategy(self, index):
        # The chosen strategy must execute under its own name so the
        # feedback loop's observations key-match the choice.
        state = PlannerState.plan(parse_xpath("a//b"), index)
        assert state.choice.strategy in state.choice.costs
        assert state.choice.strategy != "vectorized"


class TestPlannerStrategy:
    def test_auto_registered_and_default_listed_first(self):
        assert "auto" in registry.strategy_names()
        assert registry.describe_strategies()[0][0] == "auto"

    def test_prepare_binds_cheapest_strategy(self, xmark_index):
        engine = Engine(xmark_index, strategy="auto")
        plan = engine.prepare("//listitem//keyword")
        state = plan.artifacts["planner"]
        assert plan.strategy.name == "auto"
        assert state.choice.strategy == "vectorized"
        assert state.active.name == "vectorized"

    @pytest.mark.parametrize("qid", ["Q05", "Q11"])
    def test_wide_descendant_queries_stay_set_at_a_time(self, xmark_index, qid):
        # The forward queries with the widest candidate sets of the
        # fig-4 mix: whichever set-at-a-time evaluator prices lower, the
        # cost model must not hand them to a step-at-a-time strategy.
        verdict = plan_explain(Engine(xmark_index, strategy="auto"), QUERIES[qid])
        assert verdict["planner"]["strategy"] in ("vectorized", "window"), verdict

    def test_backward_axes_plan_onto_window(self, index):
        # Backward axes used to bypass the planner (mixed fallback); the
        # window strategy evaluates them natively, so they now plan with
        # ``window`` as the sole candidate and freeze at prepare time.
        engine = Engine(index, strategy="auto")
        plan = engine.prepare("//b/parent::a")
        assert plan.strategy.name == "auto"
        state = plan.artifacts["planner"]
        assert set(state.choice.costs) == {"window"}
        assert state.frozen is True
        assert plan._execute_impl == state.active.execute

    def test_results_match_oracle(self, index):
        auto = Engine(index, strategy="auto")
        naive = Engine(index, strategy="naive")
        for q in ("//a//b", "//a[.//b]", "/site/*", "//c/following-sibling::b"):
            assert auto.select(q) == naive.select(q), q

    def test_plan_explain_surface(self, index):
        engine = Engine(index, strategy="auto")
        verdict = plan_explain(engine, "//a//b")
        assert verdict["strategy"] == "auto"
        assert verdict["planner"]["strategy"] in verdict["planner"]["costs"]
        assert verdict["executes_as"] in registry.strategy_names()
        assert verdict["nodes"] == index.tree.n

    def test_explain_includes_planner_verdict(self, index):
        engine = Engine(index, strategy="auto")
        text = engine.explain("//a//b")
        assert "planner: chose" in text
        assert "candidate costs" in text


class TestFeedbackLoop:
    def _state(self, index, query="//a//b"):
        return PlannerState.plan(parse_xpath(query), index)

    def test_in_band_observation_keeps_choice_and_freezes(self, index):
        state = self._state(index)
        chosen = state.choice.strategy
        stats = EvalStats()
        # An observation that matches the estimate (in model units: node
        # strategies weigh each visited node by NODE_WEIGHT).
        weight = 1.0 if chosen == "vectorized" else planner.NODE_WEIGHT
        stats.visited = max(1, int(state.choice.estimate / weight))
        for _ in range(planner.CONVERGED_RUNS):
            assert state.observe(chosen, stats) is None
        assert state.choice.strategy == chosen
        assert state.frozen

    def test_wild_observation_replans_to_observed_best(self, index):
        state = self._state(index)
        chosen = state.choice.strategy
        # Fabricate an execution 100x the estimate: far out of band.
        stats = EvalStats()
        stats.visited = int(state.choice.estimate * 100)
        switched = state.observe(chosen, stats)
        assert switched is not None and switched != chosen
        assert state.replans == 1
        assert state.choice.strategy == switched
        assert not state.frozen

    def test_observation_of_inactive_strategy_never_replans(self, index):
        state = self._state(index)
        other = next(
            n for n in state.choice.costs if n != state.choice.strategy
        )
        stats = EvalStats()
        stats.visited = 10**9
        assert state.observe(other, stats) is None

    def test_engine_level_replan_on_forced_misprediction(self, index):
        engine = Engine(index, strategy="auto")
        plan = engine.prepare("//a//b")
        state = plan.artifacts["planner"]
        # Force an absurdly tight band so the first real execution is
        # declared a misprediction and the plan re-prices itself.
        state.choice.costs[state.choice.strategy] = 10**12
        state.choice = planner.PlanChoice(
            state.choice.strategy,
            10**12,
            state.choice.costs,
            state.choice.features,
        )
        before = state.choice.strategy
        result = plan.execute()
        assert list(result.ids) == Engine(index, strategy="naive").select("//a//b")
        assert state.runs == 1
        # The observed cost replaced the inflated estimate.
        assert state.observed[before] < 10**12
        # And later executions still return oracle-identical results.
        assert list(plan.execute().ids) == list(result.ids)

    def test_snapshot_is_json_friendly(self, index):
        import json

        state = self._state(index)
        stats = EvalStats()
        stats.visited = 10
        state.observe(state.choice.strategy, stats)
        json.dumps(state.snapshot())


class TestPlanCacheEviction:
    def test_engine_plan_cache_is_lru_bounded(self, index):
        engine = Engine(index)
        engine.plan_cache_size = 4
        for i in range(10):
            engine.prepare("//a//b" + "/b" * i)
        info = engine.cache_info()["plans"]
        assert info["size"] <= 4
        assert info["evictions"] >= 6
        assert info["misses"] == 10

    def test_reprepared_plan_after_eviction_still_works(self, index):
        engine = Engine(index)
        engine.plan_cache_size = 1
        first = engine.prepare("//a//b")
        engine.prepare("//b")  # evicts the first plan
        again = engine.prepare("//a//b")
        assert again is not first
        assert again.select() == first.select()

    def test_plan_cache_hit_refreshes_recency(self, index):
        engine = Engine(index)
        engine.plan_cache_size = 2
        a = engine.prepare("//a")
        engine.prepare("//b")
        engine.prepare("//a")  # refresh 'a'
        engine.prepare("//c")  # evicts '//b', not '//a'
        assert engine.prepare("//a") is a

    def test_compiled_cache_is_bounded_and_eviction_is_transparent(self, index):
        from repro.engine.plan import COMPILED_CACHE_SIZE

        engine = Engine(index)
        queries = [f"//a[not(x{i})]//b" for i in range(2000)]
        first = engine.select(queries[0])
        for query in queries[1:]:
            engine.prepare(query)
        info = engine.cache_info()
        assert info["plans"]["size"] == engine.plan_cache_size
        assert info["compiled"]["size"] == COMPILED_CACHE_SIZE
        assert info["compiled"]["maxsize"] == COMPILED_CACHE_SIZE
        assert info["compiled"]["evictions"] == 2000 - COMPILED_CACHE_SIZE
        # The evicted query recompiles and answers as before.
        assert engine.select(queries[0]) == first
        assert engine.cache.compilations == 2001

    def test_fused_cache_is_lru_bounded(self, index):
        labels = index.labels
        labels.fused_cache_size = 3
        n_labels = len(index.tree.labels)
        import itertools

        for combo in itertools.combinations(range(n_labels), 2):
            labels.fused(list(combo))
        info = labels.cache_info()
        assert info["size"] <= 3
        assert info["evictions"] > 0
        assert info["misses"] > 0

    def test_fused_eviction_is_semantically_transparent(self, index):
        labels = index.labels
        labels.fused_cache_size = 2
        first = labels.fused([0, 1]).lst
        labels.fused([1, 2])
        labels.fused([2, 3])  # [0, 1] evicted by now
        assert labels.fused([0, 1]).lst == first

    def test_fused_cache_hits_counted(self, index):
        labels = index.labels
        base = labels.cache_info()["hits"]
        labels.fused([0, 1])
        labels.fused([0, 1])
        assert labels.cache_info()["hits"] >= base + 1

    def test_fused_cache_safe_under_thread_contention(self, index):
        # Pool threads of a QueryService drive one shard engine's index
        # concurrently; the mutating LRU must never KeyError or corrupt.
        import itertools
        import threading

        labels = index.labels
        labels.fused_cache_size = 4
        combos = list(itertools.combinations(range(len(index.tree.labels)), 2))
        errors = []

        def hammer(seed):
            try:
                for combo in combos[seed:] + combos[:seed]:
                    for _ in range(20):
                        labels.fused(list(combo))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert labels.cache_info()["size"] <= 4

    def test_label_index_with_lock_still_pickles(self, index):
        # Process-pool payloads ship shard label indexes by pickle; the
        # cache lock must not travel.
        import pickle

        index.labels.fused([0, 1])
        clone = pickle.loads(pickle.dumps(index.labels))
        assert clone.fused([0, 1]).lst == index.labels.fused([0, 1]).lst
        clone.cache_info()  # fresh lock works


class TestWorkspaceAndParallelPlanning:
    def test_workspace_cache_info_shape(self):
        ws = Workspace(strategy="auto")
        ws.add("d", XML)
        ws.select("//a//b", "d")
        info = ws.cache_info()
        assert "compiled" in info
        assert set(info["documents"]) == {"d"}
        assert info["documents"]["d"]["plans"]["size"] >= 1

    def test_auto_strategy_parallel_identity(self):
        ws = Workspace(strategy="auto")
        ws.add("d", "<r>" + "<a><b/><c><b/></c></a>" * 6 + "</r>")
        queries = ["//a//b", "//a[b]", "/r/a/c", "//b"]
        serial = ws.select_many(queries, document="d")
        parallel = ws.select_many(queries, document="d", jobs=2, shards=3)
        assert parallel == serial
        ws.close()

    def test_per_shard_plan_report(self):
        ws = Workspace(strategy="auto")
        ws.add("d", "<r>" + "<a><b/><c><b/></c></a>" * 6 + "</r>")
        service = ws.service(jobs=2, shards=3)
        report = service.plan_report("//a//b", "d")
        assert report["shardable"]
        assert len(report["shards"]) == 3
        for shard in report["shards"]:
            for entry in shard["paths"]:
                assert entry["strategy"] == "auto"
                assert entry["executes_as"] in registry.strategy_names()
        ws.close()

    def test_unshardable_plan_report(self):
        ws = Workspace(strategy="auto")
        ws.add("d", "<r>" + "<a><b/></a>" * 4 + "</r>")
        service = ws.service(jobs=2)
        report = service.plan_report("//a/following-sibling::a", "d")
        assert not report["shardable"]
        assert report["whole_document"]["strategy"] == "auto"
        ws.close()


#: Fig-4 Q01-Q15 plus five sibling / backward shapes: the query mix of
#: the ``engine-mix`` benchmark workload.
MIX20 = list(QUERIES.values()) + [
    "//listitem/following-sibling::listitem",
    "//keyword/ancestor::listitem",
    "//keyword/parent::text",
    "//keyword[ancestor::mail]",
    "//item[mailbox/mail]/following-sibling::item",
]


@pytest.fixture()
def xmark(xmark_26k):
    return xmark_26k


class TestRelevanceDrivenPricing:
    """The planner prices each step and predicate by the side the
    set-at-a-time kernels will run (26k-node XMark, the MIX20 shapes)."""

    Q15 = "/site[ .//*//* ]//keyword"

    def test_features_cap_a_predicate_at_its_first_witness_price(self, xmark):
        f = extract_features(parse_xpath(self.Q15), xmark)
        elements = f.step_candidates[0] + f.pred_candidates[0] // 2 - 1
        assert f.pred_candidates == (2 * elements, 0)  # back to front
        # One context (/site), two steps, one expansion each.
        assert f.pred_touches == (2 * frontier.WITNESS_DISPATCH, 0)
        # Thousands of contexts: back to front is what will run.
        f = extract_features(parse_xpath("//item[ .//*//* ]"), xmark)
        assert f.pred_touches == f.pred_candidates

    def test_explain_costs_reflect_the_side_that_runs(self, xmark):
        report = plan_explain(Engine(xmark, strategy="auto"), self.Q15)
        costs = report["planner"]["costs"]
        dispatch = planner.VEC_CALL * 3 * (2 + 1)  # two steps, one path
        # The two expansions of the search and a few probes: neither
        # the predicate's two passes over every element nor the
        # keyword array, which the one-window step only slices.
        assert costs["vectorized"] - dispatch == pytest.approx(
            2 * frontier.WITNESS_DISPATCH, abs=4
        )
        # One kernel under two names: a forward path is priced once.
        assert "window" not in costs
        assert report["planner"]["operators"] == ["document", "descendant/ranges"]
        assert costs["optimized"] > xmark.tree.n  # node-at-a-time still walks

    def test_parent_step_is_priced_by_the_frontier(self, xmark):
        # Same frontier, a 2k- and a 26k-element candidate array.
        text, anything = (
            estimate_costs(p, extract_features(p, xmark))["window"]
            for p in map(parse_xpath, ("//keyword/parent::text", "//keyword/parent::*"))
        )
        assert text == anything

    def test_session_converges_in_band_without_extra_replans(self, xmark):
        engine = Engine(xmark, strategy="auto")
        plans = [engine.prepare(q) for q in MIX20]
        estimates = [p.artifacts["planner"].choice.estimate for p in plans]
        for _ in range(10 + 10):
            for plan in plans:
                plan.execute()
        states = [p.artifacts["planner"] for p in plans]
        assert all(s.frozen for s in states)
        # Two at the parent commit (Q05 and Q08, vectorized -> window).
        assert sum(s.replans for s in states) <= 2
        for query, estimate, state in zip(MIX20, estimates, states):
            if state.replans or not state.observed:
                continue  # re-priced, or frozen at prepare (one candidate)
            observed = state.observed[state.choice.strategy]
            assert estimate / 4 <= observed <= estimate * 4, query

    @pytest.mark.parametrize("query", MIX20)
    def test_fixed_strategies_answer_as_auto_does(self, xmark, query):
        answers = {
            name: list(Engine(xmark, strategy=name).prepare(query).execute().ids)
            for name in ("auto", "vectorized", "window")
        }
        assert answers["vectorized"] == answers["window"] == answers["auto"]
        assert answers["auto"] == Engine(xmark, strategy="optimized").select(query)


class TestOneDecisionPath:
    """``auto`` prices at prepare, binds the cheapest, corrects by
    counters and freezes: nothing runs to be measured, nothing reads a
    clock."""

    def test_two_sessions_decide_alike_pass_by_pass(self, xmark):
        def session():
            engine = Engine(xmark, "auto")
            plans = [engine.prepare(q) for q in MIX20]
            for _ in range(6):
                for plan in plans:
                    plan.execute()
                yield [planner_fields(plan) for plan in plans]

        for first, second in zip(session(), session()):
            assert first == second

    def test_every_mix20_plan_freezes_within_five_executions(self, xmark):
        engine = Engine(xmark, "auto")
        for query in MIX20:
            plan = engine.prepare(query)
            for _ in range(5):
                plan.execute()
            assert plan.artifacts["planner"].frozen, query

    @pytest.mark.parametrize(
        "query", ["/site[.//bidder or .//mailbox]", "//africa[not(.//parlist)]"]
    )
    def test_one_counter_observation_repairs_a_mispick(self, xmark, query):
        expected = Engine(xmark, "naive").select(query)
        plan = Engine(xmark, "auto").prepare(query)
        ran_as = []
        for _ in range(5):
            ran_as.append(planner_fields(plan)["executes_as"])
            assert list(plan.execute().ids) == expected
        assert ran_as == ["optimized"] + ["vectorized"] * 4
        state = plan.artifacts["planner"]
        assert state.replans == 1 and state.frozen

    def test_describing_a_plan_prices_no_operator(self, monkeypatch, xmark):
        plan = Engine(xmark, "auto").prepare("//listitem//keyword")
        calls = []
        monkeypatch.setattr(
            joins, "plan_operator", lambda *args: calls.append(args)
        )
        assert planner_fields(plan)["planner"]["operators"] == [
            "document",
            "descendant/rank",
        ]
        assert calls == []
