"""``auto`` is the kernel (repro.engine.planner): the per-step physical
layer ``explain`` states, and the bounded caches every plan leans on
(plan-cache and fused-cache LRUs)."""

import pytest

from repro.engine import api, frontier, joins, registry
from repro.engine.api import Engine
from repro.engine.planner import (
    extract_features,
    plan_explain,
    planner_fields,
    step_operators,
)
from repro.engine.workspace import Workspace
from repro.index import labels as label_index
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


def build_index():
    return TreeIndex(BinaryTree.from_document(parse_xml(XML)))


@pytest.fixture()
def index():
    return build_index()


class TestFeatureExtraction:
    def test_basic_features(self, index):
        f = extract_features(parse_xpath("//a/b[.//c]"), index)
        assert f.n == index.tree.n
        assert len(f.axes) == 2
        assert f.axes == ("descendant", "child")
        # Candidate sizes come straight from the label-index lengths.
        assert f.step_candidates == (
            index.labels.count("a"),
            index.labels.count("b"),
        )
        assert f.pred_touches == (0, index.labels.count("c"))

    def test_wildcards_and_node_test(self, index):
        f = extract_features(parse_xpath("//*/node()"), index)
        assert f.step_candidates[1] == index.tree.n
        assert f.step_candidates[0] == index.tree.n  # element-only doc

    def test_encoded_document_predicate(self):
        tree = BinaryTree.from_document(
            parse_xml('<r a="1"/>'), encode_attributes=True
        )
        index = TreeIndex(tree)
        f = extract_features(parse_xpath("//r[@a]"), index)
        assert f.pred_touches == (1,)  # the one @a node

    def test_height_computed_and_cached(self, index):
        h = index.tree.height()
        assert h == index.tree._height
        by_loop = max(index.tree.depth(v) for v in range(index.tree.n))
        assert h == by_loop


class TestPlannerStrategy:
    def test_auto_registered_and_default_listed_first(self):
        assert "auto" in registry.strategy_names()
        assert registry.describe_strategies()[0][0] == "auto"

    @pytest.mark.parametrize("qid", ["Q05", "Q11"])
    def test_wide_descendant_queries_stay_set_at_a_time(self, xmark_index, qid):
        # The forward queries with the widest candidate sets of the
        # fig-4 mix run on the kernel, like every other query.
        verdict = plan_explain(Engine(xmark_index, strategy="auto"), QUERIES[qid])
        assert verdict["executes_as"] == "window", verdict

    def test_backward_axes_run_on_the_kernel(self, index):
        # The kernel evaluates backward axes natively: no mixed
        # fallback, no per-plan state, no rebound dispatch.
        engine = Engine(index, strategy="auto")
        plan = engine.prepare("//b/parent::a")
        assert plan.strategy.name == "auto"
        assert planner_fields(plan) == {"executes_as": "window"}
        assert list(plan.artifacts) == ["kernel"]  # the bound program only
        assert plan._execute_impl == plan.strategy.execute

    def test_results_match_oracle(self, index):
        auto = Engine(index, strategy="auto")
        naive = Engine(index, strategy="naive")
        for q in ("//a//b", "//a[.//b]", "/site/*", "//c/following-sibling::b"):
            assert auto.select(q) == naive.select(q), q

    def test_plan_explain_surface(self, index):
        engine = Engine(index, strategy="auto")
        verdict = plan_explain(engine, "//a//b")
        assert verdict == {
            "query": "//a//b",
            "strategy": "auto",
            "executes_as": "window",
            "operators": ["document", "descendant/rank"],
            "nodes": index.tree.n,
        }

    def test_explain_says_what_executes(self, index):
        engine = Engine(index, strategy="auto")
        lines = engine.explain("//a//b").splitlines()
        assert lines[:2] == ["strategy: auto", "executes as: window"]
        assert "descendant/rank" in lines[4] and "touches" in lines[4]
        assert "planner" not in "\n".join(lines)


class TestPlanCacheEviction:
    def test_engine_plan_cache_is_lru_bounded(self, index, monkeypatch):
        monkeypatch.setattr(api, "PLAN_CACHE_SIZE", 4)
        engine = Engine(index)
        for i in range(10):
            engine.prepare("//a//b" + "/b" * i)
        info = engine.cache_info()["plans"]
        assert info["size"] <= 4
        assert info["evictions"] >= 6
        assert info["misses"] == 10

    def test_reprepared_plan_after_eviction_still_works(self, index, monkeypatch):
        monkeypatch.setattr(api, "PLAN_CACHE_SIZE", 1)
        engine = Engine(index)
        first = engine.prepare("//a//b")
        engine.prepare("//b")  # evicts the first plan
        again = engine.prepare("//a//b")
        assert again is not first
        assert again.select() == first.select()

    def test_plan_cache_hit_refreshes_recency(self, index, monkeypatch):
        monkeypatch.setattr(api, "PLAN_CACHE_SIZE", 2)
        engine = Engine(index)
        a = engine.prepare("//a")
        engine.prepare("//b")
        engine.prepare("//a")  # refresh 'a'
        engine.prepare("//c")  # evicts '//b', not '//a'
        assert engine.prepare("//a") is a

    def test_compiled_cache_is_bounded_and_eviction_is_transparent(self, index):
        from repro.engine.plan import COMPILED_CACHE_SIZE

        # An automaton strategy: the kernel compiles nothing to evict.
        engine = Engine(index, strategy="optimized")
        queries = [f"//a[not(x{i})]//b" for i in range(2000)]
        first = engine.select(queries[0])
        for query in queries[1:]:
            engine.prepare(query)
        info = engine.cache_info()
        assert info["plans"]["size"] == api.PLAN_CACHE_SIZE
        assert info["compiled"]["size"] == COMPILED_CACHE_SIZE
        assert info["compiled"]["maxsize"] == COMPILED_CACHE_SIZE
        assert info["compiled"]["evictions"] == 2000 - COMPILED_CACHE_SIZE
        # The evicted query recompiles and answers as before.
        assert engine.select(queries[0]) == first
        assert engine.cache.compilations == 2001

    def test_fused_cache_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(label_index, "FUSED_CACHE_SIZE", 3)
        index = build_index()
        labels = index.labels
        n_labels = len(index.tree.labels)
        import itertools

        for combo in itertools.combinations(range(n_labels), 2):
            labels.fused(list(combo))
        info = labels.cache_info()
        assert info["size"] <= 3
        assert info["evictions"] > 0
        assert info["misses"] > 0

    def test_fused_eviction_is_semantically_transparent(self, monkeypatch):
        monkeypatch.setattr(label_index, "FUSED_CACHE_SIZE", 2)
        labels = build_index().labels
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

    def test_fused_cache_safe_under_thread_contention(self, monkeypatch):
        # Pool threads of a QueryService drive one engine's index
        # concurrently; the mutating LRU must never KeyError or corrupt.
        import itertools
        import threading

        monkeypatch.setattr(label_index, "FUSED_CACHE_SIZE", 4)
        index = build_index()
        labels = index.labels
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
        # Process-pool payloads ship label indexes by pickle; the cache
        # lock must not travel.
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
        parallel = ws.select_many(queries, document="d", jobs=2)
        assert parallel == serial
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
    """The 26k-node document under an index of its own: no path summary,
    whatever other tests ran on the shared one."""
    return TreeIndex(xmark_26k.tree, xmark_26k.labels)


class TestRelevanceDrivenPricing:
    """``explain`` states each step and predicate by the side the
    set-at-a-time kernel will run (26k-node XMark, the MIX20 shapes)."""

    Q15 = "/site[ .//*//* ]//keyword"

    def test_features_cap_a_predicate_at_its_first_witness_price(self, xmark):
        path = parse_xpath(self.Q15)
        f = extract_features(path, xmark)
        # One context (/site), two steps, one expansion each: not the
        # two passes over every element of the back-to-front side.
        bound = frontier.bind(path, xmark).steps[0].predicate
        back_to_front = frontier.pred_size(xmark, bound)
        assert back_to_front == 2 * xmark.tree.n
        assert f.pred_touches == (2 * frontier.WITNESS_DISPATCH, 0)
        # Thousands of contexts: back to front is what will run.
        f = extract_features(parse_xpath("//item[ .//*//* ]"), xmark)
        assert f.pred_touches == (back_to_front,)

    def test_parent_step_is_priced_by_both_sizes(self, xmark):
        # Same frontier against as many ``text`` candidates and against
        # every element: marks, then the parents gathered.
        text, anything = (
            step_operators(extract_features(p, xmark))[1]
            for p in map(parse_xpath, ("//keyword/parent::text", "//keyword/parent::*"))
        )
        keywords = xmark.labels.count("keyword")
        assert text == ("parent/mark", keywords + xmark.labels.count("text"))
        assert anything == ("parent/gather", keywords)

    @pytest.mark.parametrize("query", MIX20)
    def test_fixed_strategies_answer_as_auto_does(self, xmark, query):
        answers = {
            name: list(Engine(xmark, strategy=name).prepare(query).execute().ids)
            for name in ("auto", "vectorized", "window")
        }
        assert answers["vectorized"] == answers["window"] == answers["auto"]
        assert answers["auto"] == Engine(xmark, strategy="optimized").select(query)


class TestOneDecisionPath:
    """``auto`` decides nothing per plan: what an envelope says of a
    plan is a constant of its strategy."""

    def test_describing_a_plan_prices_no_operator(self, monkeypatch, xmark):
        engine = Engine(xmark, "auto")
        plan = engine.prepare("//listitem//keyword")
        assert plan_explain(engine, plan.query)["operators"] == [
            "document",
            "descendant/rank",
        ]
        calls = []
        monkeypatch.setattr(
            joins, "plan_operator", lambda *args: calls.append(args)
        )
        assert planner_fields(plan) == {"executes_as": "window"}
        assert calls == []
