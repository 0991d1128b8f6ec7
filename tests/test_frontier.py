"""The set-at-a-time vectorized evaluator (repro.engine.frontier)."""

import numpy as np
import pytest

from repro.engine import frontier, joins
from repro.engine.api import Engine
from repro.engine.registry import get_strategy, resolve
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xpath.parser import parse_xpath

import oracle_sqlite
from strategies import run_as

XML = (
    "<site>"
    "<a><x/><b/><c><b/><d/></c></a>"
    "<b><a><b/></a></b>"
    "<keyword/>"
    "<listitem><text><keyword><emph/></keyword></text></listitem>"
    "</site>"
)

QUERIES = [
    "/site",
    "/site/a/b",
    "//b",
    "//a//b",
    "//*",
    "//node()",
    "/site/*/b",
    "//a[b]",
    "//a[.//b and c]",
    "//a[not(b)]",
    "//b[not(.//a) or x]",
    "//c/following-sibling::b",
    "/site/a/b/following-sibling::node()",
    "//listitem[.//keyword and .//emph]",
    "//a[/site/keyword]",
    "//missing",
    "//a[missing]",
    "//keyword[.]",
]


@pytest.fixture(scope="module")
def index():
    return TreeIndex(BinaryTree.from_document(parse_xml(XML)))


class TestOracleIdentity:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_the_oracle(self, index, query):
        path = parse_xpath(query)
        expected = oracle_sqlite.select(XML, query)
        accepted, got = run_as("vectorized", path, index)
        assert got == expected
        assert accepted == bool(expected)

    def test_matches_the_oracle_on_encoded_doc(self):
        xml = '<r a="1"><x b="2">text</x><y>more</y></r>'
        encode = dict(encode_attributes=True, encode_text=True)
        index = TreeIndex(BinaryTree.from_document(parse_xml(xml), **encode))
        for query in (
            "//x[@b]",
            "/r[@a]/x",
            "//@b",
            "//x/text()",
            "//*",
            "//node()",
            "/r/*[text()]",
        ):
            _, got = run_as("vectorized", parse_xpath(query), index)
            assert got == oracle_sqlite.select(xml, query, **encode), query

    def test_degenerate_single_node_document(self):
        index = TreeIndex(BinaryTree.from_spec("r"))
        assert run_as("vectorized", "/r", index) == (True, [0])
        assert run_as("vectorized", "/x", index) == (False, [])
        assert run_as("vectorized", "//r[x]", index) == (False, [])

    def test_fig4_mix_on_xmark(self, xmark_xml, xmark_index):
        from repro.xmark.queries import QUERIES as FIG4

        for qid, query in FIG4.items():
            expected = oracle_sqlite.select(xmark_xml, query)
            _, got = run_as("vectorized", query, xmark_index)
            assert got == expected, qid

    def test_results_sorted_and_unique(self, index):
        _, ids = run_as("vectorized", "//a//b", index)
        assert ids == sorted(set(ids))
        assert all(isinstance(v, int) for v in ids)


class TestFragment:
    def test_supports_forward_absolute_only(self):
        strategy = get_strategy("vectorized")
        assert strategy.supports(parse_xpath("//a//b[c]"))
        assert strategy.supports(parse_xpath("/a/following-sibling::b"))
        assert not strategy.supports(parse_xpath("//a/parent::b"))
        assert not strategy.supports(parse_xpath("a/b"))  # relative

    def test_backward_axes_resolve_through_fallback(self):
        assert resolve("vectorized", parse_xpath("//a/parent::b")).name == "mixed"

    def test_relative_path_resolves_to_optimized(self):
        assert resolve("vectorized", parse_xpath("a/b")).name == "optimized"

    def test_engine_integration(self, index):
        engine = Engine(index, strategy="vectorized")
        assert engine.select("//a//b") == [3, 5, 9]
        plan = engine.prepare("//a//b")
        assert plan.strategy.name == "vectorized"
        # Backward axes silently route through the mixed pipeline.
        mixed_plan = engine.prepare("//b/parent::a")
        assert mixed_plan.strategy.name == "mixed"


class TestCounters:
    """Counters of one kernel run on a fresh index, which no earlier
    run has given its path summary."""

    @pytest.fixture()
    def index(self):
        return TreeIndex(BinaryTree.from_document(parse_xml(XML)))

    def test_visited_counts_array_element_touches(self, index):
        stats = EvalStats()
        _, ids = frontier.run_kernel(parse_xpath("//b"), index, stats)
        # One candidate pass over the 'b' array: every element touched.
        assert stats.visited == index.labels.count("b")
        assert stats.selected == len(ids)
        assert stats.jumps >= 1

    def test_probes_count_batched_searches(self, index):
        stats = EvalStats()
        frontier.run_kernel(parse_xpath("//a/b"), index, stats)
        assert stats.index_probes > 0

    def test_predicate_candidates_are_counted(self, index):
        plain, with_pred = EvalStats(), EvalStats()
        frontier.run_kernel(parse_xpath("//a"), index, plain)
        frontier.run_kernel(parse_xpath("//a[.//b]"), index, with_pred)
        assert with_pred.visited > plain.visited


class TestVectorizedPrimitives:
    def test_staircase_prunes_nested_ranges(self, index):
        fr = np.asarray([1, 3, 4], dtype=np.int64)  # 3,4 nested under... check
        # node 1 subtree is [1,7): nodes 3 and 4 are nested, pruned.
        assert joins.staircase(index, fr).tolist() == [1]

    def test_empty_mark_bitmap_has_no_members(self, index):
        bitmap = index.mark(np.empty(0, dtype=np.int64))
        assert bitmap.size == index.tree.n + 2 and not bitmap.any()
        # parent == -1 reads the spare last slot, never set.
        assert not index.mark(np.arange(index.tree.n))[-1]

    def test_candidates_wildcard_excludes_encoded(self):
        tree = BinaryTree.from_document(
            parse_xml('<r a="1">x</r>'),
            encode_attributes=True,
            encode_text=True,
        )
        index = TreeIndex(tree)
        from repro.xpath.ast import Axis

        star = index.labels.union(index.node_test(Axis.CHILD, "*")[0])
        everything = index.labels.union(
            index.node_test(Axis.CHILD, "node()")[0]
        )
        assert star.tolist() == [0]
        assert everything.tolist() == [0, 1, 2]
