"""Relevance-driven kernels of the set-at-a-time strategies: the
context-side joins (``repro.engine.joins``) and first-witness predicates
(``repro.engine.frontier``), one kernel under both registry names.

Both are chosen from array sizes, so the tests here run at sizes where
each side is actually taken -- a 30k-node synthetic document for the
property test, XMark for the counters -- and say which side ran."""

import random

import numpy as np
import pytest

from repro.counters import EvalStats
from repro.engine import frontier, joins
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.ast import Axis
from repro.xpath.parser import parse_xpath

import oracle_sqlite
from strategies import kernel_as, random_document, random_predicate

SEED = 0xF1257

STRATEGIES = ["vectorized", "window"]


@pytest.fixture(scope="module")
def big_xml():
    """``<a>`` over six sections of 400 fuzz documents each: one root,
    a handful of sections, thousands of nodes per label."""
    rng = random.Random(SEED)
    sections = "".join(
        f"<{label}>"
        + "".join(random_document(rng) for _ in range(400))
        + f"</{label}>"
        for label in "bcdbcd"
    )
    return f"<a>{sections}</a>"


@pytest.fixture(scope="module")
def big_index(big_xml):
    return TreeIndex(BinaryTree.from_xml(big_xml))


@pytest.fixture()
def xmark(xmark_26k):
    return xmark_26k


@pytest.fixture()
def calls(monkeypatch):
    """How each relative predicate path was decided: ``"witness"`` (the
    searches answered), ``"gave up"`` (they spent their budget) or
    ``"back to front"``, each with its context count."""
    log = []
    searches, match_set = frontier._first_witnesses, frontier._match_set

    def spy_searches(index, steps, nodes, *rest):
        mask = searches(index, steps, nodes, *rest)
        log.append(("gave up" if mask is None else "witness", nodes.size))
        return mask

    def spy_match_set(*args):
        log.append(("back to front", None))
        return match_set(*args)

    monkeypatch.setattr(frontier, "_first_witnesses", spy_searches)
    monkeypatch.setattr(frontier, "_match_set", spy_match_set)
    return log


#: Contexts of one node, a handful, and thousands, for one predicate.
CONTEXTS = ("/a[{}]", "/a/*[{}]", "//*[{}]")


class TestPredicatesAgainstTheOracle:
    """Seeded predicates of the fuzz grammar -- true and false, nested,
    negated, and/or-mixed, (window) backward -- behind 1 / 6 / ~30k
    context nodes, both strategies against the sqlite oracle."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_predicates(self, big_xml, big_index, calls, strategy):
        rng = random.Random(SEED + 1)
        selected = {shape: set() for shape in CONTEXTS}
        for _ in range(40):
            pred = random_predicate(rng, pred_depth=3, following=True)
            for shape in CONTEXTS:
                query = shape.format(pred)
                path = parse_xpath(query)
                expected = oracle_sqlite.select(big_xml, query)
                assert kernel_as(strategy, path, big_index) == (
                    bool(expected),
                    expected,
                ), query
                selected[shape].add(len(expected))
        # True and false predicates behind every context size ...
        one, handful, thousands = (selected[shape] for shape in CONTEXTS)
        assert one == {0, 1}
        assert {0, 6} <= handful
        assert min(thousands) < 1000 and max(thousands) > 10_000
        # ... the small ones searched per context node, the large one
        # never: it is built back to front.
        sizes = {n for how, n in calls if how == "witness"}
        assert 1 in sizes and 6 in sizes and max(sizes) < 100
        assert ("back to front", None) in calls

    def test_backward_predicates_stay_native(self, big_xml, big_index, calls):
        rng = random.Random(SEED + 2)
        for _ in range(30):
            pred = random_predicate(rng, window=True)
            for shape in CONTEXTS[1:]:  # the root has no ancestors
                query = shape.format(pred)
                path = parse_xpath(query)
                expected = oracle_sqlite.select(big_xml, query)
                assert kernel_as("window", path, big_index)[1] == expected, query
        assert {how for how, _ in calls} >= {"witness", "back to front"}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_searches_that_give_up_still_answer(self, big_index, calls, strategy):
        # Thirteen levels of '*' under a document seven deep: false, but
        # found out only by exhausting level after level.
        query = "/a[" + "/".join([".//*"] + ["*"] * 12) + "]"
        assert kernel_as(strategy, parse_xpath(query), big_index) == (False, [])
        assert calls[0] == ("gave up", 1)
        assert calls[1] == ("back to front", None)


class TestLongPaths:
    """``/a[b/b/.../b]`` over a chain 3,000 deep: neither direction may
    recurse per step."""

    DEPTH = 3000

    def _case(self, missing):
        nested = self.DEPTH - missing
        xml = "<a>" + "<b>" * nested + "</b>" * nested + "</a>"
        query = "/a[" + "/".join(["b"] * self.DEPTH) + "]"
        index = TreeIndex(BinaryTree.from_xml(xml))
        return parse_xpath(query), index, [] if missing else [0]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("missing", [0, 1])
    def test_front_to_back(self, monkeypatch, calls, strategy, missing):
        # 3,000 expansions outprice the 3,000 candidates, so the search
        # has to be asked for.
        monkeypatch.setattr(
            frontier, "_witness_budget", lambda index, steps, contexts: 10**12
        )
        path, index, expected = self._case(missing)
        assert kernel_as(strategy, path, index)[1] == expected
        assert calls == [("witness", 1)]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("missing", [0, 1])
    def test_back_to_front(self, calls, strategy, missing):
        path, index, expected = self._case(missing)
        assert kernel_as(strategy, path, index)[1] == expected
        assert calls == [("back to front", None)]


class TestShortCircuit:
    XML = "<r><a><b/><c/></a><a><b/></a><a><c/></a><a/><a><b/><c/></a></r>"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "query,open_nodes,selected",
        [("/r/a[b and c]", 3, 2), ("/r/a[b or c]", 2, 4), ("/r/a[x and c]", None, 0)],
    )
    def test_right_operand_sees_only_open_nodes(
        self, monkeypatch, strategy, query, open_nodes, selected
    ):
        index = TreeIndex(BinaryTree.from_xml(self.XML))
        seen = {}
        successor = frontier.successor_mask

        def spy(index_, axis, nodes, targets, key, stats):
            if targets.size:
                seen[index_.tree.label(int(targets[0]))] = nodes.size
            return successor(index_, axis, nodes, targets, key, stats)

        monkeypatch.setattr(frontier, "successor_mask", spy)
        _, ids = kernel_as(strategy, parse_xpath(query), index)
        assert len(ids) == selected
        assert seen.get("c") == open_nodes  # None: never evaluated


class TestCounters:
    """On XMark (26k nodes): what the relevant-node kernels book."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_first_witness_books_hundreds_not_the_document(self, xmark, strategy):
        stats = EvalStats()
        assert xmark.tree.n > 20_000
        path = parse_xpath("/site[ .//*//* ]")
        accepted, _ = kernel_as(strategy, path, xmark, stats)
        assert accepted
        assert stats.visited + stats.index_probes < 1000

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize(
        "pred",
        [
            ".//keyword//item",
            ".//listitem//person",
            ".//*//site",
            "regions/*/item/mailbox/mail/bidder",
            ".//*/*/*/*/*/*/*/*/*/*/*/*/*/*",
        ],
    )
    def test_false_predicate_books_at_most_twice_back_to_front(
        self, monkeypatch, xmark, strategy, pred
    ):
        path = parse_xpath(f"/site[ {pred} ]")
        chunked = EvalStats()
        assert kernel_as(strategy, path, xmark, chunked) == (False, [])
        monkeypatch.setattr(frontier, "WITNESS_DISPATCH", 10**9)
        whole = EvalStats()
        assert kernel_as(strategy, path, xmark, whole) == (False, [])
        assert chunked.visited + chunked.index_probes <= 2 * (
            whole.visited + whole.index_probes
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_context_side_join_books_its_windows(self, xmark, strategy):
        keywords = xmark.labels.count("keyword")
        stats = EvalStats()
        _, ids = kernel_as(strategy, parse_xpath("/site//keyword"), xmark, stats)
        assert len(ids) == stats.selected == keywords
        # One window: two bounds searched, a view returned, no element
        # of the keyword array touched by the join.
        assert stats.index_probes == 2
        assert stats.visited <= 1

    def test_context_side_join_books_what_it_copies(self, xmark):
        stats = EvalStats()
        regions = xmark.labels.union(xmark.node_test(Axis.CHILD, "regions")[0])
        continents = xmark.parent_array()
        continents = np.flatnonzero(continents == regions[0])
        key = xmark.node_test(Axis.DESCENDANT, "keyword")[0]
        cand = xmark.labels.union(key)
        out = joins.join(xmark, Axis.DESCENDANT, cand, key, continents, None, stats)
        assert continents.size == 6 and out.size
        assert stats.index_probes == 12
        assert stats.visited == out.size

    def test_candidate_side_join_books_the_candidates(self, xmark):
        stats = EvalStats()
        src = xmark.node_test(Axis.DESCENDANT, "text")[0]
        key = xmark.node_test(Axis.DESCENDANT, "keyword")[0]
        texts, cand = xmark.labels.union(src), xmark.labels.union(key)
        out = joins.join(xmark, Axis.DESCENDANT, cand, key, texts, src, stats)
        assert out.size == cand.size  # keywords only occur in running text
        # Every candidate read, each located in the texts' (cached) rank
        # column and held against that one text's range end.
        assert stats.visited == cand.size
        assert stats.index_probes == 2 * cand.size


def test_searches_stop_at_their_budget(xmark):
    path = frontier.bind(parse_xpath("/x[.//keyword//item]"), xmark)
    steps = path.steps[0].predicate.path.steps
    site = np.zeros(1, dtype=np.int64)
    assert frontier._first_witnesses(xmark, steps, site, 0, EvalStats()) is None
    mask = frontier._first_witnesses(xmark, steps, site, 10**9, EvalStats())
    assert mask.tolist() == [False]
