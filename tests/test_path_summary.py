"""The path summary (``TreeIndex.path_summary``, ``PathSummary``): rooted
runs of child and descendant steps answered from it
(``joins.summary_run``), and the forward and upward predicate paths it
decides (``frontier.Decided``), against the joins they replace, every
kernel name, ``optimized``, the independent sqlite oracle and thread and
pool execution; the trie itself against a brute force; when it is built
(once the joins it would replace have booked ``n`` touches); and what it
costs on hostile shapes."""

from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_sqlite import SqliteOracle
from repro.counters import EvalStats
from repro.engine import frontier
from repro.engine.api import Engine
from repro.engine.parallel import QueryService
from repro.engine.planner import explain_fields, plan_explain
from repro.engine.workspace import Workspace
from repro.index.jumping import PathSummary, TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.ast import Axis
from repro.xpath.parser import parse_xpath
from strategies import LABELS, random_document, random_predicate, tree_specs
from test_independent_oracle import ENCODINGS, LATE_TEXT

SEED = 0x5A77
STRATEGIES = ("auto", "window", "vectorized", "optimized")
DOWN = ("/{}", "//{}")
UP = ("/parent::{}", "/ancestor::{}")
FURTHER = ("/{}", "//{}", "/following-sibling::{}", "/parent::{}", "/ancestor::{}")


def fresh(index):
    """``index``'s document under a new index: no summary, no rent paid."""
    return TreeIndex(index.tree, index.labels)


def summarized(index):
    """``index``'s document under a new index whose summary is built."""
    on = fresh(index)
    assert on.path_summary(on.tree.n) is not None
    return on


def rooted_labels(tree, v):
    """The labels from the root down to ``v``, by walking ``parent``."""
    path = []
    while v != -1:
        path.append(tree.label(v))
        v = tree.parent[v]
    return tuple(reversed(path))


def _test(rng, label):
    if label == "#text":
        return rng.choice(("text()", "node()"))
    return rng.choice(("*", "node()")) if rng.random() < 0.25 else label


def rooted_run(rng, tree, tests):
    """1-4 downward steps from the document node.  Most spell a subset of
    some node's rooted labels, in order -- ``/`` between neighbours,
    ``//`` across a gap -- so that they match something."""
    v = rng.randrange(tree.n)
    while tree.label(v).startswith("@"):
        v = tree.parent[v]
    labels = rooted_labels(tree, v)
    if rng.random() < 0.2:
        return [
            rng.choice(DOWN).format(rng.choice(tests))
            for _ in range(rng.randint(1, 3))
        ]
    gaps = range(len(labels) - 1)
    keep = sorted(rng.sample(gaps, min(len(gaps), rng.randint(0, 3))))
    steps, previous = [], -1
    for i in keep + [len(labels) - 1]:
        steps.append(("/" if i == previous + 1 else "//") + _test(rng, labels[i]))
        previous = i
    return steps


def one_way(rng, tests, up):
    """A relative predicate path the summary decides: 1-2 steps, all
    downward or all upward."""
    if up:
        first = rng.choice(("parent::{}", "ancestor::{}", ".."))
        return first.format(rng.choice(tests)) + "".join(
            rng.choice(UP).format(rng.choice(tests)) for _ in range(rng.randint(0, 1))
        )
    first = rng.choice(("{}", ".//{}")).format(rng.choice(tests))
    return first + "".join(
        rng.choice(DOWN).format(rng.choice(tests)) for _ in range(rng.randint(0, 1))
    )


def summary_predicate(rng, tests, attributes, text, depth=0):
    """Downward and upward one-way paths, and the fuzz grammar's own
    predicates (siblings, nesting), under and / or / not."""
    r = rng.random()
    if depth < 2 and r < 0.2:
        left = summary_predicate(rng, tests, attributes, text, depth + 1)
        right = summary_predicate(rng, tests, attributes, text, depth + 1)
        return f"{left} {rng.choice(('and', 'or'))} {right}"
    if depth < 2 and r < 0.3:
        return f"not({summary_predicate(rng, tests, attributes, text, depth + 1)})"
    if attributes and r < 0.35:
        return "@" + rng.choice(("id", "x", "y"))
    if r < 0.6:
        return one_way(rng, tests, up=False)
    if r < 0.85:
        return one_way(rng, tests, up=True)
    return random_predicate(rng, attributes=attributes, text=text, following=True)


def summary_queries(rng, tree, attributes, text, count):
    """``count`` queries: a rooted run, a predicate on one of its steps
    most of the time, then up to two further steps of every axis."""
    tests = list(LABELS) + ["*", "node()"] + (["text()"] if text else [])
    queries = []
    for _ in range(count):
        steps = rooted_run(rng, tree, tests)
        if rng.random() < 0.7:
            i = rng.randrange(len(steps))
            steps[i] += f"[{summary_predicate(rng, tests, attributes, text)}]"
        for _ in range(rng.choice((0, 0, 1, 2))):
            steps.append(rng.choice(FURTHER).format(rng.choice(tests)))
        queries.append("".join(steps))
    return queries


def documents():
    """Grammar documents of every encode-flag combination, and the
    mixed-content document the streaming builder cannot encode online."""
    rng = random.Random(SEED)
    for attributes, text in ENCODINGS:
        for _ in range(5):
            xml = ""
            while xml.count("<") < 12:  # three levels, most of the time
                xml = random_document(
                    rng, max_depth=5, attributes=attributes, text=text
                )
            yield xml, attributes, text
        yield LATE_TEXT, attributes, text


CASES = list(documents())
QUERIES_PER_DOCUMENT = 24


def _index(case):
    xml, attributes, text = case
    return Engine(xml, encode_attributes=attributes, encode_text=text).index


@pytest.fixture(scope="module")
def services():
    """One workspace of every case, its summary built, and a thread and a
    pool service over it.  Pool workers rebuild each index from the
    shipped document, so theirs start without a summary and pay toward
    it as the batch runs."""
    workspace = Workspace()
    for i, case in enumerate(CASES):
        workspace.add(f"doc{i}", summarized(_index(case)))
    thread = QueryService(workspace, jobs=2, executor="thread")
    pool = QueryService(workspace, jobs=2, executor="pool")
    yield workspace, thread, pool
    pool.close()
    thread.close()
    workspace.close()


@pytest.mark.parametrize(
    "i", range(len(CASES)),
    ids=[f"doc{i}-attr{int(a)}-text{int(t)}" for i, (_, a, t) in enumerate(CASES)],
)
def test_summary_answers_what_the_joins_answer(services, i):
    workspace, thread, pool = services
    xml, attributes, text = CASES[i]
    on = workspace.engine(f"doc{i}").index
    off = fresh(on)
    oracle = SqliteOracle(xml, encode_attributes=attributes, encode_text=text)
    engines = {name: Engine(on, strategy=name) for name in STRATEGIES}
    rng = random.Random(f"{xml}{attributes}{text}")  # str seeds are stable
    queries = summary_queries(rng, on.tree, attributes, text, QUERIES_PER_DOCUMENT)
    expected = {query: oracle.select(query) for query in queries}
    decided = runs = 0
    for query in queries:
        path = parse_xpath(query)
        joined = frontier.run_kernel(path, off, None)[1].tolist()
        assert joined == expected[query], query
        program = frontier.bind(path, on)
        runs += program.steps[0].rooted is not None
        # A predicate path the summary decides is wrapped, or folded away.
        bound = repr(program)
        decided += "Decided" in bound or bound.count("PredPath") < repr(path).count(
            "PredPath"
        )
        assert frontier.run_kernel(path, on, None)[1].tolist() == expected[query], query
        for name, engine in engines.items():
            assert engine.select(query) == expected[query], (name, query)
    assert off.path_summary() is None  # the joins above paid no rent
    for name, service in (("thread", thread), ("pool", pool)):
        assert service.select_many(queries, f"doc{i}") == expected, name
    assert runs >= 4 and decided >= 4, (runs, decided)


# -- the summary itself ------------------------------------------------------


def _brute_force(tree):
    """Rooted label path per node, by walking ``parent``."""
    return [rooted_labels(tree, v) for v in range(tree.n)]


@given(tree_specs(max_depth=6))
@settings(max_examples=150, deadline=None)
def test_summary_names_each_rooted_label_path_once_in_preorder(spec):
    tree = BinaryTree.from_spec(spec)
    summary = PathSummary(TreeIndex(tree))
    paths = _brute_force(tree)
    m = summary.label.size - 1
    ids = {}
    for v, labels in enumerate(paths):
        p = int(summary.pid[v])
        assert ids.setdefault(labels, p) == p
        assert summary.label[p] == tree.label_ids[labels[-1]]
        assert summary.parent[p] == (summary.pid[tree.parent[v]] if v else m)
    assert sorted(ids.values()) == list(range(m))  # one id per path
    spelled = {p: labels for labels, p in ids.items()}
    for p, labels in spelled.items():
        below = {q for q, other in spelled.items() if other[: len(labels)] == labels}
        assert below == set(range(p, summary.end[p]))  # a preorder range
    assert summary.count.tolist() == [paths.count(spelled[p]) for p in range(m)] + [0]


@given(spec=tree_specs(max_depth=6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_step_over_paths_is_the_step_over_their_nodes(spec, data):
    """What one step of each axis reaches from the nodes of a set of
    paths, read off ``parent`` / ``xml_end``, is what
    :meth:`PathSummary.step` reaches from the paths."""
    tree = BinaryTree.from_spec(spec)
    summary = PathSummary(TreeIndex(tree))
    m = summary.label.size - 1
    chosen = data.draw(st.sets(st.integers(0, m - 1)))
    paths = np.zeros(m + 1, dtype=bool)
    paths[list(chosen)] = True
    pid, parent, end = summary.pid, tree.parent, tree.xml_end
    related = {
        Axis.CHILD: lambda u, v: parent[v] == u,
        Axis.PARENT: lambda u, v: parent[u] == v,
        Axis.DESCENDANT: lambda u, v: u < v < end[u],
        Axis.ANCESTOR: lambda u, v: v < u < end[v],
    }
    for axis, rel in related.items():
        reached = {
            int(pid[v])
            for u in range(tree.n)
            if pid[u] in chosen
            for v in range(tree.n)
            if rel(u, v)
        }
        assert set(np.flatnonzero(summary.step(axis, paths))) == reached, axis


# -- when it is built --------------------------------------------------------


def test_a_one_shot_cold_query_builds_no_summary(xmark_26k):
    """What ``ingest-sync``'s cold read does to each document: one
    ``//listitem//keyword`` on a fresh index.  Its joins book less than
    ``n`` touches, so no summary is built -- nor by one pass of other
    shapes it would decide."""
    index = fresh(xmark_26k)
    for query in ("//listitem//keyword", "/site//keyword", "/site[ .//keyword ]"):
        assert Engine(index).count(query)
        assert index.path_summary() is None, query


def test_repeated_executes_build_the_summary_and_the_plan_rebinds(xmark_26k):
    index = fresh(xmark_26k)
    engine = Engine(index)
    plan = engine.prepare("//listitem//keyword")
    expected = plan.execute().ids
    assert explain_fields(plan)["operators"] == ["document", "descendant/rank"]
    runs = 1
    while index.path_summary() is None:
        assert plan.artifacts[frontier.PROGRAM][2]  # renting: pays per run
        assert plan.execute().ids == expected
        runs += 1
    # The joins' touches, n in all, paid for it: a handful of runs.
    stats = EvalStats()
    frontier.run_kernel(plan.path, fresh(index), stats)
    assert runs == -(-index.tree.n // (stats.visited + stats.index_probes))
    # The next execute binds again, to the summary, and explain says so.
    assert explain_fields(plan)["operators"] == ["path/summary"] * 2
    assert plan.execute().ids == expected
    _, program, renting = plan.artifacts[frontier.PROGRAM]
    assert not renting and program.steps[0].rooted is not None
    # A fresh plan binds to it at prepare.
    assert engine.prepare("/site//keyword").artifacts[frontier.PROGRAM][2] is False


def test_joins_the_summary_would_not_replace_pay_no_rent(xmark_26k):
    index = fresh(xmark_26k)
    plan = Engine(index).prepare("//keyword/parent::text")
    assert not frontier.summarizable(plan.path)
    for _ in range(50):
        plan.execute()
    assert index.path_summary() is None


# -- what it answers, and what that books ------------------------------------


def test_an_all_matching_run_answers_the_candidate_array_itself(xmark_26k):
    on = summarized(xmark_26k)
    for query, label in (
        ("/site/regions/*/item", "item"),
        ("/site//keyword", "keyword"),
    ):
        stats = EvalStats()
        _, ids = frontier.run_kernel(parse_xpath(query), on, stats)
        candidates = on.labels.nodes_array(label)
        assert ids is candidates and ids.dtype == np.int64
        # One jump to resolve the candidates, nothing probed: bind
        # found every path of that label reached.
        assert (stats.jumps, stats.visited, stats.index_probes) == (1, 0, 0)
        assert stats.selected == candidates.size


def test_a_partial_run_probes_each_candidate_once(xmark_26k):
    on = summarized(xmark_26k)
    stats = EvalStats()
    _, ids = frontier.run_kernel(parse_xpath("//listitem//keyword"), on, stats)
    keywords = on.labels.nodes_array("keyword")
    assert 0 < ids.size < keywords.size
    assert stats.index_probes == keywords.size and stats.visited == 0


@pytest.mark.parametrize(
    "query",
    [
        "/site[ .//keyword]",
        "/site[ .//keyword ]//keyword",
        "/site[ .//keyword or .//keyword/emph ]//keyword",
        "/site[ .//keyword//emph ]/descendant::keyword",
        "/site[ .//*//* ]//keyword",
        "/site[ .//keyword//item ]",
        "//keyword[ancestor::mail]",
        "//keyword[not(ancestor::mail) and parent::text]",
    ],
)
def test_root_and_upward_predicates_are_decided_without_a_search(
    monkeypatch, xmark_26k, query
):
    """Q10 and Q12-Q15 put their predicate on ``/site``, whose path holds
    one node; W08's is an ancestor test, a property of a node's path.
    Either way the predicate folds into the rooted run at bind: no
    first-witness search, no back-to-front match set, one gather or none."""
    on = summarized(xmark_26k)
    expected = Engine(xmark_26k, strategy="optimized").select(query)
    for name in ("_first_witnesses", "_match_set", "_pred_mask"):
        monkeypatch.setattr(frontier, name, None)  # calling one fails
    program = frontier.bind(parse_xpath(query), on)
    assert program.steps[0].rooted is not None
    assert all(step.predicate is None for step in program.steps)
    assert frontier.run_kernel(parse_xpath(query), on, None)[1].tolist() == expected


def test_an_open_predicate_searches_only_the_nodes_the_summary_left_open(
    monkeypatch, xmark_26k
):
    """``//*[.//keyword]``: elements of paths with no keyword below, and
    of one-node paths with one, are decided by the gather; only the
    rest reach the joins."""
    on = summarized(xmark_26k)
    query = "//*[ .//keyword ]"
    expected = Engine(xmark_26k, strategy="optimized").select(query)
    elements = on.labels.union_size(frontier.label_key(on, Axis.CHILD, "*"))
    asked = []
    real = frontier._match_set

    def spy(index, steps, stats):
        asked.append(steps)
        return real(index, steps, stats)

    masks = []
    real_mask = frontier.successor_mask

    def spy_mask(index, axis, nodes, *rest):
        masks.append(nodes.size)
        return real_mask(index, axis, nodes, *rest)

    monkeypatch.setattr(frontier, "_match_set", spy)
    monkeypatch.setattr(frontier, "successor_mask", spy_mask)
    program = frontier.bind(parse_xpath(query), on)
    assert isinstance(program.steps[0].predicate, frontier.Decided)
    assert frontier.run_kernel(parse_xpath(query), on, None)[1].tolist() == expected
    assert asked and 0 < masks[-1] < elements


def test_explain_names_the_summary_once_it_exists(xmark_26k):
    off, on = fresh(xmark_26k), summarized(xmark_26k)
    items = xmark_26k.labels.count("item")
    verdict = plan_explain(Engine(on), "/site/regions/*/item")
    assert verdict["operators"] == ["path/summary"] * 4
    text = Engine(on).prepare("/site/regions/*/item").explain()
    assert f"path/summary            ~{items:,} touches" in text
    for query, operators in (
        ("//listitem//keyword", ["path/summary"] * 2),
        ("/site[ .//keyword ]//keyword", ["path/summary"] * 2),
        ("//keyword[ancestor::mail]", ["path/summary"]),
    ):
        assert plan_explain(Engine(on), query)["operators"] == operators
        assert "path/summary" not in plan_explain(Engine(off), query)["operators"]
    verdict = plan_explain(
        Engine(on), "/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail"
    )
    assert verdict["operators"][:4] == ["path/summary"] * 4
    assert "path/summary" not in verdict["operators"][4:]
    assert off.path_summary() is None  # explaining pays no rent


# -- hostile shapes ----------------------------------------------------------


def test_a_descendant_run_on_a_deep_chain_builds_in_linear_work():
    """``//a//b`` and ``/a/b`` over a chain 10^4 deep: the full-height
    build walks 10^4 levels of one node each, and nothing recurses per
    level.  Bound: 5 s for build, bind and run together (~0.3 s
    measured on a 2-core host)."""
    depth = 10**4
    xml = "<a>" + "<b>" * (depth - 1) + "</b>" * (depth - 1) + "</a>"
    index = TreeIndex(BinaryTree.from_xml(xml))
    assert index.tree.n == depth
    start = time.perf_counter()
    summary = index.path_summary(index.tree.n)
    for query, expected in (("//a//b", list(range(1, depth))), ("/a/b", [1])):
        program = frontier.bind(parse_xpath(query), index)
        # Every b path is reached from a, or one of them from the root.
        assert (program.steps[0].rooted is True) == (query == "//a//b")
        assert frontier.run_bound(program, index, None)[1].tolist() == expected
    assert time.perf_counter() - start < 5.0
    assert summary.label.size - 1 == depth  # one path per level
    assert summary.pid.tolist() == list(range(depth))
