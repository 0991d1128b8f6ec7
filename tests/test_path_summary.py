"""Rooted child runs answered from the path summary
(``TreeIndex.path_summary``, ``joins.child_path``): the same answer as
the child joins they replace, under every strategy, the independent
sqlite oracle and thread-pool execution; the summary itself against a
brute force; and what it costs on hostile shapes."""

from __future__ import annotations

import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from oracle_sqlite import SqliteOracle
from repro.counters import EvalStats
from repro.engine import frontier
from repro.engine.api import Engine
from repro.engine.parallel import QueryService
from repro.engine.planner import plan_explain
from repro.engine.workspace import Workspace
from repro.index.jumping import PathSummary, TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.parser import parse_xpath
from strategies import LABELS, random_document, random_predicate, tree_specs
from test_independent_oracle import ENCODINGS, LATE_TEXT

SEED = 0x5A77
STRATEGIES = ("auto", "window", "vectorized", "optimized")
FURTHER = ("/{}", "//{}", "/following-sibling::{}", "/parent::{}", "/ancestor::{}")


def rooted_labels(tree, v):
    """The labels from the root down to ``v``, by walking ``parent``."""
    path = []
    while v != -1:
        path.append(tree.label(v))
        v = tree.parent[v]
    return tuple(reversed(path))


def rooted_queries(rng, tree, attributes, text):
    """A rooted run of 2-4 child steps (named, ``*``, ``node()``,
    ``text()`` tests) -- most of them spelling a path the document has
    -- on its own, and with a predicate on its last step or not, then up
    to two further steps of every axis."""
    tests = list(LABELS) + ["*", "node()"] + (["text()"] if text else [])
    spelled = [
        labels
        for labels in map(rooted_labels, [tree] * tree.n, range(tree.n))
        if 2 <= len(labels) <= 4 and not labels[-1].startswith("@")
    ]
    if spelled and rng.random() < 0.7:
        steps = [
            rng.choice(("*", "node()")) if rng.random() < 0.3
            else "text()" if label == "#text" else label
            for label in rng.choice(spelled)
        ]
    else:
        steps = [rng.choice(tests) for _ in range(rng.randint(2, 4))]
    run = query = "/" + "/".join(steps)
    if rng.random() < 0.4:
        pred = random_predicate(
            rng, attributes=attributes, text=text, following=True
        )
        query += f"[{pred}]"
    for _ in range(rng.randint(0, 2)):
        query += rng.choice(FURTHER).format(rng.choice(tests))
    if attributes and rng.random() < 0.2:
        query += "/@" + rng.choice(("id", "x", "y"))
    return run, query


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


@pytest.mark.parametrize(
    "xml,attributes,text",
    CASES,
    ids=[f"doc{i}-attr{int(a)}-text{int(t)}" for i, (_, a, t) in enumerate(CASES)],
)
def test_summary_answers_what_the_joins_answer(xml, attributes, text):
    encode = dict(encode_attributes=attributes, encode_text=text)
    index = Engine(xml, **encode).index
    oracle = SqliteOracle(xml, **encode)
    engines = {name: Engine(index, strategy=name) for name in STRATEGIES}
    workspace = Workspace()
    workspace.add("doc", index)
    rng = random.Random(f"{xml}{attributes}{text}")  # str seeds are stable
    matched = 0
    with QueryService(workspace, jobs=2) as service:
        for _ in range(8):
            run, query = rooted_queries(rng, index.tree, attributes, text)
            for query in dict.fromkeys((run, query)):
                path = parse_xpath(query)
                assert frontier.bind(path, index).steps[0].rooted is not None
                with mock.patch.object(frontier, "rooted_run", lambda path: 0):
                    joined = frontier.run_kernel(path, index, None)[1].tolist()
                expected = oracle.select(query)
                assert joined == expected, query
                answers = {name: e.select(query) for name, e in engines.items()}
                answers["parallel"] = service.select(query, "doc")
                for name, got in answers.items():
                    assert got == expected, (name, query)
            matched += bool(oracle.select(run))
    assert matched >= 4  # most runs select something
    workspace.close()


# -- the summary itself ------------------------------------------------------


@given(tree_specs(max_depth=5))
@settings(max_examples=150, deadline=None)
def test_summary_names_each_rooted_label_path_once(spec):
    tree = BinaryTree.from_spec(spec)
    index = TreeIndex(tree)
    depth = 3
    summary = PathSummary(index, depth)
    names = {}
    for v in range(tree.n):
        labels = rooted_labels(tree, v)
        p = int(summary.pid[v])
        if len(labels) > depth:
            assert p == -1
            continue
        assert summary.levels[len(labels) - 1] <= p < summary.levels[len(labels)]
        assert names.setdefault(labels, p) == p
        assert summary.label[p] == tree.label_ids[labels[-1]]
        if v:
            assert summary.parent[p] == summary.pid[tree.parent[v]]
    assert len(set(names.values())) == len(names)  # one id per path
    # A deeper build gives every shallower path the id it had, so masks
    # bound against the shallower summary read the deeper one unchanged.
    kept = summary.pid >= 0
    deeper = PathSummary(index, depth + 3)
    assert np.array_equal(deeper.pid[kept], summary.pid[kept])
    shared = summary.levels[-1]
    assert deeper.levels[: len(summary.levels)] == summary.levels
    assert np.array_equal(deeper.parent[:shared], summary.parent)
    assert np.array_equal(deeper.label[:shared], summary.label)


def test_a_short_run_on_a_deep_chain_reads_two_levels():
    """``/a/b`` over a chain 10^4 deep: the summary walks two levels, not
    10^4, and nothing recurses per level.  Bound: 0.5 s for the parse-free
    part, bind with the summary build included (~1 ms measured)."""
    depth = 10**4
    xml = "<a>" + "<b>" * (depth - 1) + "</b>" * (depth - 1) + "</a>"
    index = TreeIndex(BinaryTree.from_xml(xml))
    assert index.tree.n == depth
    start = time.perf_counter()
    accepted, ids = frontier.run_kernel(parse_xpath("/a/b"), index, None)
    assert time.perf_counter() - start < 0.5
    assert ids.tolist() == [1]
    summary = index._path_summary
    assert summary.depth == 2 and len(summary.levels) == 3
    assert (summary.pid >= 0).sum() == 2
    # A long rooted run rebuilds it once, deeper; the two ids stay.
    path = parse_xpath("/a" + "/b" * 99)
    assert frontier.run_kernel(path, index, None)[1].tolist() == [99]
    assert index._path_summary.depth == 100
    assert index._path_summary.pid[:2].tolist() == [0, 1]


def test_an_all_matching_run_answers_the_candidate_array_itself(xmark_26k):
    stats = EvalStats()
    path = parse_xpath("/site/regions/*/item")
    _, ids = frontier.run_kernel(path, xmark_26k, stats)
    items = xmark_26k.labels.nodes_array("item")
    assert ids is items and ids.dtype == np.int64
    # One jump to resolve the candidates, one pass probing each of them.
    assert stats.jumps == 2 and stats.visited == 0
    assert stats.index_probes == items.size == stats.selected


def test_explain_names_the_summary(xmark_26k):
    engine = Engine(xmark_26k)
    items = xmark_26k.labels.count("item")
    verdict = plan_explain(engine, "/site/regions/*/item")
    assert verdict["operators"] == ["child/path"] * 4
    text = engine.prepare("/site/regions/*/item").explain()
    assert f"child/path              ~{items:,} touches" in text
    verdict = plan_explain(
        engine, "/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail"
    )
    assert verdict["operators"][:4] == ["child/path"] * 4
    assert "child/path" not in verdict["operators"][4:]


def test_no_rooted_run_builds_no_summary(xmark_26k):
    index = TreeIndex(xmark_26k.tree, xmark_26k.labels)
    for query in ("//listitem//keyword", "/site//keyword", "/site[ .//keyword ]"):
        assert Engine(index).count(query)
    assert getattr(index, "_path_summary", None) is None
