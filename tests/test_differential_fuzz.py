"""Differential fuzzing: every registered strategy vs the naive oracle.

A fixed-seed grammar fuzzer (:mod:`strategies`) generates random
documents and random Core-XPath queries over the full supported
fragment -- all axes (backward ones resolve through the mixed pipeline),
nested ``and``/``or``/``not`` predicates, wildcard and ``node()``/
``text()`` tests, attribute encoding.  Each case is checked against the
set-based reference semantics (:func:`evaluate_reference`, the oracle
the naive engine itself is validated against) for *every* strategy in
the registry, so a new plugin is fuzzed for free.

The corpus is a pure function of the seeds below: CI replays the exact
same few hundred cases on every run.
"""

from __future__ import annotations

import pytest

from repro.engine import frontier, joins, registry
from repro.engine.api import Engine
from repro.engine.plan import CompiledQueryCache
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference
from strategies import fuzz_corpus, window_fuzz_corpus

SEED = 0xC0FFEE

# Five corpora: plain element documents over forward queries, the full
# axis mix (following-sibling + backward axes), attribute/text encoded
# documents, a deeper-predicate forward corpus aimed at the
# set-at-a-time fragment, and a window-join adversarial corpus --
# sibling runs, deep chains, adjacent twin subtrees, ancestor-heavy
# predicates -- aimed at the interval-join strategy (every registered
# strategy, the vectorized one and the auto planner included, runs all
# of them).  ~400 (document, query) cases in total.
CORPORA = [
    pytest.param(
        fuzz_corpus(SEED, 8, 16),
        dict(encode_attributes=False, encode_text=False),
        id="forward",
    ),
    pytest.param(
        fuzz_corpus(SEED + 1, 6, 16, backward=True, following=True),
        dict(encode_attributes=False, encode_text=False),
        id="all-axes",
    ),
    pytest.param(
        fuzz_corpus(
            SEED + 2, 4, 12, attributes=True, text=True, following=True
        ),
        dict(encode_attributes=True, encode_text=True),
        id="encoded",
    ),
    pytest.param(
        fuzz_corpus(
            SEED + 3, 4, 14, following=True, pred_depth=3, max_steps=5
        ),
        dict(encode_attributes=False, encode_text=False),
        id="deep-predicates",
    ),
    pytest.param(
        window_fuzz_corpus(SEED + 4, 4, 14),
        dict(encode_attributes=False, encode_text=False),
        id="window-shapes",
    ),
]


def _indexes(corpus, encode):
    """One TreeIndex per corpus document (module-level work is cached by
    pytest only per-call, so keep construction cheap: docs are tiny)."""
    out = []
    for xml, queries in corpus:
        tree = BinaryTree.from_document(parse_xml(xml), **_encode_kwargs(encode))
        out.append((TreeIndex(tree), queries))
    return out


def _encode_kwargs(encode):
    return {
        "encode_attributes": encode["encode_attributes"],
        "encode_text": encode["encode_text"],
    }


@pytest.mark.parametrize("corpus,encode", CORPORA)
@pytest.mark.parametrize("strategy", registry.strategy_names())
def test_strategy_matches_oracle_on_fuzz_corpus(corpus, encode, strategy):
    cases = 0
    for index, queries in _indexes(corpus, encode):
        cache = CompiledQueryCache()
        engine = Engine(index, strategy=strategy, cache=cache)
        for query in queries:
            path = parse_xpath(query)
            expected = evaluate_reference(index.tree, path)
            got = engine.select(query)
            assert got == expected, (
                f"strategy {strategy!r} disagrees with the reference "
                f"oracle on {query!r}: {got} != {expected}"
            )
            cases += 1
    assert cases >= 48  # every corpus contributes a real batch of cases


@pytest.mark.parametrize("corpus,encode", CORPORA)
@pytest.mark.parametrize("strategy", ["vectorized", "window"])
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("first_witness", [True, False])
def test_both_sides_of_both_choices_match_oracle(
    monkeypatch, corpus, encode, strategy, position, first_witness
):
    """The set-at-a-time kernels pick a physical operator and a
    predicate direction from array sizes, and the fuzz documents are too
    small to reach most of them on their own.  Pin every row of the
    operator table to one position in turn -- 0: the candidate side of
    every axis (mark bitmaps, rank columns), 1: the context side of
    child / sibling / parent (CSR, gather) and the binary-search form of
    descendant / ancestor, 2: the descendant ranges -- with the
    predicates' probes ranked at position 0 and searched otherwise, and
    every relative predicate either a first-witness search run to its
    end (a path sized beyond any budget) or built back to front; hold
    each combination to the oracle."""
    for axis, row in joins.OPERATORS.items():
        pinned = min(position, len(row.ops) - 1)
        monkeypatch.setitem(
            joins.OPERATORS, axis, row._replace(choose=lambda *_, p=pinned: p)
        )
    monkeypatch.setattr(joins, "RANK_FACTOR", 0 if position else 10**9)
    if first_witness:
        monkeypatch.setattr(
            frontier, "_witness_budget", lambda index, steps, contexts: 10**12
        )
    else:
        monkeypatch.setattr(frontier, "WITNESS_DISPATCH", 10**9)
    for index, queries in _indexes(corpus, encode):
        engine = Engine(index, strategy=strategy)
        for query in queries:
            expected = evaluate_reference(index.tree, parse_xpath(query))
            assert engine.select(query) == expected, (strategy, position, query)


def test_new_strategies_are_fuzzed():
    """The vectorized strategy and the auto planner are registered, so
    the parametrization above drives them against the oracle -- this
    guards against either silently dropping out of the registry."""
    names = registry.strategy_names()
    assert "vectorized" in names
    assert "window" in names
    assert "auto" in names


def test_auto_planner_consistent_across_repeats():
    """Feedback re-planning must never change *results*: executing the
    same prepared plan repeatedly (plans may switch strategy mid-stream)
    stays byte-identical to the oracle."""
    corpus = fuzz_corpus(SEED + 3, 2, 8, following=True)
    for xml, queries in corpus:
        tree = BinaryTree.from_xml(xml)
        index = TreeIndex(tree)
        engine = Engine(index, strategy="auto")
        for query in queries:
            expected = evaluate_reference(tree, parse_xpath(query))
            plan = engine.prepare(query)
            for _ in range(4):
                assert list(plan.execute().ids) == expected, query


def test_corpus_is_reproducible():
    """The fixed-seed corpus is identical across runs/platforms."""
    assert fuzz_corpus(SEED, 8, 16) == fuzz_corpus(SEED, 8, 16)
    a = fuzz_corpus(SEED + 1, 2, 4, backward=True, following=True)
    b = fuzz_corpus(SEED + 1, 2, 4, backward=True, following=True)
    assert a == b
    assert window_fuzz_corpus(SEED + 4, 2, 4) == window_fuzz_corpus(
        SEED + 4, 2, 4
    )


def test_window_corpus_exercises_its_shapes():
    """The adversarial corpus actually emits the constructs it targets:
    sibling chains, ancestor predicates, and backward steps."""
    blob = "\n".join(
        q
        for _, queries in window_fuzz_corpus(SEED + 4, 4, 14)
        for q in queries
    )
    for construct in (
        "following-sibling::",
        "ancestor::",
        "parent::",
        "[ancestor::",
        "not(ancestor::",
    ):
        assert construct in blob, f"fuzzer never produced {construct!r}"


def test_corpus_exercises_the_grammar():
    """The grammar actually produces the constructs it claims to cover."""
    blob = "\n".join(
        q
        for corpus in (
            fuzz_corpus(SEED, 8, 16),
            fuzz_corpus(SEED + 1, 6, 16, backward=True, following=True),
            fuzz_corpus(
                SEED + 2, 4, 12, attributes=True, text=True, following=True
            ),
        )
        for _, queries in corpus
        for q in queries
    )
    for construct in (
        "//",
        "[",
        "not(",
        " and ",
        " or ",
        "*",
        "node()",
        "following-sibling::",
        "ancestor::",
        "/..",
        "@",
    ):
        assert construct in blob, f"fuzzer never produced {construct!r}"
