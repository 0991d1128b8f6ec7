"""Metamorphic properties of the kernel: relations between answers that
need no oracle, on the seeded grammar documents under all four encode
flags.  They police the path-summary rules -- rooted runs of child and
descendant steps, predicates decided per path id -- so every property
is checked with the summary built, and each answer against the joins'
(the same document under a fresh index, which has no summary):

- summary on = summary off;
- ``p//b`` and ``p/b`` are subsets of ``//b``;
- ``p[q]`` is a subset of ``p``;
- ``p[q and r] = p[q][r] = p[q]`` intersected with ``p[r]``, and
  ``p[q or r]`` their union;
- ``p[not(not(q))] = p[q]``, and ``p[not(q)]`` is ``p`` less ``p[q]``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine import frontier
from repro.engine.api import Engine
from repro.xpath.parser import parse_xpath
from strategies import LABELS, random_core_query, random_document
from test_independent_oracle import ENCODINGS
from test_path_summary import fresh, rooted_run, summarized, summary_predicate

SEED = 0x3E7A
DOCUMENTS = 8
QUERIES = 30


def _cases(attributes, text):
    rng = random.Random(SEED + 2 * attributes + text)
    for _ in range(DOCUMENTS):
        xml = ""
        while xml.count("<") < 12:
            xml = random_document(rng, max_depth=5, attributes=attributes, text=text)
        engine = Engine(xml, encode_attributes=attributes, encode_text=text)
        on = summarized(engine.index)
        yield rng, on, fresh(on)


def _paths(rng, on, attributes, text):
    """Context paths ``p``: rooted runs the summary answers, and the
    fuzz grammar's queries (every axis)."""
    tests = list(LABELS) + ["*", "node()"] + (["text()"] if text else [])
    if rng.random() < 0.6:
        return "".join(rooted_run(rng, on.tree, tests))
    query = random_core_query(
        rng, backward=True, following=True, attributes=attributes, text=text
    )
    if query.endswith(".."):  # '..' takes no predicate; its long form does
        query = query[:-2] + "parent::node()"
    return query


def _predicate(rng, text, attributes):
    tests = list(LABELS) + ["*", "node()"] + (["text()"] if text else [])
    return summary_predicate(rng, tests, attributes, text)


def _ids(query, index):
    return set(frontier.run_kernel(parse_xpath(query), index, None)[1].tolist())


@pytest.mark.parametrize(
    "attributes,text",
    ENCODINGS,
    ids=[f"attr{int(a)}-text{int(t)}" for a, t in ENCODINGS],
)
def test_metamorphic_properties(attributes, text):
    checked = 0
    for rng, on, off in _cases(attributes, text):

        def ids(query):
            got = _ids(query, on)
            assert got == _ids(query, off), query  # summary on = off
            return got

        for _ in range(QUERIES):
            p = _paths(rng, on, attributes, text)
            q = _predicate(rng, text, attributes)
            r = _predicate(rng, text, attributes)
            b = rng.choice(LABELS)
            every_b = ids(f"//{b}")
            assert ids(f"{p}//{b}") <= every_b, p
            assert ids(f"{p}/{b}") <= every_b, p
            plain, with_q, with_r = ids(p), ids(f"{p}[{q}]"), ids(f"{p}[{r}]")
            assert with_q <= plain, (p, q)
            both = ids(f"{p}[({q}) and ({r})]")
            assert both == ids(f"{p}[{q}][{r}]") == with_q & with_r, (p, q, r)
            assert ids(f"{p}[({q}) or ({r})]") == with_q | with_r, (p, q, r)
            assert ids(f"{p}[not(not({q}))]") == with_q, (p, q)
            assert ids(f"{p}[not({q})]") == plain - with_q, (p, q)
            checked += bool(with_q) + bool(plain - with_q)
    assert checked >= QUERIES * DOCUMENTS // 2  # predicates true and false
