"""Hypothesis strategies shared across the property-based tests, plus a
seeded grammar-driven Core-XPath fuzzer (:func:`random_core_query` /
:func:`random_document`) used by the differential and parallel-determinism
suites -- those want a reproducible fixed-seed corpus of a few hundred
cases rather than hypothesis' adaptive search -- and :func:`run_as` /
:func:`kernel_as`, how a test runs one named evaluation strategy."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.automata.labelset import LabelSet
from repro.counters import EvalStats
from repro.engine.api import Engine
from repro.engine.frontier import run_kernel
from repro.engine.registry import resolve
from repro.tree.binary import BinaryTree

LABELS = ("a", "b", "c", "d")

ATTR_NAMES = ("id", "x", "y")
"""Attribute-name pool shared by the fuzzer's documents and queries."""


def run_as(name: str, query, index):
    """``(accepted, selected ids)`` of ``query`` under strategy ``name``,
    run the one way a named strategy runs -- ``Engine(index,
    name).prepare(query)`` -- and asserting that the registry resolved
    it to ``name`` itself, so no fallback answers in its place."""
    result = execute_as(name, query, index)
    return result.accepted, result.nodes


def execute_as(name: str, query, index):
    """The :class:`~repro.engine.plan.ExecutionResult` -- answer and
    counters -- of :func:`run_as`'s one run."""
    plan = Engine(index, name).prepare(query)
    assert plan.strategy.name == name, (name, str(query), plan.strategy.name)
    return plan.execute()


def kernel_as(name: str, path, index, stats=None):
    """``(accepted, selected ids)`` of the set-at-a-time kernel on
    ``path``, once the registry has resolved ``name`` to itself.
    :func:`~repro.engine.frontier.run_kernel` pays no path-summary rent,
    so no run builds the summary of a shared index and changes which
    joins, and how many touches, a later run books.  The run books into
    ``stats`` when given, else into a counter of its own."""
    assert resolve(name, path).name == name, (name, str(path))
    accepted, ids = run_kernel(path, index, EvalStats() if stats is None else stats)
    return accepted, ids.tolist()


@st.composite
def tree_specs(draw, max_depth: int = 4, max_children: int = 4, labels=LABELS):
    """Nested-tuple tree literals for BinaryTree.from_spec."""

    def node(depth: int):
        label = draw(st.sampled_from(labels))
        if depth >= max_depth:
            return label
        n_children = draw(st.integers(0, max_children if depth < 2 else 2))
        if n_children == 0:
            return label
        return tuple([label] + [node(depth + 1) for _ in range(n_children)])

    return node(0)


def spec_xml(spec) -> str:
    """The XML text of a :func:`tree_specs` literal: what the sqlite
    oracle reads, and what an answer check parses its tree from."""
    if isinstance(spec, str):
        return f"<{spec}/>"
    label, *children = spec
    return f"<{label}>{''.join(map(spec_xml, children))}</{label}>"


@st.composite
def documents(draw, **kwargs):
    """Random small documents as XML text (the shapes of :func:`tree_specs`)."""
    return spec_xml(draw(tree_specs(**kwargs)))


@st.composite
def binary_trees(draw, **kwargs):
    """Random small documents as BinaryTree."""
    return BinaryTree.from_spec(draw(tree_specs(**kwargs)))


@st.composite
def label_sets(draw, labels=LABELS):
    names = draw(st.frozensets(st.sampled_from(labels), max_size=len(labels)))
    complemented = draw(st.booleans())
    return LabelSet(names, complemented=complemented)


@st.composite
def xpath_queries(
    draw,
    labels=LABELS,
    max_steps: int = 3,
    pred_depth: int = 1,
    backward: bool = False,
):
    """Random queries in the supported fragment (as strings).

    ``backward=True`` mixes in parent/ancestor steps (never as the first
    step, so the query stays absolute-forward-rooted).
    """

    def step(depth: int, first: bool = False) -> str:
        if backward and not first and draw(st.integers(0, 3)) == 0:
            kind = draw(st.sampled_from(["..", "parent", "ancestor"]))
            if kind == "..":
                return "/.."
            test = draw(st.sampled_from(list(labels)))
            return f"/{kind}::{test}"
        axis = draw(st.sampled_from(["/", "//"]))
        test = draw(st.sampled_from(list(labels) + ["*"]))
        pred = ""
        if depth < pred_depth and draw(st.integers(0, 3)) == 0:
            pred = f"[{predicate(depth + 1)}]"
        return f"{axis}{test}{pred}"

    def rel_path(depth: int) -> str:
        n = draw(st.integers(1, 2))
        parts = []
        for i in range(n):
            axis = draw(st.sampled_from(["", ".//"])) if i == 0 else draw(
                st.sampled_from(["/", "//"])
            )
            test = draw(st.sampled_from(list(labels)))
            parts.append(f"{axis}{test}" if i == 0 else f"{axis}{test}")
        return "".join(parts)

    def predicate(depth: int) -> str:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return rel_path(depth)
        if kind == 1:
            return f"not({rel_path(depth)})"
        op = "and" if kind == 2 else "or"
        return f"{rel_path(depth)} {op} {rel_path(depth)}"

    n_steps = draw(st.integers(1, max_steps))
    return "".join(step(0, first=(i == 0)) for i in range(n_steps))


# -- seeded grammar fuzzer ---------------------------------------------------
#
# Plain random.Random generators for the differential-fuzz and parallel
# suites: the whole corpus is a pure function of the seed, so CI replays
# byte-identical cases.  The grammar covers every supported axis (child,
# descendant, following-sibling, attribute, parent, ancestor, '..'),
# wildcard and node()/text() tests, and and/or/not predicate nesting.


def random_document(
    rng: random.Random,
    *,
    labels=LABELS,
    max_depth: int = 4,
    max_children: int = 3,
    attributes: bool = False,
    text: bool = False,
) -> str:
    """A random XML document string (optionally with attributes/text)."""

    def element(depth: int) -> str:
        label = rng.choice(labels)
        attrs = ""
        if attributes and rng.random() < 0.3:
            names = rng.sample(ATTR_NAMES, rng.randint(1, 2))
            attrs = "".join(f' {a}="v"' for a in sorted(names))
        n_children = 0 if depth >= max_depth else rng.randint(0, max_children)
        body = "".join(element(depth + 1) for _ in range(n_children))
        if text and rng.random() < 0.25:
            body = "some text" + body
        if not body:
            return f"<{label}{attrs}/>"
        return f"<{label}{attrs}>{body}</{label}>"

    return element(0)


def random_core_query(
    rng: random.Random,
    *,
    labels=LABELS,
    max_steps: int = 4,
    pred_depth: int = 2,
    backward: bool = False,
    following: bool = False,
    attributes: bool = False,
    text: bool = False,
) -> str:
    """A random absolute query over the full supported Core fragment.

    Explicit axes are only ever emitted after ``/`` (the parser forbids
    ``//axis::test``), and the first step is always a forward child or
    descendant step so the query stays absolute-forward-rooted.
    """

    def node_test() -> str:
        r = rng.random()
        if r < 0.55:
            return rng.choice(labels)
        if r < 0.7:
            return "*"
        if r < 0.8:
            return "node()"
        if text and r < 0.88:
            return "text()"
        return rng.choice(labels)

    def predicate(depth: int) -> str:
        kind = rng.randint(0, 4)
        if kind == 0:
            return f"not({predicate(depth + 1) if depth < pred_depth else rel_path(depth)})"
        if kind == 1 and depth < pred_depth:
            op = rng.choice(("and", "or"))
            return f"{predicate(depth + 1)} {op} {predicate(depth + 1)}"
        if kind == 2 and attributes:
            return f"@{rng.choice(ATTR_NAMES)}"
        return rel_path(depth)

    def rel_path(depth: int) -> str:
        n = rng.randint(1, 2)
        parts = []
        for i in range(n):
            test = rng.choice(labels)
            if i == 0:
                parts.append(rng.choice(("", ".//")) + test)
            else:
                parts.append(rng.choice(("/", "//")) + test)
        return "".join(parts)

    def step(first: bool) -> str:
        if not first:
            r = rng.random()
            if backward and r < 0.15:
                kind = rng.choice(("..", "parent", "ancestor"))
                if kind == "..":
                    return "/.."
                return f"/{kind}::{node_test()}"
            if following and r < 0.3:
                return f"/following-sibling::{node_test()}"
            if attributes and r < 0.4:
                return f"/@{rng.choice(ATTR_NAMES)}"
        sep = rng.choice(("/", "//"))
        pred = ""
        if rng.random() < 0.4:
            pred = f"[{predicate(0)}]"
        return f"{sep}{node_test()}{pred}"

    n_steps = rng.randint(1, max_steps)
    return "".join(step(first=(i == 0)) for i in range(n_steps))


def random_predicate(
    rng: random.Random, *, window: bool = False, **query_kwargs
) -> str:
    """One predicate of the grammars here (``window=True``: of
    :func:`random_window_query`), without its step -- for tests that put
    it behind contexts of their own choosing."""
    while True:
        if window:
            query = random_window_query(rng, max_steps=1)
        else:
            query = random_core_query(rng, max_steps=1, **query_kwargs)
        if query.endswith("]"):
            return query[query.index("[") + 1 : -1]


def fuzz_corpus(
    seed: int,
    n_documents: int,
    queries_per_document: int,
    **query_kwargs,
) -> list:
    """A reproducible corpus of ``(xml, [query, ...])`` pairs."""
    rng = random.Random(seed)
    attributes = bool(query_kwargs.get("attributes"))
    text = bool(query_kwargs.get("text"))
    corpus = []
    for _ in range(n_documents):
        xml = random_document(rng, attributes=attributes, text=text)
        queries = [
            random_core_query(rng, **query_kwargs)
            for _ in range(queries_per_document)
        ]
        corpus.append((xml, queries))
    return corpus


# -- window-join adversarial corpus ------------------------------------------
#
# Document and query shapes aimed at the window strategy's join
# machinery: long same-label sibling runs (the following-sibling window
# must stop at the right parent boundary), deep single-child chains
# (ancestor joins and staircase pruning over maximally nested windows),
# and *adjacent* same-label subtrees whose windows touch without
# nesting -- the off-by-one class where a half-open interval join would
# leak a neighbouring subtree's nodes.


def window_adversarial_document(
    rng: random.Random,
    *,
    labels=LABELS,
    max_depth: int = 6,
) -> str:
    """A document biased toward sibling runs, chains, and twin subtrees."""

    def chain(depth: int) -> str:
        # A deep single-child spine; every level reuses few labels so
        # ancestor::<label> has matches at many depths.
        label = rng.choice(labels[:2])
        if depth >= max_depth:
            return f"<{label}/>"
        return f"<{label}>{chain(depth + 1)}</{label}>"

    def sibling_run(depth: int) -> str:
        # A long run of same-label siblings, with an occasional
        # different label breaking the run mid-way.
        label = rng.choice(labels)
        run = []
        for i in range(rng.randint(3, 6)):
            if i == 2 and rng.random() < 0.5:
                run.append(f"<{rng.choice(labels)}/>")
            body = shape(depth + 1) if rng.random() < 0.3 else ""
            run.append(f"<{label}>{body}</{label}>" if body else f"<{label}/>")
        return "".join(run)

    def twins(depth: int) -> str:
        # Two structurally identical same-label subtrees side by side:
        # their windows are adjacent on the preorder axis.
        label = rng.choice(labels)
        body = shape(depth + 1)
        return f"<{label}>{body}</{label}>" * 2

    def shape(depth: int) -> str:
        if depth >= max_depth:
            return f"<{rng.choice(labels)}/>"
        r = rng.random()
        if r < 0.3:
            return chain(depth)
        if r < 0.6:
            return sibling_run(depth)
        if r < 0.8:
            return twins(depth)
        label = rng.choice(labels)
        body = "".join(
            shape(depth + 1) for _ in range(rng.randint(1, 3))
        )
        return f"<{label}>{body}</{label}>"

    root = rng.choice(labels)
    body = "".join(shape(1) for _ in range(rng.randint(2, 3)))
    return f"<{root}>{body}</{root}>"


def random_window_query(
    rng: random.Random,
    *,
    labels=LABELS,
    max_steps: int = 4,
) -> str:
    """A random query biased toward the window strategy's hard cases:
    following-sibling *chains*, ancestor/parent steps, and predicates
    whose inner paths are themselves backward or sibling probes."""

    def node_test() -> str:
        r = rng.random()
        if r < 0.6:
            return rng.choice(labels)
        if r < 0.75:
            return "*"
        if r < 0.85:
            return "node()"
        return rng.choice(labels)

    def predicate() -> str:
        kind = rng.randint(0, 5)
        if kind == 0:
            # Deep ancestor predicate: the witness is levels above.
            return f"ancestor::{rng.choice(labels)}"
        if kind == 1:
            return f"following-sibling::{node_test()}"
        if kind == 2:
            return f"not(ancestor::{rng.choice(labels)})"
        if kind == 3:
            op = rng.choice(("and", "or"))
            return f"ancestor::{rng.choice(labels)} {op} {rel_path()}"
        if kind == 4:
            return f".//{rng.choice(labels)}/parent::{node_test()}"
        return rel_path()

    def rel_path() -> str:
        test = rng.choice(labels)
        lead = rng.choice(("", ".//"))
        if rng.random() < 0.4:
            return f"{lead}{test}/{rng.choice(labels)}"
        return f"{lead}{test}"

    def step(first: bool) -> str:
        if not first:
            r = rng.random()
            if r < 0.35:
                # Sibling chains: frequently two in a row.
                chain = f"/following-sibling::{node_test()}"
                if rng.random() < 0.4:
                    chain += f"/following-sibling::{node_test()}"
                return chain
            if r < 0.5:
                kind = rng.choice(("parent", "ancestor"))
                return f"/{kind}::{node_test()}"
        sep = rng.choice(("/", "//"))
        pred = f"[{predicate()}]" if rng.random() < 0.5 else ""
        return f"{sep}{node_test()}{pred}"

    n_steps = rng.randint(1, max_steps)
    return "".join(step(first=(i == 0)) for i in range(n_steps))


def window_fuzz_corpus(
    seed: int, n_documents: int, queries_per_document: int
) -> list:
    """A reproducible ``(xml, [query, ...])`` corpus of window-join
    adversarial shapes (same contract as :func:`fuzz_corpus`)."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(n_documents):
        xml = window_adversarial_document(rng)
        queries = [
            random_window_query(rng)
            for _ in range(queries_per_document)
        ]
        corpus.append((xml, queries))
    return corpus
