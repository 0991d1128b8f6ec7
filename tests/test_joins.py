"""The join operator table (``repro.engine.joins``).

Every physical operator of a row against the other operators of that
row and against a brute force over ``parent`` / ``xml_end``; a wide flat
document on which both sides of the child and sibling rows are reached
by size; eight threads on one index; and the two guards that keep the
kernel merge merged (no ``np.unique``, a line budget)."""

import ast
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import frontier, joins, window
from repro.engine.api import Engine
from repro.engine.workspace import Workspace
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.ast import Axis
from repro.xpath.parser import parse_xpath
from strategies import tree_specs
from test_planner import MIX20

ENGINE_DIR = os.path.dirname(joins.__file__)


def related(tree, axis, u, v):
    """Is ``v`` an ``axis``-successor of ``u``?  Straight off the
    definitions: ``parent`` and the subtree range ``[u, xml_end[u])``."""
    parent, end = tree.parent, tree.xml_end
    if axis in (Axis.CHILD, Axis.ATTRIBUTE):
        return parent[v] == u
    if axis is Axis.PARENT:
        return parent[u] == v
    if axis is Axis.DESCENDANT:
        return u < v < end[u]
    if axis is Axis.ANCESTOR:
        return v < u < end[v]
    assert axis is Axis.FOLLOWING_SIBLING
    return u < v and parent[u] == parent[v] != -1


def label_set(index, names):
    ids = sorted(index.tree.label_ids[name] for name in names)
    return index.fused(ids).arr, tuple(ids)


@given(spec=tree_specs(max_depth=5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_operators_of_a_row_agree_with_each_other_and_brute_force(spec, data):
    tree = BinaryTree.from_spec(spec)
    index = TreeIndex(tree)
    names = st.sets(st.sampled_from(tree.labels), min_size=1)
    cand, key = label_set(index, data.draw(names, label="test"))
    if data.draw(st.booleans(), label="frontier is a whole label set"):
        context, src = label_set(index, data.draw(names, label="frontier"))
    else:
        nodes = st.sets(st.integers(0, tree.n - 1), min_size=1)
        context = np.array(sorted(data.draw(nodes, label="frontier")))
        src = None
    for axis, row in joins.OPERATORS.items():
        expected = [
            c for c in cand if any(related(tree, axis, f, c) for f in context)
        ]
        assert joins.join(
            index, axis, cand, key, context, src, None
        ).tolist() == expected, axis
        given_ctx, given_src = context, src
        if axis is Axis.DESCENDANT:  # this row is handed disjoint ranges
            given_ctx = joins.staircase(index, context)
            if given_ctx.size != context.size:
                given_src = None
        for op in row.ops:
            got = op.run(index, cand, key, given_ctx, given_src, None)
            assert got.dtype == np.int64
            assert got.tolist() == expected, op.name  # sorted, no duplicates
        # The predicate direction: which candidates have a successor in
        # the frontier -- rank columns forced, then binary search.
        wanted = [
            any(related(tree, axis, c, t) for t in context) for c in cand
        ]
        for factor in (10**9, 0):
            with mock.patch.object(joins, "RANK_FACTOR", factor):
                mask = joins.successor_mask(index, axis, cand, context, src, None)
            assert mask.tolist() == wanted, (axis, factor)


class TestWideDocument:
    """``<r>``: one ``<b>`` with two ``<a/>``, then 10^4 ``<a/>`` -- the
    child and sibling rows take each side by size alone."""

    WIDTH = 10**4
    MODULES = [
        pytest.param(frontier, id="vectorized"),
        pytest.param(window, id="window"),
    ]

    @pytest.fixture(scope="class")
    def wide(self):
        xml = "<r><b><a/><a/></b>" + "<a/>" * self.WIDTH + "</r>"
        return TreeIndex(BinaryTree.from_xml(xml))

    @pytest.fixture()
    def ran(self, monkeypatch):
        """Names of the operators that run, in order."""
        log = []

        def spied(op):
            def run(*args):
                log.append(op.name)
                return op.run(*args)

            return op._replace(run=run)

        for axis, row in joins.OPERATORS.items():
            monkeypatch.setitem(
                joins.OPERATORS, axis, row._replace(ops=tuple(map(spied, row.ops)))
            )
        return log

    @pytest.mark.parametrize("module", MODULES)
    @pytest.mark.parametrize(
        "query,first,count,operator",
        [
            # One context node with fewer children than there are <a>
            # (through //r: a rooted child run joins nothing).
            ("//r/b/a", 2, 2, "child/csr"),
            ("//r/a", 4, WIDTH, "child/csr"),
            # Every element as context: more of them than candidates.
            ("//*/a", 2, WIDTH + 2, "child/mark"),
            ("/r/b/a/following-sibling::a", 3, 1, "following-sibling/csr"),
            ("/r/b/following-sibling::a", 4, WIDTH, "following-sibling/csr"),
            ("//a/following-sibling::a", 3, WIDTH, "following-sibling/mark"),
        ],
    )
    def test_each_side_is_reached_by_size(
        self, wide, ran, module, query, first, count, operator
    ):
        _, ids = module.evaluate(parse_xpath(query), wide)
        assert len(ids) == count and ids[0] == first
        assert ids == sorted(set(ids))
        assert ran[-1] == operator


def test_eight_threads_on_one_index_match_the_oracle(xmark_26k):
    """Different plans run concurrently on one fresh ``TreeIndex`` (the
    threads share it, and race to build its CSR, rank columns and path
    summary, and to bind their plans to the summary once it exists);
    scratch they shared, or a column published half built, would show as
    a wrong answer."""
    oracle = Engine(xmark_26k, strategy="optimized")
    expected = {query: oracle.select(query) for query in MIX20}
    ws = Workspace(strategy="window")
    index = TreeIndex(xmark_26k.tree)
    ws.add("doc", index)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            got = ws.select_many(MIX20, "doc", jobs=8, executor="thread")
            assert got == expected
    finally:
        sys.setswitchinterval(interval)
        ws.close()
    assert index.path_summary() is not None  # built while they ran


def test_parent_gathers_only_from_a_quarter_of_the_candidates(xmark_26k):
    """``//keyword/parent::text`` meets about as many ``text`` candidates
    as keywords: marking both beats gathering and sorting the parents,
    whichever side is a few nodes larger.  Against every element the
    frontier is far smaller, and its parents are gathered.  Both
    operators give the same answer either way."""
    index = xmark_26k
    keywords, src = label_set(index, ["keyword"])
    row = joins.OPERATORS[Axis.PARENT]
    for test, expected in (("text", "parent/mark"), ("*", "parent/gather")):
        key = frontier.label_key(index, Axis.PARENT, test)
        cand = index.labels.union(key)
        picked = row.ops[row.choose(keywords.size, cand.size, index.tree.n, None, True)]
        assert picked.name == expected, (test, keywords.size, cand.size)
        answers = [op.run(index, cand, key, keywords, src, None) for op in row.ops]
        assert answers[0].tolist() == answers[1].tolist()
        joined = joins.join(index, Axis.PARENT, cand, key, keywords, src, None)
        assert joined.tolist() == answers[0].tolist()
    assert abs(index.labels.count("text") - keywords.size) < keywords.size / 4





def _calls(path, attribute):
    with open(path) as handle:
        tree = ast.parse(handle.read())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attribute
    ]


@pytest.mark.parametrize(
    "module", sorted(name for name in os.listdir(ENGINE_DIR) if name.endswith(".py"))
)
def test_engine_modules_do_not_call_np_unique(module):
    # Sort + adjacent compare (joins.sorted_unique) is ~10x faster on
    # these id arrays, and a mark bitmap needs neither.
    assert _calls(os.path.join(ENGINE_DIR, module), "unique") == []


def test_kernel_line_budget():
    """The two kernels were merged into one: ``frontier.py`` +
    ``window.py`` held 1117 lines before and stay under 800 (the driver
    and the strategy shells), and with the operator table of
    ``joins.py`` the whole set-at-a-time kernel stays under 950, so the
    merge cannot silently regrow -- 1019 since plans bind their steps at
    ``prepare`` and rooted child runs are answered from the path summary
    (69 lines), 1160 since the summary also answers descendant runs and
    decides predicate paths, and plans bound before it existed pay
    toward it and bind again (140)."""

    def lines(*modules):
        total = 0
        for module in modules:
            with open(os.path.join(ENGINE_DIR, module)) as handle:
                total += sum(1 for _ in handle)
        return total

    assert lines("frontier.py", "window.py") <= 800
    assert lines("frontier.py", "window.py", "joins.py") <= 1160


SERVE_DIR = os.path.join(os.path.dirname(ENGINE_DIR), "serve")
TREE_COLUMNS = {"label_of", "left", "right", "parent", "bparent", "xml_end"}


@pytest.mark.parametrize(
    "path",
    [
        os.path.join(ENGINE_DIR, name)
        for name in ("frontier.py", "joins.py", "planner.py", "window.py")
    ]
    + sorted(
        os.path.join(SERVE_DIR, name)
        for name in os.listdir(SERVE_DIR)
        if name.endswith(".py")
    ),
    ids=os.path.basename,
)
def test_kernel_and_daemon_never_ask_for_a_list_mirror(path):
    """``tree.<column>`` builds that column's plain-int list mirror and
    ``.lst`` / ``.nodes(`` a label list: the kernel and the daemon read
    numpy columns only, so neither may appear in them (predicate ASTs
    keep their own ``pred.left`` / ``pred.right``)."""
    with open(path) as handle:
        module = ast.parse(handle.read())
    asked = []
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            node = node.func
            if isinstance(node, ast.Attribute) and node.attr == "nodes":
                asked.append((node.lineno, ".nodes("))
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                owner = getattr(owner, "id", None) or owner.attr
            if node.attr == "lst" or (node.attr in TREE_COLUMNS and owner == "tree"):
                asked.append((node.lineno, f"{owner}.{node.attr}"))
    assert asked == []


def _logical_lines(path):
    """Lines of a module re-rendered from its syntax tree without
    docstrings, so comments and formatting neither help nor hurt."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            node.body = node.body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def test_serve_line_budget():
    """The daemon was split by owner, not by moving text: ``daemon.py``
    alone held 702 logical lines before; now it, ``admission.py`` and
    ``mounts.py`` together stay under 646 and ``daemon.py`` under 476
    (640 / 470 plus the six lines of ``_encode``, where a framed answer
    is written and counted)."""
    serve_dir = os.path.join(os.path.dirname(ENGINE_DIR), "serve")
    daemon, admission, mounts = (
        _logical_lines(os.path.join(serve_dir, module))
        for module in ("daemon.py", "admission.py", "mounts.py")
    )
    assert daemon <= 476
    assert daemon + admission + mounts <= 646


def test_planner_line_budget():
    """``auto`` is the kernel: ``planner.py`` held 347 logical lines
    with the wall-clock trials and 274 with the cost model, the feedback
    loop and the freeze; what is left states operators for ``explain``
    in under 130, and still cannot read a clock."""
    path = os.path.join(ENGINE_DIR, "planner.py")
    assert _logical_lines(path) <= 130
    with open(path) as handle:
        imports = [
            node
            for node in ast.walk(ast.parse(handle.read()))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
    imported = {alias.name for node in imports for alias in node.names}
    imported |= {getattr(node, "module", None) for node in imports}
    assert not imported & {"time", "perf_counter"}
