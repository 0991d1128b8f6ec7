"""A node id costs four bytes: ``int32`` from parser to bundle to kernel.

Every array of node ids -- the six tree columns, the label index's
arrays and fused unions, rank columns, the child CSR and the kernel's
frontiers -- is ``int32``, on a parsed document and on a reopened
bundle alike; answers are still read-only ``int64`` at the API and
four bytes wide in a frame.  Every plain-``int`` list of node ids draws
its objects from the tree's one pool.  A document whose ids do not fit
is refused when it is built and when its bundle is opened, and a
bundle written before ids were ``int32`` (format version 3) is refused
with "rebuild".
"""

from __future__ import annotations

import http.client
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BinaryTree, Engine, TreeIndex
from repro.cli import main
from repro.counters import EvalStats
from repro.engine import frontier, joins
from repro.index.labels import LabelIndex
from repro.index.succinct import SuccinctTree
from repro.serve import DaemonThread, QueryDaemon
from repro.serve.http import FRAME_MAGIC, IDS_TYPE, decode_answer
from repro.serve.mounts import MountTable
from repro.store import (
    DocumentStore,
    StoreCorruptionError,
    StoreFormatError,
    open_document,
    save_document,
    verify_document,
)
from repro.store.format import ARRAYS, HEADER_FILE, array_path
from repro.tree import binary
from repro.tree.binary import DocumentTooLarge
from repro.xmark.generator import XMarkGenerator
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import eval_path_from
from strategies import tree_specs

#: Forward, backward and sibling steps, a predicate, a wildcard: every
#: kind of join the kernel runs.
QUERIES = (
    "//keyword",
    "/site/regions/*/item",
    "//listitem//keyword",
    "//keyword/ancestor::listitem",
    "//item/parent::*",
    "//bidder/following-sibling::bidder",
    "//item[ .//keyword ]/name",
)


@pytest.fixture(scope="module")
def xml():
    return XMarkGenerator(scale=0.05, seed=5).xml()


@pytest.fixture(scope="module")
def bundle(xml, tmp_path_factory):
    return save_document(xml, str(tmp_path_factory.mktemp("ids") / "doc"))


def _int32(array) -> bool:
    return array.dtype == np.int32


@pytest.mark.parametrize("source", ["parsed", "reopened"])
def test_every_node_id_array_is_int32(xml, bundle, source):
    document = open_document(bundle) if source == "reopened" else xml
    engine = Engine(document)
    index = engine.index
    tree = index.tree
    assert all(_int32(column) for column in tree._columns.values())
    labels = index.labels
    assert all(_int32(array) for array in labels._arrays)
    assert all(_int32(array) for array in labels.state())
    key = tuple(sorted(index.label_ids(["keyword", "bold", "emph"])))
    fused = index.fused(key)
    assert len(key) == 3 and _int32(fused.arr)
    rank = index.rank(key, fused.arr)
    assert _int32(rank) and rank.size == tree.n + 2
    assert all(_int32(array) for array in index.child_csr())
    for query in QUERIES:
        _, ids = frontier.run_kernel(parse_xpath(query), index, EvalStats())
        assert _int32(ids), query
        result = engine.prepare(query).execute()
        assert _int32(result.ids_compact), query
        wide = result.ids_array
        assert wide.dtype == np.int64 and not wide.flags.writeable
        assert wide.tolist() == ids.tolist() == list(result.ids)
        assert engine.labels_of(wide) == engine.labels_of(result.nodes)
    if source == "reopened":
        document.close()


def test_every_bundle_array_loads_as_int32(bundle):
    with open(os.path.join(bundle, HEADER_FILE)) as handle:
        header = json.load(handle)
    assert header["version"] == 5
    n = header["n"]
    for name in ARRAYS:
        assert header["arrays"][name]["dtype"] == "int32"
        assert np.load(array_path(bundle, name)).dtype == np.int32
    # 16 bytes a node: four n-long arrays of four bytes (and the label
    # bounds, one per label).
    sizes = {name: os.path.getsize(array_path(bundle, name)) for name in ARRAYS}
    data = sum(sizes.values()) - 128 * len(ARRAYS)
    assert data == 16 * n + 4 * (len(header["labels"]) + 1)


def test_a_framed_answer_is_four_bytes_wide(bundle):
    root = os.path.dirname(bundle)
    with DaemonThread(QueryDaemon(root)) as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            payload = {"query": "//keyword", "labels": True}
            conn.request(
                "POST",
                "/query",
                body=json.dumps(payload).encode(),
                headers={"Accept": IDS_TYPE},
            )
            body = conn.getresponse().read()
        finally:
            conn.close()
    assert body.startswith(FRAME_MAGIC) and body[len(FRAME_MAGIC)] == 4
    answer = decode_answer(body)
    with open_document(bundle) as stored:
        engine = Engine(stored)
        expected = engine.select("//keyword")
        assert answer["ids"] == expected and len(expected) > 100
        assert answer["labels"] == engine.labels_of(np.array(expected))


def test_labels_ask_for_no_python_ints(bundle, monkeypatch):
    """A ``labels=true`` answer labels the id array it encodes: the
    daemon never asks the result for its list or tuple."""
    from repro.engine.plan import ExecutionResult

    asked = []
    for name in ("ids", "nodes"):
        fget = getattr(ExecutionResult, name).fget
        monkeypatch.setattr(
            ExecutionResult,
            name,
            property(lambda self, f=fget, n=name: asked.append(n) or f(self)),
        )
    root = os.path.dirname(bundle)
    with DaemonThread(QueryDaemon(root)) as handle:
        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=30)
        try:
            payload = {"query": "//keyword", "labels": True}
            conn.request("POST", "/query", body=json.dumps(payload).encode())
            answer = json.loads(conn.getresponse().read())
        finally:
            conn.close()
    assert set(answer["labels"]) == {"keyword"} and asked == []


# -- one int pool ----------------------------------------------------------------


def test_label_index_lists_are_the_trees_pooled_ints(xml):
    tree = BinaryTree.from_xml(xml)
    index = TreeIndex(tree)
    pooled = tree.ints(np.arange(tree.n, dtype=np.int32))
    key = index.label_ids(["keyword", "bold"])
    fused = index.fused(key).lst
    assert fused and max(fused) > 256  # past CPython's small ints
    assert all(v is pooled[v] for v in fused)
    # ... and the column mirrors' ids are the same objects again.
    parents = [p for p in tree.parent if p > 256]
    assert parents and all(p is pooled[p] for p in parents)


def test_a_succinct_tree_lists_without_a_pool(xml):
    succinct = SuccinctTree.from_binary(BinaryTree.from_xml(xml))
    labels = LabelIndex(succinct)
    lab = succinct.labels.index("keyword")
    assert labels.nodes_array("keyword").tolist() == labels._arrays[lab].tolist()
    assert labels.fused([lab]).lst == labels._arrays[lab].tolist()


# -- the sibling mask, both directions, against the reference --------------------


@given(spec=tree_specs(max_depth=4, max_children=5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_sibling_mask_matches_the_reference(spec, data):
    tree = BinaryTree.from_spec(spec)
    index = TreeIndex(tree)
    ids = st.integers(0, tree.n - 1)
    nodes = sorted(data.draw(st.sets(ids, min_size=1), label="nodes"))
    others = sorted(data.draw(st.sets(ids, min_size=1), label="others"))
    following = parse_xpath("following-sibling::*")
    after_other = set(eval_path_from(tree, following, others))
    before_other = {
        c for c in nodes if set(eval_path_from(tree, following, [c])) & set(others)
    }
    for forward, expected in ((False, after_other), (True, before_other)):
        mask = joins._sibling(
            index,
            np.array(nodes, dtype=np.int32),
            np.array(others, dtype=np.int32),
            EvalStats(),
            following=forward,
        )
        assert [c for c, keep in zip(nodes, mask) if keep] == [
            c for c in nodes if c in expected
        ], forward


# -- the size guard ----------------------------------------------------------------

SMALL = "<r><a><b/></a><a/><c><a/></c></r>"  # six nodes


def test_the_limit_leaves_room_for_a_rank_column():
    assert binary.MAX_NODES + 2 == np.iinfo(np.int32).max


def test_a_document_past_the_limit_is_refused_at_build(monkeypatch, tmp_path):
    monkeypatch.setattr(binary, "MAX_NODES", 5)
    for build in (
        lambda: BinaryTree.from_xml(SMALL),
        lambda: Engine(SMALL),
        lambda: save_document(SMALL, str(tmp_path / "doc")),
    ):
        with pytest.raises(DocumentTooLarge) as exc:
            build()
        assert (exc.value.n, exc.value.limit) == (6, 5)
    assert not os.path.exists(tmp_path / "doc")
    assert BinaryTree.from_xml("<r><a><b/></a><a/></r>").n == 4
    monkeypatch.setattr(binary, "MAX_NODES", 6)
    assert BinaryTree.from_xml(SMALL).n == 6  # exactly the limit fits


def test_a_bundle_past_the_limit_is_refused_at_open(monkeypatch, tmp_path, capsys):
    path = save_document(SMALL, str(tmp_path / "doc"))
    monkeypatch.setattr(binary, "MAX_NODES", 5)
    for check in (open_document, verify_document):
        with pytest.raises(StoreCorruptionError) as exc:
            check(path)
        assert exc.value.reason.startswith("header 'n' exceeds")
        assert (exc.value.expected, exc.value.actual) == ("<= 5", 6)
    assert main(["store", "verify", path]) == 1
    assert "exceeds" in capsys.readouterr().out
    assert main(["store", "build", str(tmp_path / "other"), "--xmark", "0.01"]) == 1
    assert "int32" in capsys.readouterr().err


# -- a bundle of format version 3 or 4 ----------------------------------------


def _as_version(path, version) -> None:
    header_path = os.path.join(path, HEADER_FILE)
    with open(header_path) as handle:
        header = json.load(handle)
    header["version"] = version
    with open(header_path, "w") as handle:
        json.dump(header, handle)


def test_a_version_3_bundle_is_refused_with_rebuild(tmp_path, capsys):
    _assert_refused_with_rebuild(tmp_path, capsys, 3)


def test_a_version_4_bundle_is_refused_with_rebuild(tmp_path, capsys):
    """Version 4 stored the fcns links ``left`` / ``right`` / ``bparent``
    as three more files; its tree is version 5's, but it is rebuilt."""
    _assert_refused_with_rebuild(tmp_path, capsys, 4)


def _assert_refused_with_rebuild(tmp_path, capsys, version):
    store = DocumentStore(str(tmp_path))
    store.save("good", SMALL)
    store.save("old", SMALL)
    _as_version(store.path_for("old"), version)
    for check in (open_document, verify_document):
        refused = f"version {version}.*rebuild"
        with pytest.raises(StoreFormatError, match=refused):
            check(store.path_for("old"))
    assert main(["store", "verify", store.path_for("old")]) == 1
    assert "rebuild" in capsys.readouterr().out
    table = MountTable([str(tmp_path)])
    found = table.scan()
    try:
        assert list(found.opened) == ["good"]
        assert "rebuild" in found.skipped["old"]["error"]
    finally:
        found.close()
    out = io.StringIO()
    assert main(["store", "query", "//a", store.path_for("good"), "--count"], out) == 0
    assert out.getvalue().strip() == "3"
