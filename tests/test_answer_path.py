"""The answer path: one int64 array from kernel to socket.

Covers the vectorised JSON id encoder, the lazy two-form
:class:`ExecutionResult` and its ownership rule, the count paths that
must never build an id, the spliced response envelope, served-id
identity against the reference semantics through an independent JSON
parser, and the HTTP/1.0 keep-alive rule.
"""

from __future__ import annotations

import gc
import http.client
import io
import json
import pickle
import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.counters import EvalStats
from repro.engine import frontier
from repro.engine.api import Engine
from repro.engine.plan import ExecutionResult, PreparedQuery
from repro.engine.workspace import Workspace
from repro.serve import DaemonThread, QueryDaemon, ServeClient
from repro.serve.http import encode_answer, encode_ids
from repro.store import DocumentStore, open_document
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xmark.generator import XMarkGenerator
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference
from test_differential_fuzz import CORPORA


def reference_bytes(array) -> bytes:
    return json.dumps(np.asarray(array).tolist(), separators=(",", ":")).encode()


# -- (i) the encoder ----------------------------------------------------------


class TestEncodeIds:
    @pytest.mark.parametrize("power", range(1, 9))
    def test_straddles_every_digit_boundary(self, power):
        edge = 10**power
        below = np.arange(max(0, edge - 400), edge, dtype=np.int64)
        above = np.arange(edge, edge + 400, dtype=np.int64)
        for array in (below, above, np.concatenate([below, above])):
            assert encode_ids(array) == reference_bytes(array)

    def test_sparse_ascending_sample_across_all_widths(self):
        rng = np.random.default_rng(14)
        array = np.unique(
            np.concatenate(
                [rng.integers(0, 10**p, size=300) for p in range(1, 9)]
            )
        )
        assert array.size > 1500
        assert encode_ids(array) == reference_bytes(array)

    @pytest.mark.parametrize(
        "array",
        [
            np.array([], dtype=np.int64),
            np.array([7]),
            np.arange(1000, dtype=np.int32),
            np.arange(1000, dtype=np.uint16),
            np.arange(10**8 - 300, 10**8 + 300),  # ids >= 10^8: generic path
            np.array([2**63 - 1] * 300),
            np.array([2**64 - 1] * 300, dtype=np.uint64),
            np.arange(1000)[::-1],  # descending
            np.arange(-500, 500),  # negative
            np.concatenate([np.arange(90, 400), np.arange(0, 80)]),  # unsorted
            np.array([5] * 300),  # duplicates
            np.arange(600).reshape(2, 300),  # not an id list at all
        ],
        ids=lambda a: f"{a.dtype}-{a.shape}-{a.ravel()[:1].tolist()}",
    )
    def test_outside_the_fast_contract_is_still_correct(self, array):
        assert encode_ids(array) == reference_bytes(array)

    def test_accepts_a_plain_list(self):
        assert encode_ids([3, 1, 2]) == b"[3,1,2]"

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(10**3), max_value=2 * 10**8),
            max_size=700,
        ),
        st.booleans(),
    )
    def test_never_a_wrong_byte(self, values, ascending):
        array = np.array(sorted(values) if ascending else values, dtype=np.int64)
        assert encode_ids(array) == reference_bytes(array)

    def test_lookup_tables_stay_small(self):
        from repro.serve import http

        assert sum(lut.nbytes for lut in http._LUTS.values()) <= 64 * 1024


# -- (v) ExecutionResult, list-built and array-built alike ----------------------


def _result(ids, as_array, **counters):
    data = np.array(ids, dtype=np.int64) if as_array else list(ids)
    return ExecutionResult(bool(len(ids)), data, EvalStats(**counters))


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
class TestExecutionResultForms:
    def test_sequence_protocol_and_both_forms(self, as_array):
        result = _result([3, 5, 9], as_array, visited=4)
        assert len(result) == 3
        assert list(result) == [3, 5, 9]
        assert result.nodes == [3, 5, 9]
        assert result.ids == (3, 5, 9) and isinstance(result.ids, tuple)
        assert all(type(v) is int for v in result.ids)
        assert result.ids is result.ids  # cached
        array = result.ids_array
        assert array.dtype == np.int64 and array.tolist() == [3, 5, 9]
        assert array is result.ids_array  # cached
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1

    def test_len_converts_nothing(self, as_array):
        result = _result([1, 2], as_array)
        assert len(result) == 2
        assert (result._ids is None) == as_array
        assert (result._array is None) != as_array

    def test_equality_ignores_the_form(self, as_array):
        result = _result([3, 5], as_array, visited=2)
        assert result == _result([3, 5], not as_array, visited=2)
        assert result != _result([3, 6], as_array, visited=2)
        assert result != _result([3, 5], as_array, visited=3)
        assert result != (3, 5)

    def test_immutable(self, as_array):
        result = _result([1], as_array)
        for name in ("ids", "accepted", "stats", "ids_array"):
            with pytest.raises(AttributeError):
                setattr(result, name, ())

    def test_pickles(self, as_array):
        result = _result([3, 5, 9], as_array, visited=7)
        clone = pickle.loads(pickle.dumps(result))
        assert (clone._ids is None) == as_array  # the form travels as it was
        assert clone == result and clone.stats.visited == 7
        assert not clone.ids_array.flags.writeable


def test_array_strategies_hand_over_the_frontier():
    engine = Engine("<r><a><b/></a><b/></r>")
    for strategy in ("vectorized", "window"):
        result = engine.prepare("//b", strategy=strategy).execute()
        assert result._ids is None and result.ids == (2, 3)
    assert engine.prepare("//b", strategy="optimized").execute()._array is None


# -- (ii) ownership -----------------------------------------------------------


@pytest.fixture(scope="module")
def xmark_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("answer-path")
    DocumentStore(str(root)).add("xmark", XMarkGenerator(scale=0.2, seed=3).xml())
    return str(root)


def _owns_its_data(array) -> bool:
    return array.flags.owndata or (
        isinstance(array.base, np.ndarray) and array.base.flags.owndata
    )


class TestOwnership:
    QUERY = "/site//keyword"

    def test_a_view_of_an_mmap_is_copied_once(self, xmark_store):
        stored = open_document(xmark_store + "/xmark")
        path = parse_xpath(self.QUERY)
        _, raw = frontier.run_kernel(path, stored.index, EvalStats())
        # The premise: the kernel's own answer borrows the mapped column.
        assert raw.size > 100 and not _owns_its_data(raw)
        del raw
        engine = Engine(stored, strategy="vectorized")
        result = engine.prepare(self.QUERY).execute()
        expected = evaluate_reference(engine.tree, path)
        array = result.ids_array
        assert _owns_its_data(array) and not array.flags.writeable
        # With the result (and nothing else) alive, every mapping closes
        # at the first attempt: no BufferError, no gc retry.
        mmaps = list(stored._mapped)
        assert mmaps
        del engine
        gc.collect()
        collected = []
        original = gc.collect
        gc.collect = lambda *a: collected.append(a) or original(*a)
        try:
            stored.close()
        finally:
            gc.collect = original
        assert collected == [] and all(mm.closed for mm in mmaps)
        assert array.tolist() == expected and result.ids == tuple(expected)

    def test_result_outlives_workspace_close(self, xmark_store):
        workspace = Workspace(strategy="window")
        workspace.open_store(xmark_store)
        result = workspace.execute(self.QUERY, "xmark")
        expected = workspace.select(self.QUERY, "xmark")
        workspace.close()
        gc.collect()
        assert result._ids is None and _owns_its_data(result.ids_array)
        assert result.nodes == expected and len(expected) > 100


# -- count paths never build an id -------------------------------------------


@pytest.fixture()
def tuple_requests(monkeypatch):
    """Every ``ExecutionResult.ids`` access while the fixture is active."""
    asked = []
    fget = ExecutionResult.ids.fget
    monkeypatch.setattr(
        ExecutionResult,
        "ids",
        property(lambda self: asked.append(self) or fget(self)),
    )
    return asked


@pytest.fixture()
def executed(monkeypatch):
    """Every result a prepared plan returns while the fixture is active."""
    seen = []
    execute = PreparedQuery.execute

    def spy(self):
        seen.append(execute(self))
        return seen[-1]

    monkeypatch.setattr(PreparedQuery, "execute", spy)
    return seen


class TestCountPaths:
    def test_served_answers_never_build_the_tuple(
        self, xmark_store, executed, tuple_requests
    ):
        query = "//keyword"
        with DaemonThread(QueryDaemon(xmark_store, strategy="vectorized")) as handle:
            with ServeClient(port=handle.port) as client:
                counted = client.query(query, count=True)
                listed = client.query(query)
                batched = client.batch([query], count=True)
        assert "ids" not in counted and counted["count"] == listed["count"]
        assert batched["results"][0]["count"] == listed["count"]
        assert len(executed) == 3 and tuple_requests == []
        for result in executed:
            assert result._ids is None  # the array was the only form
            assert result.ids == tuple(listed["ids"])  # and the tuple still works

    def test_workspace_and_service_count_all(self, xmark_store, tuple_requests):
        with Workspace(strategy="window") as workspace:
            workspace.open_store(xmark_store)
            expected = len(workspace.select("//keyword", "xmark"))
            assert workspace.count_all("//keyword") == {"xmark": expected}
            service = workspace.service(jobs=2)
            assert service.count_all("//keyword") == {"xmark": expected}
        assert tuple_requests == []

    def test_cli_count_flags(self, xmark_store, tmp_path, tuple_requests):
        out = io.StringIO()
        bundle = xmark_store + "/xmark"
        assert cli.main(["store", "query", "//keyword", bundle, "--count"], out) == 0
        count = int(out.getvalue())
        queries = tmp_path / "queries.txt"
        queries.write_text("//keyword\n")
        out = io.StringIO()
        argv = ["batch", "--queries", str(queries), "--xmark", "0.2", "--seed", "3"]
        assert cli.main(argv + ["--count", "--jobs", "2"], out) == 0
        assert list(json.loads(out.getvalue())["results"].values()) == [count]
        assert count > 100 and tuple_requests == []


# -- (iv) the envelope ---------------------------------------------------------


class TestEnvelope:
    def test_splice_survives_hostile_strings(self):
        envelope = {"query": '"ids": [1]} ]{[', "zzz": "}", "count": 2}
        ids = np.array([4, 8])
        body = json.loads(encode_answer(envelope, ids))
        assert body == dict(envelope, ids=[4, 8])
        body = json.loads(encode_answer(envelope))
        assert body == envelope
        nested = encode_answer(
            {"document": "]}"}, results=[(envelope, ids), ({}, None)]
        )
        assert json.loads(nested) == {
            "document": "]}",
            "results": [dict(envelope, ids=[4, 8]), {}],
        }
        empty = np.array([], dtype=np.int64)
        assert json.loads(encode_answer({}, empty)) == {"ids": []}

    def test_ids_come_last_without_spaces(self):
        body = encode_answer({"query": "//a", "count": 3}, np.array([1, 22, 333]))
        assert body == b'{"count": 3, "query": "//a", "ids": [1,22,333]}'

    def test_echoed_query_with_json_syntax_in_it(self, tmp_path):
        xml = "<a><b/><c><d/></c><b><c/></b></a>"
        DocumentStore(str(tmp_path)).add("d", xml)
        tree = BinaryTree.from_document(parse_xml(xml))
        # ids, [ and ] inside the string the daemon echoes back.
        queries = ["//*[b or c]/*[not(d) and not(ids)]", "//*[b or c]/*[ids or c]"]
        answers = [evaluate_reference(tree, parse_xpath(q)) for q in queries]
        assert all(answers)
        with DaemonThread(QueryDaemon(str(tmp_path))) as handle:
            single = _raw_post(handle.port, "/query", {"query": queries[0]})
            batch = _raw_post(handle.port, "/batch", {"queries": queries})
        entries = [single] + batch["results"]
        for entry, query, ids in zip(entries, queries[:1] + queries, answers[:1] + answers):
            assert (entry["query"], entry["ids"]) == (query, ids)
            assert entry["count"] == len(ids)


# -- (iii) served ids == the reference semantics, independent JSON parser -------


def _raw_post(port: int, path: str, payload: dict) -> dict:
    """One request with no ``ServeClient`` involved: stdlib HTTP, then
    ``json.loads`` of the raw body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode())
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    assert response.status == 200, raw
    return json.loads(raw)


def _stored_corpus(directory: str, corpus, encode) -> dict:
    """Store every document of ``corpus``; ``{name: {query: reference ids}}``."""
    store = DocumentStore(directory)
    expected = {}
    for number, (xml, queries) in enumerate(corpus):
        name = f"doc{number}"
        store.add(name, xml, **encode)
        tree = BinaryTree.from_document(parse_xml(xml), **encode)
        expected[name] = {
            query: evaluate_reference(tree, parse_xpath(query)) for query in queries
        }
    return expected


@pytest.mark.parametrize("corpus,encode", CORPORA)
def test_served_ids_match_reference(tmp_path, corpus, encode):
    expected = _stored_corpus(str(tmp_path), corpus, encode)
    with DaemonThread(QueryDaemon(str(tmp_path))) as handle:
        for name, answers in expected.items():
            queries = list(answers)
            batch = _raw_post(
                handle.port, "/batch", {"document": name, "queries": queries}
            )
            assert [entry["ids"] for entry in batch["results"]] == [
                answers[query] for query in queries
            ]
            assert "executor" not in batch
            for query in queries[:4]:
                single = _raw_post(
                    handle.port, "/query", {"document": name, "query": query}
                )
                assert single["ids"] == answers[query], (name, query)
                assert single["count"] == len(answers[query])


@pytest.mark.parametrize("corpus,encode", CORPORA)
def test_pooled_ids_match_reference(tmp_path, corpus, encode):
    """The worker-process pool over the same bundles: each task reopens
    its bundle in the worker and sends the ids back pickled."""
    expected = _stored_corpus(str(tmp_path), corpus, encode)
    with Workspace() as ws:
        ws.open_store(str(tmp_path))
        with ws.service(jobs=2, executor="pool") as service:
            for name, answers in expected.items():
                assert service.select_many(list(answers), name) == answers


# -- HTTP/1.0: close by default, keep-alive on request --------------------------


def _exchange(sock, request: bytes) -> bytes:
    """Send one request; read exactly one response off the socket."""
    sock.sendall(request)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-response"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(
        next(
            line.split(b":")[1]
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"content-length")
        )
    )
    while len(body) < length:
        body += sock.recv(65536)
    return head


class TestHttpVersions:
    @pytest.fixture()
    def port(self, xmark_store):
        with DaemonThread(QueryDaemon(xmark_store)) as handle:
            yield handle.port

    def test_http_1_0_closes_by_default(self, port):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            head = _exchange(sock, b"GET /healthz HTTP/1.0\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200") and b"Connection: close" in head
            assert sock.recv(1) == b""  # EOF, not a client-side timeout

    def test_http_1_0_keep_alive_is_opt_in(self, port):
        request = b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            assert b"Connection: keep-alive" in _exchange(sock, request)
            assert b"Connection: keep-alive" in _exchange(sock, request)

    def test_http_1_1_keeps_the_connection(self, port):
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            assert b"Connection: keep-alive" in _exchange(sock, request)
            assert b"Connection: keep-alive" in _exchange(sock, request)
            closing = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
            assert b"Connection: close" in _exchange(sock, closing)
            assert sock.recv(1) == b""
