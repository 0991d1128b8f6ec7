"""The binary answer frame (``Accept: application/x-repro-ids``).

Four things are held here: the frame decodes to exactly the object the
JSON body of the same answer parses to (hypothesis, the pure functions);
a frame that lies about itself is a ``ServeError`` of kind ``protocol``,
never an ``IndexError`` / ``ValueError`` / ``struct.error`` (a scripted
peer); a request that does not ask gets the JSON bytes the daemon sent
before frames existed, and count-only answers and errors are JSON for
everyone; and the served path -- framed and plain, every executor --
answers what the independent sqlite oracle answers.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_sqlite import SqliteOracle
from repro import faults
from repro.engine.workspace import Workspace
from repro.faults import FaultPlan
from repro.serve import DaemonThread, QueryDaemon, ServeClient, ServeError
from repro.serve.http import (
    _FAST_MIN_IDS,
    FRAME_MAGIC,
    IDS_TYPE,
    decode_answer,
    encode_answer,
    encode_request,
    read_response,
)
from repro.store import save_document
from repro.xmark.generator import XMarkGenerator
from test_differential_fuzz import CORPORA
from test_serve_inline import MAX_WARMUP, MIX20, TINY, until_inline
from test_serve_transport import ScriptedServer, answer_raw, client_for

# -- the pure functions: frame == JSON, as objects -------------------------------

SIZES = st.sampled_from(
    [0, 1, 2, _FAST_MIN_IDS - 1, _FAST_MIN_IDS, _FAST_MIN_IDS + 1]
) | st.integers(0, 600)
#: Where the largest id sits: far inside ``<u4``, on its last value, one past.
TOPS = st.sampled_from([10**5, 2**32 - 1, 2**32, 2**40])
TEXT = st.text(st.characters(codec="utf-8"), max_size=12)


@st.composite
def id_arrays(draw):
    """An ascending ``int64`` array whose largest id is exactly ``top``."""
    size, top = draw(SIZES), draw(TOPS)
    gaps = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    ids = np.cumsum(np.array(gaps, dtype=np.int64))
    return ids + (top - int(ids[-1])) if size else ids


@st.composite
def answers(draw, with_ids=st.booleans()):
    """``(envelope, ids)`` the way ``QueryDaemon._answer`` builds one."""
    ids = draw(id_arrays()) if draw(with_ids) else None
    envelope = {
        "query": draw(TEXT),
        "strategy": draw(st.sampled_from(["auto", "naive", "window"])),
        "count": len(ids) if ids is not None else draw(st.integers(0, 10**6)),
        "timing_ms": {"total": draw(st.floats(0, 10, allow_nan=False))},
    }
    if draw(st.booleans()):
        envelope["labels"] = draw(st.lists(TEXT, max_size=4))
    if draw(st.booleans()):
        envelope["stats"] = draw(
            st.dictionaries(st.sampled_from(["visited", "jumps"]), st.integers(0, 99))
        )
    return envelope, ids


def _width(body: bytes) -> int:
    return body[len(FRAME_MAGIC)]


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(answers(with_ids=st.just(True)))
    def test_query_answer(self, answer):
        envelope, ids = answer
        plain = encode_answer(envelope, ids)
        framed = encode_answer(envelope, ids, frame=True)
        assert framed.startswith(FRAME_MAGIC) and not plain.startswith(FRAME_MAGIC)
        reply = decode_answer(framed)
        assert reply == json.loads(plain) == decode_answer(plain)
        assert list(reply) == list(json.loads(plain))  # "ids" is still last
        assert all(type(v) is int for v in reply["ids"])
        largest = int(ids[-1]) if len(ids) else 0
        assert _width(framed) == (4 if largest < 2**32 else 8)
        if len(ids) > 64:
            assert len(framed) < len(plain)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(answers(), min_size=1, max_size=5), TEXT)
    def test_batch_mixing_count_only_and_id_answers(self, entries, document):
        envelope = {"document": document, "timing_ms": {"total": 0.5}}
        plain = encode_answer(envelope, None, entries)
        framed = encode_answer(envelope, None, entries, frame=True)
        assert decode_answer(framed) == json.loads(plain)
        holds_ids = any(ids is not None for _entry, ids in entries)
        assert framed.startswith(FRAME_MAGIC) == holds_ids
        if not holds_ids:
            assert framed == plain  # count-only: the JSON bytes, untouched
        else:
            tops = [int(ids[-1]) for _e, ids in entries if ids is not None and len(ids)]
            assert _width(framed) == (4 if max(tops, default=0) < 2**32 else 8)

    @given(answers(with_ids=st.just(False)))
    def test_count_only_answer_is_never_framed(self, answer):
        envelope, _none = answer
        assert encode_answer(envelope, frame=True) == encode_answer(envelope)

    @pytest.mark.parametrize(
        "envelope,ids",
        [
            ({"count": 2}, np.array([-1, 4])),  # no unsigned form
            ({"count": 2}, np.array([1.0, 4.0])),  # not integers
            ({"count": 3}, np.array([1, 4])),  # the reader goes by count
            ({}, np.array([1, 4])),
        ],
        ids=["negative", "float", "count-mismatch", "count-missing"],
    )
    def test_an_answer_no_reader_could_unframe_stays_json(self, envelope, ids):
        assert encode_answer(envelope, ids, frame=True) == encode_answer(envelope, ids)

    def test_layout(self):
        """The frame as DESIGN.md "Wire format" states it, read with
        ``struct`` alone."""
        ids = np.array([3, 70000, 2**32 - 1])
        body = encode_answer({"query": "//a", "count": 3}, ids, frame=True)
        magic, width, head_length = struct.unpack_from("<4sBI", body)
        assert (magic, width) == (b"\x93IDS", 4)
        head = body[9 : 9 + head_length]
        assert json.loads(head) == {"count": 3, "query": "//a", "ids": None}
        assert (9 + head_length) % 8 == 0
        assert struct.unpack_from("<3I", body, 9 + head_length) == tuple(ids)
        assert len(body) == 9 + head_length + 3 * 4
        wide = encode_answer({"count": 1}, np.array([2**32]), frame=True)
        assert _width(wide) == 8 and wide.endswith(struct.pack("<Q", 2**32))


# -- hostile frames: a peer that lies ----------------------------------------------


def frame(head, blocks=b"", width=4, magic=FRAME_MAGIC, head_length=None):
    head = head if isinstance(head, bytes) else json.dumps(head).encode()
    length = len(head) if head_length is None else head_length
    return magic + struct.pack("<BI", width, length) + head + blocks


def framed_response(body: bytes) -> bytes:
    return (
        f"HTTP/1.1 200 OK\r\nContent-Type: {IDS_TYPE}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode() + body


TWO = struct.pack("<2I", 5, 9)
ANSWER = {"count": 2, "ids": None}
HOSTILE = {
    "bad_magic": frame(ANSWER, TWO, magic=b"\x93IDZ"),
    "header_cut_short": FRAME_MAGIC + b"\x04\x00",
    "unknown_itemsize": frame(ANSWER, TWO, width=3),
    "itemsize_zero": frame(ANSWER, b"", width=0),
    "head_length_past_the_body": frame(ANSWER, TWO, head_length=10**6),
    "head_length_of_all_ones": frame(ANSWER, TWO, head_length=2**32 - 1),
    "more_block_bytes_than_count": frame(ANSWER, TWO + b"\x00" * 4),
    "truncated_block": frame(ANSWER, TWO[:-1]),
    "no_block_at_all": frame(ANSWER),
    "width_and_block_disagree": frame(ANSWER, TWO, width=8),
    "head_is_a_list": frame([1, 2], TWO),
    "head_is_a_number": frame(b"7", TWO),
    "head_is_not_json": frame(b"{'count': 2}", TWO),
    "head_is_not_utf8": frame(b'{"q": "\xff"}', TWO),
    "results_is_not_a_list": frame({"results": {"ids": None, "count": 2}}, TWO),
    "count_missing": frame({"ids": None}, TWO),
    "count_negative": frame({"count": -2, "ids": None}, TWO),
    "count_is_a_float": frame({"count": 2.0, "ids": None}, TWO),
    "count_is_a_bool": frame({"count": True, "ids": None}, TWO[:4]),
    "count_is_huge": frame({"count": 2**70, "ids": None}, TWO),
    "batch_counts_sum_past_the_blocks": frame(
        {"results": [{"count": 1, "ids": None}, {"count": 2, "ids": None}]}, TWO
    ),
    "blocks_for_a_count_only_batch": frame({"results": [{"count": 2}]}, TWO),
}


@pytest.mark.parametrize("body", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_frame_is_a_protocol_error_and_drops_the_connection(body):
    with pytest.raises(ValueError):
        decode_answer(body)
    with ScriptedServer(answer_raw(framed_response(body))) as server:
        with client_for(server, retries=2) as client:
            with pytest.raises(ServeError) as excinfo:
                client.query("//a")
            assert excinfo.value.kind == "protocol" and excinfo.value.status == 200
            assert client._sock is None and client._surplus == b""
    # Not a transport failure: nothing was retried.
    assert server.connections == 1 and client.slept == []


def test_a_sound_frame_from_a_scripted_peer_is_read_and_the_stream_stays_in_step():
    first = encode_answer({"count": 2, "query": "//a"}, np.array([5, 9]), frame=True)

    def script(server, conn):
        head, _body = server.read(conn)
        assert f"accept: {IDS_TYPE}".encode() in head.lower()
        # Two responses in one segment: the frame, then JSON.
        conn.sendall(framed_response(first) + framed_response(b'{"after": true}'))
        server.read(conn)

    with ScriptedServer(script) as server:
        with client_for(server) as client:
            assert client.query("//a") == {"count": 2, "query": "//a", "ids": [5, 9]}
            assert client.healthz() == {"after": True}


# -- the daemon: who gets a frame, and that it says the same -----------------------

#: Differs between two runs of one request, and in nothing else.
RUN = re.compile(rb'"executor": "[a-z]+", |"timing_ms": \{[^{}]*\}, ')


def parent_body(reply: dict) -> bytes:
    """The body the daemon sent for ``reply`` before frames existed
    (commit 281e64f), written out independently of ``encode_answer``:
    sorted envelope, then ``results``, then ``ids`` without spaces."""
    envelope = {k: v for k, v in reply.items() if k not in ("ids", "results")}
    members = [json.dumps(envelope, sort_keys=True)[1:-1]]
    if "results" in reply:
        entries = ", ".join(parent_body(r).decode() for r in reply["results"])
        members.append('"results": [' + entries + "]")
    if "ids" in reply:
        members.append('"ids": ' + json.dumps(reply["ids"], separators=(",", ":")))
    return ("{" + ", ".join(m for m in members if m) + "}").encode()


def post(port, path, payload, accept=None):
    """One stdlib-HTTP request: ``(status, content type, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Accept": accept} if accept else {}
        conn.request("POST", path, body=json.dumps(payload).encode(), headers=headers)
        response = conn.getresponse()
        return response.status, response.getheader("Content-Type"), response.read()
    finally:
        conn.close()


def plain_post(sock, path, payload) -> bytes:
    """A bare ``encode_request`` -- no ``Accept`` -- over ``sock``."""
    sock.sendall(encode_request("POST", path, "test", json.dumps(payload).encode()))
    status, _keep_alive, raw, surplus = read_response(sock)
    assert status == 200 and surplus == b"", (status, bytes(raw[:200]))
    return bytes(raw)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("frame-corpus")
    ws = Workspace()
    ws.add("xmark", XMarkGenerator(scale=0.05, seed=7).xml())
    ws.add("tiny", TINY)
    ws.save(str(root))
    ws.close()
    return str(root)


@pytest.fixture()
def daemon(store_dir):
    with DaemonThread(QueryDaemon(store_dir, workers=2, timeout=10.0)) as handle:
        yield handle.daemon


@pytest.fixture()
def sock(daemon):
    with socket.create_connection(("127.0.0.1", daemon.port), 5) as connection:
        yield connection


@pytest.fixture()
def client(daemon):
    with ServeClient(port=daemon.port, retries=0) as c:
        yield c


class TestWhoGetsAFrame:
    def test_without_accept_the_bytes_are_the_parents_over_mix20(
        self, daemon, sock, client
    ):
        """``/query`` per query and one ``/batch`` of the mix: the plain
        body is byte for byte what the parent's encoder made of the
        same answer, and the framed reply is that answer."""
        for query in MIX20:
            body = {"query": query, "document": "xmark"}
            plain_post(sock, "/query", body)  # cold: builds the plan
            plain = plain_post(sock, "/query", body)
            framed = client.query(query, document="xmark")
            assert RUN.sub(b"", plain) == RUN.sub(b"", parent_body(framed)), query
            assert b'"ids": [' in plain and type(framed["ids"]) is list
        body = {"queries": MIX20, "document": "xmark"}
        plain = plain_post(sock, "/batch", body)
        framed = client.batch(MIX20, document="xmark")
        assert RUN.sub(b"", plain) == RUN.sub(b"", parent_body(framed))
        assert plain.count(b'"ids": [') == len(MIX20)
        counters = daemon.stats()["counters"]
        assert counters["framed"] == len(MIX20) + 1

    def test_media_types(self, daemon):
        port = daemon.port
        query = {"query": "//keyword", "document": "xmark"}
        status, media, body = post(port, "/query", query, accept=IDS_TYPE)
        assert (status, media) == (200, IDS_TYPE) and body.startswith(FRAME_MAGIC)
        listed = f"application/json;q=0.5, {IDS_TYPE}"
        assert post(port, "/query", query, accept=listed)[1] == IDS_TYPE
        batch = {"queries": ["//keyword", "//item"], "document": "xmark"}
        assert post(port, "/batch", batch, accept=IDS_TYPE)[1] == IDS_TYPE
        # Did not ask: JSON.
        for accept in (None, "application/json", "*/*"):
            status, media, body = post(port, "/query", query, accept=accept)
            assert (status, media) == (200, "application/json"), accept
            assert json.loads(body)["ids"]
        # Asked, but there is no id array to frame: JSON.
        for path, payload, expected in [
            ("/query", dict(query, count=True), 200),
            ("/batch", dict(batch, count=True), 200),
            ("/reload", {}, 200),
            ("/query", {"query": "//a["}, 400),
            ("/query", {"query": "//a", "document": "nope"}, 404),
            ("/query", {"query": "//a", "count": "yes"}, 400),
            ("/nowhere", {}, 404),
            ("/stats", {}, 405),
        ]:
            status, media, body = post(port, path, payload, accept=IDS_TYPE)
            assert (status, media) == (expected, "application/json"), path
            assert isinstance(json.loads(body), dict)
        # /stats is never count-only *or* ids: always JSON, and it counted.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/stats", headers={"Accept": IDS_TYPE})
            response = conn.getresponse()
            assert response.getheader("Content-Type") == "application/json"
            counters = json.loads(response.read())["counters"]
        finally:
            conn.close()
        assert counters["framed"] == 3

    def test_framed_is_a_counter_of_its_own(self, daemon, client):
        client.query("//keyword", document="xmark")
        client.query("//keyword", document="xmark", count=True)
        stats = client.stats()
        assert stats["counters"]["framed"] == 1
        assert "framed" not in stats["errors"]


# -- framed == JSON for every executor ----------------------------------------------


def same_answer(framed: dict, plain: bytes):
    """The two encodings of one request, minus what differs run to run."""

    def strip(reply):
        reply = {k: v for k, v in reply.items() if k not in ("timing_ms", "executor")}
        if "results" in reply:
            reply["results"] = [strip(entry) for entry in reply["results"]]
        return reply

    assert strip(framed) == strip(json.loads(plain))


class TestEveryExecutor:
    QUERY = "//listitem//keyword"

    @pytest.mark.parametrize("flags", [{}, {"labels": True}, {"stats": True}])
    def test_inline_and_thread(self, client, sock, flags):
        body = {"query": self.QUERY, "document": "xmark", **flags}
        # An inline run that comes out slow on a loaded host sends the
        # next request back to the thread: warm until both ran inline.
        for _ in range(MAX_WARMUP):
            framed = until_inline(client, self.QUERY, document="xmark", **flags)[-1]
            plain = plain_post(sock, "/query", body)
            if b'"executor": "inline"' in plain:
                break
        assert b'"executor": "inline"' in plain
        same_answer(framed, plain)
        with faults.active(FaultPlan()):  # armed: the thread path
            framed = client.query(self.QUERY, document="xmark", **flags)
            plain = plain_post(sock, "/query", body)
        assert framed["executor"] == "thread" and b'"executor": "thread"' in plain
        same_answer(framed, plain)
        assert framed["ids"] and framed["count"] == len(framed["ids"])

    def test_naive_fallback(self, daemon, client, sock):
        body = {"query": self.QUERY, "document": "xmark"}
        client.batch([self.QUERY, "//item"], document="xmark")  # both plans warm
        plan = FaultPlan()
        plan.add("serve.evaluate", "exception", unless={"strategy": "naive"})
        with faults.active(plan):
            framed = client.query(self.QUERY, document="xmark")
            plain = plain_post(sock, "/query", body)
            framed_batch = client.batch([self.QUERY, "//item"], document="xmark")
            plain_batch = plain_post(
                sock, "/batch", {"queries": [self.QUERY, "//item"], "document": "xmark"}
            )
        assert framed["fallback"] == "naive" and b'"fallback": "naive"' in plain
        same_answer(framed, plain)
        same_answer(framed_batch, plain_batch)
        assert [e["fallback"] for e in framed_batch["results"]] == ["naive"] * 2
        assert daemon.stats()["counters"]["fallback_successes"] == 6
        assert framed["ids"] == daemon.workspace.select(self.QUERY, "xmark")


# -- the served path against the independent oracle ---------------------------------


@pytest.mark.parametrize("corpus,encode", CORPORA)
def test_served_path_matches_independent_oracle(tmp_path, corpus, encode):
    """ROADMAP 5(a), the served half: ``ServeClient.query`` / ``.batch``
    (framed) and a bare ``encode_request`` without ``Accept`` (JSON),
    under ``auto``, ``optimized`` and ``naive``, answer what sqlite
    answers over a table no part of the system built."""
    expected = {}
    for number, (xml, queries) in enumerate(corpus):
        name = f"doc{number}"
        save_document(xml, str(tmp_path / name), **encode)
        oracle = SqliteOracle(xml, **encode)
        expected[name] = {query: oracle.select(query) for query in queries}
    cases = 0
    with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
        port = handle.port
        with ServeClient(port=port, retries=0) as client:
            with socket.create_connection(("127.0.0.1", port), 5) as sock:
                for name, answers_ in expected.items():
                    queries, ids = list(answers_), list(answers_.values())
                    for strategy in ("auto", "optimized", "naive"):
                        where = {"document": name, "strategy": strategy}
                        framed = client.batch(queries, **where)
                        plain = json.loads(
                            plain_post(sock, "/batch", {"queries": queries, **where})
                        )
                        for reply in (framed, plain):
                            got = [entry["ids"] for entry in reply["results"]]
                            assert got == ids, (name, strategy)
                        for query in queries[:3]:
                            framed = client.query(query, **where)
                            plain = json.loads(
                                plain_post(sock, "/query", {"query": query, **where})
                            )
                            assert framed["ids"] == plain["ids"] == answers_[query], (
                                name, strategy, query,
                            )
                            assert framed["count"] == len(answers_[query])
                        cases += len(queries)
        counters = handle.daemon.stats()["counters"]
    assert cases >= 3 * 48
    assert counters["fallbacks"] == 0 and counters["eval_failures"] == 0
    assert counters["framed"] == len(expected) * 3 * 4
