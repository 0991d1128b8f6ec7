"""The persistent query daemon: concurrency, admission, errors, identity."""

import asyncio
import json
import multiprocessing
import socket
import threading
import time

import pytest

from repro.engine.workspace import Workspace
from repro.serve import (
    DaemonThread,
    QueryDaemon,
    ServeClient,
    ServeError,
    format_rows,
)
from repro.serve.http import (
    FRAME_MAGIC,
    IDS_TYPE,
    Connection,
    MAX_HEADER_BYTES,
    MAX_HEADERS,
    decode_answer,
    encode_request,
    read_response,
)
from repro.xmark.generator import XMarkGenerator

QUERY_MIX = [
    "//keyword",
    "/site/regions//item",
    "//person[address]",
    "//description//emph",
    "/site/open_auctions/open_auction",
    "//item[location]/description",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A two-document store corpus plus the serial oracle answers."""
    root = tmp_path_factory.mktemp("serve-corpus")
    ws = Workspace()
    ws.add("xmark", XMarkGenerator(scale=0.05, seed=7).xml())
    ws.add("tiny", "<r><a><b/></a><a/><c><b/></c></r>")
    ws.save(str(root))
    oracle = {
        ("xmark", q): ws.select(q, "xmark") for q in QUERY_MIX
    }
    oracle[("tiny", "//a/b")] = ws.select("//a/b", "tiny")
    ws.close()
    return str(root), oracle


@pytest.fixture(scope="module")
def daemon(corpus):
    root, _ = corpus
    # Enough admission headroom for the 16-parallel-client tests.
    with DaemonThread(
        QueryDaemon(root, workers=2, queue_depth=32, timeout=10.0)
    ) as handle:
        yield handle.daemon


@pytest.fixture()
def client(daemon):
    with ServeClient(port=daemon.port) as c:
        yield c


class TestBasicServing:
    def test_healthz(self, client):
        payload = client.healthz()
        assert payload["ok"] is True
        assert sorted(payload["documents"]) == ["tiny", "xmark"]

    def test_query_matches_serial_oracle(self, corpus, client):
        _, oracle = corpus
        for (doc, query), expected in oracle.items():
            payload = client.query(query, document=doc)
            assert payload["ids"] == expected, (doc, query)
            assert payload["count"] == len(expected)

    def test_count_only_omits_ids(self, client):
        payload = client.query("//keyword", document="xmark", count=True)
        assert "ids" not in payload
        assert payload["count"] > 0

    def test_labels_and_stats(self, corpus, client):
        _, oracle = corpus
        payload = client.query(
            "//a/b", document="tiny", labels=True, stats=True
        )
        assert payload["ids"] == oracle[("tiny", "//a/b")]
        assert payload["labels"] == ["b"] * len(payload["ids"])
        assert payload["stats"]["selected"] == len(payload["ids"])

    def test_warm_repeat_skips_prepare(self, client):
        cold = client.query("//person[address]", document="xmark")
        compiled_before = client.stats()["caches"]["compiled"]["compilations"]
        warm = client.query("//person[address]", document="xmark")
        compiled_after = client.stats()["caches"]["compiled"]["compilations"]
        assert warm["warm"] is True
        assert warm["ids"] == cold["ids"]
        # No re-parse/re-plan on the warm path: the daemon's plan map
        # answered, so the shared compiled cache saw no new compilation.
        assert compiled_after == compiled_before
        assert warm["timing_ms"]["prepare"] <= warm["timing_ms"]["total"]

    def test_batch_matches_singles(self, corpus, client):
        _, oracle = corpus
        payload = client.batch(QUERY_MIX, document="xmark")
        assert [e["query"] for e in payload["results"]] == QUERY_MIX
        for entry in payload["results"]:
            assert entry["ids"] == oracle[("xmark", entry["query"])]

    @pytest.mark.parametrize("strategy", ["naive", "optimized", "vectorized", "window"])
    def test_strategy_override_batch_matches_oracle(self, corpus, client, strategy):
        _, oracle = corpus
        payload = client.batch(QUERY_MIX, document="xmark", strategy=strategy)
        assert "executor" not in payload
        got = {entry["query"]: entry["ids"] for entry in payload["results"]}
        assert got == {q: oracle[("xmark", q)] for q in QUERY_MIX}

    def test_explain_exposes_what_executes(self, client):
        payload = client.explain("//keyword", document="xmark")
        assert payload["strategy"] == "auto"
        assert payload["executes_as"] == "window"
        assert payload["operators"] == ["document"]
        assert "planner" not in payload
        assert payload["text"].startswith("strategy:")

    @pytest.mark.parametrize("strategy", ["window", "vectorized"])
    def test_explain_states_operators_under_every_kernel_name(self, client, strategy):
        auto = client.explain("//keyword", document="xmark")
        named = client._request(
            "GET",
            "/explain",
            params={"query": "//keyword", "document": "xmark", "strategy": strategy},
        )
        assert named["strategy"] == strategy and "executes_as" not in named
        assert named["operators"] == auto["operators"] == ["document"]

    def test_stats_shape(self, client):
        payload = client.stats()
        assert payload["admission"]["limit"] == 2 + 32
        assert payload["documents"]["xmark"]["nodes"] > 0
        assert payload["counters"]["queries"] > 0
        assert payload["prepared"]["size"] >= 1
        assert "compiled" in payload["caches"]

    def test_every_request_is_answered_in_process(self, client):
        children = {p.pid for p in multiprocessing.active_children()}
        assert "executor" not in client.batch(QUERY_MIX, document="xmark")
        reply = client.query(QUERY_MIX[0], document="xmark")
        assert reply["executor"] in ("thread", "inline")
        assert {p.pid for p in multiprocessing.active_children()} <= children
        stats = client.stats()
        assert "pool" not in stats
        assert not [key for key in stats["counters"] if key.startswith("pool")]


class TestStructuredErrors:
    def test_syntax_error_carries_offset(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.query("//a[", document="tiny")
        err = excinfo.value
        assert err.status == 400 and err.kind == "syntax"
        assert err.payload["error"]["offset"] == 4
        assert err.payload["error"]["query"] == "//a["

    def test_ten_thousand_nested_predicates_are_a_syntax_error(self, client):
        before = client.stats()["counters"]
        query = "/a" + "[b" * 10**4 + "]" * 10**4
        with pytest.raises(ServeError) as excinfo:
            client.query(query, document="tiny")
        err = excinfo.value
        assert err.status == 400 and err.kind == "syntax"
        assert err.payload["error"]["message"].startswith("nesting deeper than")
        after = client.stats()["counters"]
        assert after["syntax_errors"] == before["syntax_errors"] + 1
        assert after["internal_errors"] == before["internal_errors"]

    @pytest.mark.parametrize(
        "query, axis",
        [
            ("//a/preceding::b", "preceding"),
            ("//a/following::b", "following"),
            ("//a/self::b", "self"),
        ],
    )
    def test_an_axis_outside_the_fragment_is_named(self, client, query, axis):
        with pytest.raises(ServeError) as excinfo:
            client.query(query, document="tiny")
        err = excinfo.value
        assert err.status == 400 and err.kind == "syntax"
        assert err.payload["error"]["message"] == f"unsupported axis {axis!r}"
        assert err.payload["error"]["offset"] == 4

    def test_relative_path_is_the_clients_problem(self, client):
        for strategy in ("auto", "mixed"):
            with pytest.raises(ServeError) as excinfo:
                client.query("c/parent::b", document="tiny", strategy=strategy)
            assert excinfo.value.status == 400
            assert excinfo.value.payload == {
                "error": {
                    "kind": "unsupported",
                    "message": "top-level queries must be absolute (start with /)",
                }
            }

    def test_unknown_document_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.query("//a", document="nope")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "unknown_document"
        assert "documents" in excinfo.value.payload["error"]

    def test_document_required_when_ambiguous(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.query("//a")
        assert excinfo.value.status == 400

    def test_bad_field_types(self, client):
        for body in (
            {"query": ""},
            {"query": 42},
            {"query": "//a", "document": "tiny", "count": "yes"},
            {"query": "//a", "document": "tiny", "timeout_s": -1},
            {"query": "//a", "document": "tiny", "timeout_s": True},
            {"query": "//a", "document": "tiny", "timeout_s": float("nan")},
            {"query": "//a", "document": "tiny", "timeout_s": float("inf")},
            {"query": "//a", "document": "tiny", "strategy": "bogus"},
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/query", body=body)
            assert excinfo.value.status == 400, body
            assert excinfo.value.kind == "bad_request", body

    def test_a_document_that_is_not_a_string_is_the_clients_problem(
        self, client
    ):
        internal = client.stats()["counters"]["internal_errors"]
        for document in (["tiny"], {"tiny": 1}, 3):
            for path, body in (
                ("/query", {"query": "//a"}),
                ("/batch", {"queries": ["//a"]}),
            ):
                with pytest.raises(ServeError) as excinfo:
                    client._request(
                        "POST", path, body={**body, "document": document}
                    )
                assert excinfo.value.status == 400, (path, document)
                assert excinfo.value.kind == "bad_request", (path, document)
                assert "'document'" in str(excinfo.value), (path, document)
        assert client.stats()["counters"]["internal_errors"] == internal

    def test_bad_batch_payloads(self, client):
        for queries, extra in (
            (None, {}),
            ([], {}),
            (["//a", 3], {}),
            ("nope", {}),
            (["//a"], {"timeout_s": float("nan")}),
        ):
            with pytest.raises(ServeError) as excinfo:
                client._request(
                    "POST",
                    "/batch",
                    body={"document": "tiny", "queries": queries, **extra},
                )
            assert excinfo.value.status == 400, (queries, extra)
            assert excinfo.value.kind == "bad_request", (queries, extra)

    def test_unknown_route_and_method(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/query")
        assert excinfo.value.status == 405

    def test_invalid_json_body(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 5\r\n\r\n{oops"
            )
            response = sock.recv(65536)
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"bad_request" in response

    def test_malformed_request_line_closes_connection(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(b"NOT-HTTP\r\n\r\n")
            response = sock.recv(65536)
            assert b"400" in response.split(b"\r\n", 1)[0]
            # The daemon answered Connection: close and drops the socket.
            assert b"close" in response.lower()


class TestExpectContinue:
    """``Expect: 100-continue``: curl sends it for large bodies, several
    HTTP libraries for every POST, and then wait for the interim line."""

    BODY = json.dumps({"query": "//a/b", "document": "tiny"}).encode()

    def head(self, length):
        return (
            b"POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % length
        )

    def test_interim_response_arrives_before_the_body_is_sent(
        self, corpus, daemon
    ):
        _, oracle = corpus
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.settimeout(5)
            t0 = time.perf_counter()
            sock.sendall(self.head(len(self.BODY)))
            interim = sock.recv(65536)
            assert time.perf_counter() - t0 < 0.1
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(self.BODY)
            final = sock.recv(65536)
            # The connection is still in step: a plain request follows.
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")
        head, _, body = final.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        reply = json.loads(body)
        assert reply["ids"] == oracle[("tiny", "//a/b")]
        with ServeClient(port=daemon.port) as plain:
            expected = plain.query("//a/b", document="tiny")
        same = ("query", "document", "strategy", "count", "ids")
        assert [reply[k] for k in same] == [expected[k] for k in same]

    def test_oversize_body_is_refused_unread_with_no_interim(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.settimeout(5)
            sock.sendall(self.head(daemon.max_body + 1))
            response = sock.recv(65536)
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b"100 Continue" not in response

    def test_bodyless_and_http_1_0_requests_get_no_interim(self, daemon):
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.settimeout(5)
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Expect: 100-continue\r\n\r\n"
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")
            # HTTP/1.0 has no interim responses: send the body unasked.
            sock.sendall(
                self.head(len(self.BODY)).replace(b"HTTP/1.1", b"HTTP/1.0")
                + self.BODY
            )
            assert sock.recv(65536).startswith(b"HTTP/1.1 200 OK")


def read_to_eof(sock):
    """Everything the daemon sends until it closes the connection."""
    sock.settimeout(5)
    data = b""
    while chunk := sock.recv(65536):
        data += chunk
    return data


def query_request(body, accept=None):
    return encode_request(
        "POST", "/query", "x", json.dumps(body).encode(), accept=accept
    )


#: A request ``read_request`` refuses -> (raw bytes, status).  Each is
#: answered once and the connection is closed after the answer.
REFUSALS = {
    "head_too_large": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: "
        + b"a" * MAX_HEADER_BYTES
        + b"\r\n\r\n",
        431,
    ),
    "too_many_headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-%d: y\r\n" % i for i in range(MAX_HEADERS + 1))
        + b"\r\n",
        431,
    ),
    "chunked_body": (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        400,
    ),
    "content_length_not_a_number": (
        b"POST /query HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        400,
    ),
    "negative_content_length": (
        b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        400,
    ),
    "unsupported_version": (b"GET /healthz HTTP/2.0\r\n\r\n", 400),
    "request_line_without_version": (b"GET /healthz\r\n\r\n", 400),
    "header_without_colon": (b"GET /healthz HTTP/1.1\r\nNo colon\r\n\r\n", 400),
}


class TestTransport:
    """What the connection layer does with bytes, whatever carries them."""

    def test_two_pipelined_requests_get_two_answers_in_order(self, daemon):
        # The first is cold (so it waits for a worker thread), the second
        # is answered at once: the order on the wire is still the order
        # asked in.
        first = query_request(
            {"query": "//c/b", "document": "tiny", "strategy": "jumping"}
        )
        second = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.settimeout(5)
            sock.sendall(first + second)
            status, keep_alive, body, surplus = read_response(sock)
            assert status == 200 and keep_alive
            reply = json.loads(body)
            assert reply["query"] == "//c/b" and reply["ids"] == [5]
            status, keep_alive, body, surplus = read_response(sock, surplus)
            assert status == 200 and keep_alive and surplus == b""
            assert json.loads(body)["ok"] is True

    def test_a_request_sent_one_byte_at_a_time_is_answered(self, corpus, daemon):
        _, oracle = corpus
        raw = query_request({"query": "//a/b", "document": "tiny"})
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(5)
            for byte in raw:
                sock.send(bytes([byte]))
            status, _keep_alive, body, surplus = read_response(sock)
        assert status == 200 and surplus == b""
        assert json.loads(body)["ids"] == oracle[("tiny", "//a/b")]

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_a_refused_request_is_answered_and_the_connection_closed(
        self, daemon, case
    ):
        raw, status = REFUSALS[case]
        self.refused(daemon, raw, status)

    def test_a_body_over_max_body_is_refused_unread(self, daemon):
        head = b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (
            daemon.max_body + 1
        )
        self.refused(daemon, head, 413)

    @pytest.mark.parametrize(
        "raw",
        [
            b"GET /healthz HTTP/1.1\r\nHost:",
            b"POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
        ],
        ids=["head", "body"],
    )
    def test_a_request_cut_short_by_eof_is_refused(self, daemon, raw):
        self.refused(daemon, raw, 400, shut=True)

    def test_twenty_pipelined_id_lists_arrive_intact_and_in_order(
        self, tmp_path_factory, monkeypatch
    ):
        # Far more answer bytes than the socket buffers hold while the
        # peer reads nothing until it has sent everything: the daemon has
        # to stop and restart writing on the way (the daemon's send
        # buffer is made small, so the kernel cannot absorb it all).
        root = tmp_path_factory.mktemp("serve-flow")
        ws = Workspace()
        ws.add("big", XMarkGenerator(scale=0.5, seed=11).xml())
        queries = ["//*", "//keyword", "//*", "//listitem//keyword"] * 5
        oracle = {q: ws.select(q, "big") for q in set(queries)}
        ws.save(str(root))
        ws.close()
        pauses = []
        made, pause = Connection.connection_made, Connection.pause_writing

        def small_send_buffer(connection, transport):
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 8192
            )
            made(connection, transport)

        def counted_pause(connection):
            pauses.append(connection)
            pause(connection)

        monkeypatch.setattr(Connection, "connection_made", small_send_buffer)
        monkeypatch.setattr(Connection, "pause_writing", counted_pause)
        with DaemonThread(QueryDaemon(str(root), workers=2)) as handle:
            with socket.create_connection(("127.0.0.1", handle.port)) as sock:
                sock.settimeout(30)
                sock.sendall(
                    b"".join(
                        query_request({"query": q}, accept=IDS_TYPE)
                        for q in queries
                    )
                )
                deadline = time.monotonic() + 10
                while not pauses and time.monotonic() < deadline:
                    time.sleep(0.01)  # let the daemon run into a full socket
                assert pauses, "the daemon never had to stop writing"
                surplus = b""
                for query in queries:
                    status, _keep_alive, body, surplus = read_response(
                        sock, surplus
                    )
                    assert status == 200
                    assert bytes(body[:4]) == FRAME_MAGIC
                    reply = decode_answer(body)
                    assert reply["query"] == query
                    assert reply["ids"] == oracle[query], query
                assert surplus == b""

    def refused(self, daemon, raw, status, shut=False):
        with socket.create_connection(("127.0.0.1", daemon.port)) as sock:
            sock.sendall(raw)
            if shut:
                sock.shutdown(socket.SHUT_WR)
            response = read_to_eof(sock)
        head, _, body = response.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].startswith(b"HTTP/1.1 %d " % status), response[:200]
        assert b"Connection: close" in lines
        assert json.loads(body)["error"]["kind"] == "bad_request"


class FakeTransport:
    """What a :class:`Connection` uses of its transport, recorded; a
    write can push back as a full socket would (``push_back``)."""

    def __init__(self):
        self.written, self.reading, self.closing = [], True, False
        self.push_back = None

    def write(self, data):
        self.written.append(bytes(data))
        if self.push_back is not None:
            self.push_back.pause_writing()

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


class TestFlowControl:
    HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @pytest.fixture()
    def connection(self, corpus):
        daemon = QueryDaemon(corpus[0], workers=1)
        connection, transport = Connection(daemon), FakeTransport()
        connection.connection_made(transport)
        yield connection, transport
        asyncio.run(daemon.stop(drain_timeout=0.1))

    def test_nothing_buffered_is_answered_while_writing_is_paused(
        self, connection
    ):
        connection, transport = connection
        connection.data_received(self.HEALTHZ)
        assert len(transport.written) == 1  # answered in the read callback
        connection.pause_writing()
        connection.data_received(self.HEALTHZ * 3)
        assert len(transport.written) == 1 and not transport.reading
        connection.resume_writing()
        assert len(transport.written) == 4 and transport.reading
        assert all(
            body.startswith(b"HTTP/1.1 200 OK") for body in transport.written
        )

    def test_a_write_that_pushes_back_stops_the_requests_behind_it(
        self, connection
    ):
        connection, transport = connection
        transport.push_back = connection
        connection.data_received(self.HEALTHZ * 3)
        assert len(transport.written) == 1
        transport.push_back = None
        connection.resume_writing()
        assert len(transport.written) == 3
        assert not connection._buffer and not transport.closing


class TestConcurrency:
    def test_sixteen_parallel_clients_identical_results(self, corpus, daemon):
        _, oracle = corpus
        keys = [k for k in oracle if k[0] == "xmark"]
        failures = []

        def worker(seed: int) -> None:
            try:
                with ServeClient(port=daemon.port) as c:
                    for i in range(6):
                        doc, query = keys[(seed + i) % len(keys)]
                        payload = c.query(query, document=doc)
                        if payload["ids"] != oracle[(doc, query)]:
                            failures.append((doc, query, payload["ids"]))
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                failures.append((seed, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_mixed_endpoints_under_concurrency(self, corpus, daemon):
        _, oracle = corpus
        errors = []

        def query_worker():
            with ServeClient(port=daemon.port) as c:
                for _ in range(4):
                    payload = c.query("//keyword", document="xmark")
                    if payload["ids"] != oracle[("xmark", "//keyword")]:
                        errors.append("query mismatch")

        def batch_worker():
            with ServeClient(port=daemon.port) as c:
                payload = c.batch(QUERY_MIX[:3], document="xmark")
                for entry in payload["results"]:
                    if entry["ids"] != oracle[("xmark", entry["query"])]:
                        errors.append("batch mismatch")

        def explain_worker():
            with ServeClient(port=daemon.port) as c:
                for _ in range(3):
                    payload = c.explain("//keyword", document="xmark")
                    if payload["strategy"] != "auto":
                        errors.append("explain mismatch")

        def wrapped(fn):
            def run():
                try:
                    fn()
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))

            return run

        threads = [
            threading.Thread(target=wrapped(fn))
            for fn in (query_worker, batch_worker, explain_worker)
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestAdmissionAndTimeouts:
    @pytest.fixture()
    def tight_daemon(self, corpus):
        """One worker, zero queue slack: limit = 1 request in flight."""
        root, _ = corpus
        with DaemonThread(
            QueryDaemon(root, workers=1, queue_depth=0, timeout=5.0)
        ) as handle:
            yield handle.daemon

    def test_overflow_answers_429_then_recovers(self, tight_daemon):
        gate = threading.Event()
        release = threading.Event()

        def plug():
            gate.set()
            release.wait(timeout=10)

        # Occupy the single worker thread so the next admitted request
        # queues, holding its admission slot.
        tight_daemon._threads.submit(plug)
        assert gate.wait(timeout=5)

        first_done = threading.Event()
        first_result = {}

        def first_request():
            with ServeClient(port=tight_daemon.port) as c:
                try:
                    first_result["payload"] = c.query(
                        "//a/b", document="tiny"
                    )
                finally:
                    first_done.set()

        t = threading.Thread(target=first_request)
        t.start()
        # Wait until the first request holds the admission slot.
        deadline = time.time() + 5
        while tight_daemon._in_flight < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert tight_daemon._in_flight == 1

        with ServeClient(port=tight_daemon.port) as c:
            with pytest.raises(ServeError) as excinfo:
                c.query("//a/b", document="tiny")
        assert excinfo.value.status == 429
        assert excinfo.value.kind == "overloaded"

        release.set()
        t.join(timeout=10)
        assert first_done.is_set()
        assert first_result["payload"]["ids"]
        # The daemon recovered: fresh requests are admitted again.
        with ServeClient(port=tight_daemon.port) as c:
            assert c.query("//a/b", document="tiny")["ids"]
        assert tight_daemon.counters["rejected"] >= 1

    def test_timeout_answers_504_and_frees_the_slot(self, tight_daemon):
        release = threading.Event()
        tight_daemon._threads.submit(release.wait, 10)
        try:
            with ServeClient(port=tight_daemon.port) as c:
                with pytest.raises(ServeError) as excinfo:
                    # Queued behind the plug and cancelled at the deadline.
                    c.query("//a/b", document="tiny", timeout_s=0.2)
            assert excinfo.value.status == 504
            assert excinfo.value.kind == "timeout"
            assert tight_daemon._in_flight == 0
            assert tight_daemon.counters["timeouts"] >= 1
        finally:
            release.set()
        with ServeClient(port=tight_daemon.port) as c:
            assert c.query("//a/b", document="tiny")["ids"]


def shape(value):
    """Every nested key of a JSON value, with its leaves' type names."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    return type(value).__name__


LRU = dict.fromkeys(("evictions", "hits", "maxsize", "misses", "size"), "int")
COMPILED = dict.fromkeys(
    ("compilations", "evictions", "hits", "maxsize", "size"), "int"
)
ENGINE_CACHES = {"compiled": COMPILED, "fused": LRU, "plans": LRU}
#: ``GET /stats`` after a query, a batch, an explain and a no-op reload
#: on the two-document corpus; store paths read ``<store>``.
STATS_SHAPE = {
    "admission": dict.fromkeys(
        ("in_flight", "limit", "queue_depth", "workers"), "int"
    ),
    "caches": {
        "compiled": COMPILED,
        "documents": {"xmark": ENGINE_CACHES, "tiny": ENGINE_CACHES},
    },
    "counters": dict.fromkeys(
        (
            "requests", "queries", "batches", "batch_queries", "explains",
            "rejected", "timeouts", "syntax_errors", "bad_requests",
            "internal_errors", "warm_hits", "cold_misses", "eval_failures",
            "fallbacks", "fallback_successes", "quarantine_rejects",
            "drain_rejects", "reloads", "reload_noops", "reload_failures",
            "inline", "threaded", "framed",
        ),
        "int",
    ),
    "documents": {"xmark": {"nodes": "int"}, "tiny": {"nodes": "int"}},
    "errors": {
        "error_rate": "float",
        **dict.fromkeys(
            (
                "eval_failures", "fallback_successes", "fallbacks",
                "internal_errors", "quarantine_rejects",
            ),
            "int",
        ),
    },
    "health": {
        "fail_threshold": "int",
        "failure_streaks": {},
        "quarantined": {},
        "skipped": {},
        "status": "str",
    },
    "mounts": {"<store>": "list"},
    "prepared": LRU,
    "reload": {
        "epoch": "int",
        "failures": "int",
        "generations": {
            name: {"fingerprint": "NoneType", "generation": "int"}
            for name in ("xmark", "tiny")
        },
        "last": {
            "added": "list",
            "drained": "bool",
            "duration_ms": "float",
            "generations": {"<store>": "int"},
            "reloaded": "bool",
            "removed": "list",
            "replaced": "list",
            "skipped": {},
            "unchanged": "list",
        },
        "noops": "int",
        "poll_s": "float",
        "reloads": "int",
    },
    "strategy": "str",
    "timeout_s": "float",
    "uptime_s": "float",
}


class TestStatsShape:
    def test_a_scripted_run_has_the_pinned_stats(self, corpus):
        root, _ = corpus
        with DaemonThread(QueryDaemon(root, workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                client.query("//a/b", document="tiny")
                client.batch(["//keyword", "//a"], document="xmark")
                client.explain("//a", document="tiny")
                assert client.reload()["reloaded"] is False
                stats = client.stats()
        stats["mounts"] = {"<store>": stats["mounts"][root]}
        last = stats["reload"]["last"]
        last["generations"] = {"<store>": last["generations"][root]}
        assert shape(stats) == STATS_SHAPE
        # Documents in mount order, which is bundle-name order.
        assert list(stats["caches"]["documents"]) == ["tiny", "xmark"]
        assert stats["strategy"] == "auto"
        # Four cold plans, each missed by its lookup and its prepare.
        assert (stats["prepared"]["misses"], stats["prepared"]["size"]) == (8, 4)


class TestLifecycle:
    def test_startup_failure_surfaces(self, tmp_path):
        with pytest.raises(ValueError, match="no document bundles"):
            QueryDaemon(str(tmp_path / "empty"))

    def test_duplicate_names_across_stores_rejected(self, corpus, tmp_path):
        root, _ = corpus
        ws = Workspace()
        ws.add("tiny", "<r><z/></r>")
        ws.save(str(tmp_path))
        ws.close()
        with pytest.raises(ValueError, match="already registered"):
            QueryDaemon([root, str(tmp_path)])

    def test_stop_releases_store_handles(self, corpus):
        root, _ = corpus
        handle = DaemonThread(QueryDaemon(root, workers=1)).start()
        daemon = handle.daemon
        stored = {m.name: m.document for m in daemon.mounts.records.values()}
        assert stored
        with ServeClient(port=daemon.port) as c:
            assert c.query("//a/b", document="tiny")["ids"]
        handle.stop()
        assert all(doc.closed for doc in stored.values())
        # And the port is released.
        with pytest.raises((ConnectionError, OSError)):
            socket.create_connection(("127.0.0.1", daemon.port), timeout=0.5)

    def test_daemon_thread_start_error_reraises(self, tmp_path):
        # A bad bind surfaces through start(): grab a port, then collide.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        probe.listen(1)
        port = probe.getsockname()[1]
        try:
            ws_root = tmp_path / "c"
            ws = Workspace()
            ws.add("d", "<r/>")
            ws.save(str(ws_root))
            ws.close()
            daemon = QueryDaemon(str(ws_root), port=port)
            with pytest.raises(OSError):
                DaemonThread(daemon).start()
        finally:
            probe.close()


class TestClientFormatting:
    ROWS = [
        {"id": 1, "label": "regions"},
        {"id": 42, "label": "keyword"},
    ]

    def test_table(self):
        text = format_rows(self.ROWS, ["id", "label"], "table")
        lines = text.splitlines()
        assert lines[0].split() == ["id", "label"]
        assert lines[2].split() == ["1", "regions"]
        assert lines[3].split() == ["42", "keyword"]

    def test_csv(self):
        text = format_rows(self.ROWS, ["id", "label"], "csv")
        assert text.splitlines() == ["id,label", "1,regions", "42,keyword"]

    def test_json(self):
        assert json.loads(format_rows(self.ROWS, ["id"], "json")) == self.ROWS

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            format_rows(self.ROWS, ["id"], "yaml")
