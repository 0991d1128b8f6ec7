"""``ServeClient``'s own HTTP transport against a scripted fake server.

No daemon here: a plain ``socket`` thread plays one scripted connection
after another, so every way a peer can misbehave on the wire is a test
input.  Each case must end in the retry policy's documented outcome --
``ConnectionError`` after ``retries + 1`` attempts, or ``ServeError``
with the payload the server sent -- within the socket timeout: never a
hang, never a bare ``ValueError``/``IndexError``.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import ServeClient, ServeError
from repro.serve.http import MAX_HEADER_BYTES, MAX_HEADERS


def read_request(conn):
    """One request off ``conn``: its head and body bytes, or ``None``."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return None
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        body += conn.recv(65536)
    return head, body


def response(payload, status=200, connection="keep-alive"):
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n\r\n"
    ).encode()
    return head + body


class ScriptedServer(threading.Thread):
    """Connection *k* is handled by ``scripts[k](conn)``, then closed."""

    def __init__(self, *scripts):
        super().__init__(daemon=True)
        self.scripts = list(scripts)
        self.connections = 0
        self.requests = []
        self.errors = []
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]

    def read(self, conn):
        request = read_request(conn)
        if request is not None:
            self.requests.append(request)
        return request

    def run(self):
        for script in self.scripts:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    script(self, conn)
                except OSError:
                    pass  # the client hung up first: its business
                except Exception as exc:  # noqa: BLE001 - shown by the test
                    self.errors.append(repr(exc))

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self._sock.close()
        self.join(timeout=5)
        assert not self.errors, self.errors


def client_for(server, **kwargs):
    kwargs.setdefault("timeout", 2.0)
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("retry_seed", 0)
    client = ServeClient(port=server.port, **kwargs)
    client.slept = []
    client._sleep = client.slept.append
    return client


def answer_raw(raw):
    """A script: read one request, send ``raw``, hang up."""

    def script(server, conn):
        server.read(conn)
        conn.sendall(raw)

    return script


class CountingSocket:
    """What the transport uses of a socket, with ``recv`` calls counted."""

    def __init__(self, sock):
        self._sock = sock
        self.recvs = 0

    def sendall(self, data):
        return self._sock.sendall(data)

    def recv(self, size):
        self.recvs += 1
        return self._sock.recv(size)

    def recv_into(self, view):
        self.recvs += 1
        return self._sock.recv_into(view)

    def close(self):
        self._sock.close()


class TestWellFormedPeers:
    def test_request_bytes_on_the_wire(self):
        with ScriptedServer(answer_raw(response({"ok": 1}))) as server:
            with client_for(server) as client:
                assert client.query("//a", document="d", count=True) == {"ok": 1}
        head, body = server.requests[0]
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "POST /query HTTP/1.1"
        assert f"Host: 127.0.0.1:{server.port}" in lines
        assert "Content-Type: application/json" in lines
        assert f"Content-Length: {len(body)}" in lines
        assert json.loads(body) == {"query": "//a", "document": "d", "count": True}

    def test_get_carries_no_body_headers(self):
        with ScriptedServer(answer_raw(response({"ok": 1}))) as server:
            with client_for(server) as client:
                client.explain("//a[b]", document="d")
        head, body = server.requests[0]
        assert head.startswith(b"GET /explain?query=%2F%2Fa%5Bb%5D&document=d ")
        assert b"content-length" not in head.lower() and body == b""

    def test_response_one_byte_at_a_time(self):
        payload = {"count": 3, "query": "//a", "text": "\r\n\r\n inside"}

        def script(server, conn):
            server.read(conn)
            for byte in response(payload):
                conn.sendall(bytes([byte]))

        with ScriptedServer(script) as server:
            with client_for(server) as client:
                assert client.healthz() == payload

    def test_two_coalesced_responses_surplus_is_carried(self):
        first, second = {"n": 1}, {"n": 2, "ids": list(range(50))}
        release = threading.Event()

        def script(server, conn):
            server.read(conn)
            conn.sendall(response(first) + response(second))
            server.read(conn)
            release.wait(timeout=5)

        with ScriptedServer(script) as server:
            with client_for(server) as client:
                assert client.healthz() == first
                assert client._surplus == response(second)
                client._sock = spy = CountingSocket(client._sock)
                assert client.healthz() == second
                assert spy.recvs == 0 and client._surplus == b""
                release.set()
        assert server.connections == 1 and len(server.requests) == 2

    def test_connection_close_then_transparent_reconnect(self):
        closing = answer_raw(response({"n": 1}, connection="close"))
        with ScriptedServer(closing, answer_raw(response({"n": 2}))) as server:
            with client_for(server) as client:
                assert client.healthz() == {"n": 1}
                assert client._sock is None  # honoured, not discovered
                assert client.healthz() == {"n": 2}
                assert client.slept == []  # no retry was spent on it
        assert server.connections == 2

    def test_http_1_0_response_is_not_kept_alive(self):
        raw = response({"n": 1}).replace(b"HTTP/1.1", b"HTTP/1.0").replace(
            b"Connection: keep-alive\r\n", b""
        )
        with ScriptedServer(answer_raw(raw)) as server:
            with client_for(server) as client:
                assert client.healthz() == {"n": 1}
                assert client._sock is None

    def test_eight_megabyte_id_body_arrives_intact(self):
        ids = list(range(10_000_000, 10_950_000))
        body = json.dumps({"count": len(ids), "ids": ids}, separators=(",", ":"))
        assert len(body) > 8 * 1024 * 1024

        def script(server, conn):
            server.read(conn)
            conn.sendall(response(body.encode()))
            server.read(conn)
            conn.sendall(response({"after": True}))

        with ScriptedServer(script) as server:
            with client_for(server, timeout=30.0) as client:
                reply = client.healthz()
                assert reply["count"] == len(ids) and reply["ids"] == ids
                # The stream is still in step after the long body.
                assert client.healthz() == {"after": True}

    def test_error_status_raises_serve_error_with_the_payload(self):
        payload = {"error": {"kind": "unknown_document", "message": "no 'x'"}}
        with ScriptedServer(answer_raw(response(payload, status=404))) as server:
            with client_for(server, retries=2) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.healthz()
        assert excinfo.value.status == 404
        assert excinfo.value.payload == payload
        assert server.connections == 1 and client.slept == []

    def test_non_json_body_is_a_protocol_serve_error(self):
        with ScriptedServer(answer_raw(response(b"<html>hi</html>"))) as server:
            with client_for(server) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.healthz()
        assert excinfo.value.kind == "protocol"
        assert "<html>" in excinfo.value.payload["error"]["message"]


def _head(*lines):
    return "\r\n".join(("HTTP/1.1 200 OK",) + lines).encode() + b"\r\n\r\n"


BROKEN_PEERS = {
    "eof_before_the_head": b"",
    "eof_inside_the_head": b"HTTP/1.1 200 OK\r\nContent-Le",
    "eof_inside_the_body": response({"ids": list(range(100))})[:-40],
    "missing_content_length": _head("Connection: keep-alive") + b"{}",
    "non_numeric_content_length": _head("Content-Length: two") + b"{}",
    "negative_content_length": _head("Content-Length: -2") + b"{}",
    "signed_content_length": _head("Content-Length: +2") + b"{}",
    "empty_content_length": _head("Content-Length:") + b"{}",
    "head_over_the_cap": _head(
        "Content-Length: 2", "X-Pad: " + "a" * MAX_HEADER_BYTES
    )
    + b"{}",
    "head_that_never_ends": b"HTTP/1.1 200 OK\r\nX-Pad: "
    + b"a" * (4 * MAX_HEADER_BYTES),
    "too_many_headers": _head(
        "Content-Length: 2", *(f"X-{i}: y" for i in range(MAX_HEADERS + 1))
    )
    + b"{}",
    "not_http": b"SSH-2.0-OpenSSH_9.6\r\n\r\n",
    "bare_blank_lines": b"\r\n\r\n",
    "status_not_a_number": b"HTTP/1.1 OK 200\r\nContent-Length: 2\r\n\r\n{}",
    "status_line_cut_short": b"HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    "http_2_preface": b"HTTP/2 200\r\nContent-Length: 2\r\n\r\n{}",
}


class TestBrokenPeers:
    @pytest.mark.parametrize("case", sorted(BROKEN_PEERS))
    def test_ends_in_connection_error_after_the_retry_budget(self, case):
        script = answer_raw(BROKEN_PEERS[case])
        t0 = time.monotonic()
        with ScriptedServer(script, script, script) as server:
            with client_for(server, retries=2) as client:
                with pytest.raises(ConnectionError, match="after 3 attempt"):
                    client.healthz()
                assert client._sock is None
        assert server.connections == 3  # a fresh connection per attempt
        assert len(client.slept) == 2
        assert time.monotonic() - t0 < 5

    def test_non_idempotent_requests_get_one_attempt(self):
        with ScriptedServer(answer_raw(b"")) as server:
            with client_for(server, retries=2) as client:
                with pytest.raises(ConnectionError, match="after 1 attempt"):
                    client._request("POST", "/x", body={}, idempotent=False)
        assert client.slept == []

    def test_a_peer_that_never_answers_times_out(self):
        release = threading.Event()

        def silent(server, conn):
            server.read(conn)
            release.wait(timeout=10)

        t0 = time.monotonic()
        with ScriptedServer(silent, silent) as server:
            with client_for(server, timeout=0.2, retries=1) as client:
                with pytest.raises(ConnectionError, match="after 2 attempt") as exc:
                    client.healthz()
            release.set()
        assert isinstance(exc.value.__cause__, TimeoutError)
        assert 0.4 <= time.monotonic() - t0 < 3

    def test_a_peer_that_stalls_mid_body_times_out(self):
        release = threading.Event()

        def stall(server, conn):
            server.read(conn)
            conn.sendall(response({"ids": list(range(100))})[:-40])
            release.wait(timeout=10)

        with ScriptedServer(stall) as server:
            with client_for(server, timeout=0.2) as client:
                with pytest.raises(ConnectionError, match="after 1 attempt"):
                    client.healthz()
            release.set()

    def test_recovers_on_the_attempt_after_a_broken_one(self):
        broken = answer_raw(BROKEN_PEERS["eof_inside_the_body"])
        with ScriptedServer(broken, answer_raw(response({"ok": 1}))) as server:
            with client_for(server, retries=2) as client:
                assert client.healthz() == {"ok": 1}
        assert len(client.slept) == 1

    def test_surplus_of_a_dropped_connection_is_not_replayed(self):
        # A coalesced second response is stale once the socket is gone:
        # the next attempt must read its own answer off the new one.
        stale = response({"n": 1}, connection="close") + response({"n": "stale"})
        with ScriptedServer(answer_raw(stale), answer_raw(response({"n": 2}))) as server:
            with client_for(server) as client:
                assert client.healthz() == {"n": 1}
                assert client.healthz() == {"n": 2}
