"""Minimal stdlib HTTP/1.1 layer for the query daemon.

Just enough of the protocol for a JSON service -- request-line +
headers + ``Content-Length`` bodies in, JSON responses out, with
keep-alive -- on plain :mod:`asyncio` streams.  No routing framework,
no chunked encoding, no external dependencies; the daemon
(:mod:`repro.serve.daemon`) does its own dispatch on ``(method, path)``.
Both directions of the wire format live here: :func:`read_request` /
:func:`encode_response` are the daemon's side,
:func:`encode_request` / :func:`read_response` the blocking mirror
:class:`~repro.serve.client.ServeClient` drives over a plain socket.

Every error path surfaces as :class:`HttpError`, whose
:meth:`~HttpError.to_payload` is the one structured-error JSON shape the
daemon returns (the same ``{"error": {"kind", "message", ...}}``
envelope the CLI's structured XPath syntax errors map into).
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qsl, urlsplit

import numpy as np

#: Reason phrases for the statuses the daemon actually emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

MAX_HEADER_BYTES = 16 * 1024
MAX_HEADERS = 64


class HttpError(Exception):
    """A protocol- or application-level failure with an HTTP status.

    ``kind`` is a stable machine-readable discriminator (``syntax``,
    ``bad_request``, ``unknown_document``, ``overloaded``, ``timeout``,
    ``internal``, ...); ``extra`` carries structured detail (e.g. the
    offset of a syntax error).
    """

    def __init__(
        self, status: int, kind: str, message: str, extra: Optional[dict] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.kind = kind
        self.message = message
        self.extra = dict(extra or {})

    def to_payload(self) -> dict:
        """The ``{"error": {...}}`` JSON envelope for this failure."""
        error = {"kind": self.kind, "message": self.message}
        error.update(self.extra)
        return {"error": error}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Persistent by default in HTTP/1.1 (unless ``close``); opt-in
        in HTTP/1.0 (only with ``Connection: keep-alive``)."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> dict:
        """The request body as a JSON object (400 on anything else)."""
        if not self.body:
            raise HttpError(400, "bad_request", "request body required")
        try:
            payload = json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(
                400, "bad_request", f"invalid JSON body: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise HttpError(
                400, "bad_request", "request body must be a JSON object"
            )
        return payload


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body: int = 8 * 1024 * 1024,
    writer: Optional[asyncio.StreamWriter] = None,
) -> Optional[Request]:
    """Read one request off the stream; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed input or oversize
    headers/body -- callers should answer with the error payload and
    close the connection (the stream position is unrecoverable).

    A client that announced its body with ``Expect: 100-continue`` is
    waiting for permission to send it: given a ``writer``, the interim
    ``100 Continue`` goes out as soon as ``Content-Length`` has passed
    the ``max_body`` check (an oversize body is refused unread).
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "bad_request", "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(431, "bad_request", "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, "bad_request", "request head too large")
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "bad_request", "malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "bad_request", f"unsupported {version!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if len(headers) >= MAX_HEADERS:
            raise HttpError(431, "bad_request", "too many headers")
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "bad_request", f"malformed header {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(
                400, "bad_request", "malformed Content-Length"
            ) from None
        if length < 0:
            raise HttpError(400, "bad_request", "malformed Content-Length")
        if length > max_body:
            raise HttpError(
                413, "bad_request", f"body exceeds {max_body} bytes"
            )
        if (
            writer is not None
            and length
            and version != "HTTP/1.0"
            and headers.get("expect", "").lower() == "100-continue"
        ):
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "bad_request", "truncated body") from None
    elif headers.get("transfer-encoding"):
        raise HttpError(
            400, "bad_request", "chunked request bodies are not supported"
        )
    split = urlsplit(target)
    params = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(),
        target=target,
        path=split.path or "/",
        params=params,
        headers=headers,
        body=body,
        version=version,
    )


#: Below this many ids the fixed cost of the array encoder (~20 us)
#: exceeds ``tolist`` + the C encoder (measured crossover on this host).
_FAST_MIN_IDS = 256
_DIGIT_BOUNDS = np.array([10**d for d in range(1, 9)], dtype=np.int64)


def _decimal_lut(width: int) -> np.ndarray:
    """Every ``width``-digit zero-padded decimal, one fixed-width item each."""
    raw = b"".join(b"%0*d" % (width, k) for k in range(10**width))
    return np.frombuffer(raw, dtype=("u1", "<u2", "V3", "<u4")[width - 1])


#: 10 + 200 + 3000 + 40000 bytes of ASCII digits, built once at import.
_LUTS = {width: _decimal_lut(width) for width in (1, 2, 3, 4)}


def _record_dtype(digits: int) -> np.dtype:
    """``digits`` ASCII digits (a high group above four) plus the comma."""
    fields = [("lo", _LUTS[min(digits, 4)].dtype), ("comma", "u1")]
    if digits > 4:
        fields.insert(0, ("hi", _LUTS[digits - 4].dtype))
    return np.dtype(fields)


_RECORDS = {digits: _record_dtype(digits) for digits in range(1, 9)}


def encode_ids(ids: Union[np.ndarray, Sequence[int]]) -> bytes:
    """``json.dumps(ids, separators=(",", ":"))`` as bytes, from an array.

    Byte-identical to the stdlib encoder for every input.  The fast path
    needs what every answer has: a 1-D integer array, ascending, ids in
    ``[0, 10**8)``.  Ids with the same digit count are then contiguous
    runs; ``searchsorted`` cuts them, and each run is written as
    fixed-width records -- digits gathered from decimal lookup tables
    (``id // 10000`` and ``id % 10000`` above four digits), a comma --
    and ``tobytes()``.  Each run is checked by its min and max, so input
    outside the contract (unsorted, negative, too large), or too small
    to repay the set-up, takes ``tolist`` + ``json.dumps``: never a
    wrong byte.
    """
    array = np.asarray(ids)
    if array.ndim == 1 and array.size >= _FAST_MIN_IDS and array.dtype.kind in "iu":
        values = array.astype(np.int64, copy=False)
        cuts = np.searchsorted(values, _DIGIT_BOUNDS).tolist()
        parts = [b"["]
        start, floor = 0, 0
        for digits, stop in enumerate(cuts, 1):
            if stop > start:
                run = values[start:stop]
                if run.min() < floor or run.max() >= 10**digits:
                    break
                records = np.empty(run.size, dtype=_RECORDS[digits])
                if digits > 4:
                    high, run = np.divmod(run, 10000)
                    records["hi"] = _LUTS[digits - 4].take(high)
                records["lo"] = _LUTS[min(digits, 4)].take(run)
                records["comma"] = ord(",")
                parts.append(records.tobytes())
            start, floor = stop, 10**digits
        else:
            if start == values.size:
                parts[-1] = parts[-1][:-1]  # the last record's comma
                parts.append(b"]")
                return b"".join(parts)
    return json.dumps(array.tolist(), separators=(",", ":")).encode("ascii")


#: One query's answer: its envelope and its id array (``None``: count only).
Answer = Tuple[dict, Optional[np.ndarray]]
#: A response payload: a dict, or a body :func:`encode_answer` already made.
Body = Union[dict, bytes]


def encode_answer(
    envelope: dict,
    ids: Optional[np.ndarray] = None,
    results: Optional[Sequence[Answer]] = None,
) -> bytes:
    """One answer body: the envelope, then ``"results"``, then ``"ids"``.

    Only the small envelope goes through ``json.dumps``; id arrays go
    through :func:`encode_ids` and become the object's last members,
    spliced in at the envelope's own closing brace -- its final byte,
    whatever the strings inside contain.
    """
    members = [json.dumps(envelope, sort_keys=True).encode("utf-8")[1:-1]]
    if results is not None:
        entries = b", ".join(encode_answer(*entry) for entry in results)
        members.append(b'"results": [' + entries + b"]")
    if ids is not None:
        members.append(b'"ids": ' + encode_ids(ids))
    return b"{" + b", ".join(m for m in members if m) + b"}"


def encode_response(
    status: int, payload: Body, *, keep_alive: bool = True
) -> bytes:
    """Serialize one JSON response, headers and all."""
    body = payload
    if not isinstance(body, bytes):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def encode_request(
    method: str, target: str, host: str, body: Optional[bytes] = None
) -> bytes:
    """Serialize one client request: the mirror of :func:`read_request`."""
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if body is None:
        return (head + "\r\n").encode("latin-1")
    head += (
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def read_response(
    sock: socket.socket, pending: bytes = b""
) -> Tuple[int, bool, Union[bytes, bytearray], bytes]:
    """Read one :func:`encode_response` off a blocking socket.

    The client-side mirror of :func:`read_request`, under the same
    ``MAX_HEADER_BYTES`` / ``MAX_HEADERS`` caps: the head ends at the
    first blank line, the body is ``Content-Length`` bytes.  ``pending``
    is what the previous call read past its own response; returns
    ``(status, keep_alive, body, surplus)``.  Anything else a peer can
    do -- close early, send no or a malformed length, send something
    that is not HTTP/1.x -- raises :class:`ConnectionError`; the
    socket's own timeout raises :class:`TimeoutError`.  Both are
    :class:`OSError`, and either way the stream position is lost: the
    caller must drop the connection.
    """
    buf = pending
    scanned = 0
    while True:
        end = buf.find(b"\r\n\r\n", scanned)
        if end >= 0:
            break
        if len(buf) > MAX_HEADER_BYTES:
            raise ConnectionError("response head too large")
        scanned = max(0, len(buf) - 3)
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(
                "connection closed inside the response head"
                if buf
                else "connection closed before the response"
            )
        buf += chunk
    if end + 4 > MAX_HEADER_BYTES:
        raise ConnectionError("response head too large")
    lines = buf[:end].split(b"\r\n")
    if len(lines) - 1 > MAX_HEADERS:
        raise ConnectionError("too many response headers")
    version, _, rest = lines[0].partition(b" ")
    code = rest[:3]
    if not version.startswith(b"HTTP/1.") or len(code) != 3 or not code.isdigit():
        raise ConnectionError(f"malformed status line {lines[0][:80]!r}")
    length = None
    keep_alive = version != b"HTTP/1.0"
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            length = value.strip()
        elif name == b"connection":
            keep_alive = value.strip().lower() != b"close"
    if length is None or not length.isdigit():
        raise ConnectionError(f"missing or malformed Content-Length {length!r}")
    length = int(length)
    have = buf[end + 4 :]
    if len(have) >= length:
        return int(code), keep_alive, have[:length], have[length:]
    # A long body: one allocation, filled in place (no quadratic +=).
    body = bytearray(length)
    body[: len(have)] = have
    view = memoryview(body)[len(have) :]
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("connection closed inside the response body")
        view = view[got:]
    return int(code), keep_alive, body, b""


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Body,
    *,
    keep_alive: bool = True,
) -> None:
    writer.write(encode_response(status, payload, keep_alive=keep_alive))
    await writer.drain()
