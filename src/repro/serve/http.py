"""Minimal stdlib HTTP/1.1 layer for the query daemon.

Just enough of the protocol for a JSON service -- request-line +
headers + ``Content-Length`` bodies in, JSON responses out (or, for a
peer that sent ``Accept: application/x-repro-ids``, the binary answer
frame of :func:`encode_answer`), with keep-alive -- on plain
:mod:`asyncio` streams.  No routing framework,
no chunked encoding, no external dependencies; the daemon
(:mod:`repro.serve.daemon`) does its own dispatch on ``(method, path)``.
Both directions of the wire format live here: :func:`read_request` /
:func:`encode_response` are the daemon's side,
:func:`encode_request` / :func:`read_response` the blocking mirror
:class:`~repro.serve.client.ServeClient` drives over a plain socket;
:func:`encode_answer` / :func:`decode_answer` are the two ends of an
answer body, JSON or frame.

Every error path surfaces as :class:`HttpError`, whose
:meth:`~HttpError.to_payload` is the one structured-error JSON shape the
daemon returns (the same ``{"error": {"kind", "message", ...}}``
envelope the CLI's structured XPath syntax errors map into).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
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

#: Media type of the binary answer frame (:func:`encode_answer`): what a
#: request's ``Accept`` asks for and what the framed response declares.
IDS_TYPE = "application/x-repro-ids"
#: A frame's first bytes.  0x93 cannot start UTF-8 text, so no JSON body
#: is ever taken for a frame and a body says by itself what it is.
FRAME_MAGIC = b"\x93IDS"
#: magic, id width in bytes (4 or 8), byte length of the JSON head.
_FRAME = struct.Struct("<4sBI")


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
    def accepts_frame(self) -> bool:
        """Whether the peer asked for :data:`IDS_TYPE` answers."""
        return IDS_TYPE in self.headers.get("accept", "")

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


def _json_body(envelope: dict, ids, results, write_ids) -> bytes:
    """The JSON object of one answer: the envelope, then ``"results"``,
    then ``"ids"`` as ``write_ids`` renders the array.

    Only the small envelope goes through ``json.dumps``; the id arrays
    become the object's last members, spliced in at the envelope's own
    closing brace -- its final byte, whatever the strings inside contain.
    """
    members = [json.dumps(envelope, sort_keys=True).encode("utf-8")[1:-1]]
    if results is not None:
        entries = b", ".join(
            _json_body(entry, block, None, write_ids) for entry, block in results
        )
        members.append(b'"results": [' + entries + b"]")
    if ids is not None:
        members.append(b'"ids": ' + write_ids(ids))
    return b"{" + b", ".join(m for m in members if m) + b"}"


def _frame(envelope: dict, ids, results) -> Optional[bytes]:
    """The answer as a binary frame, or ``None`` if it has to be JSON:
    it holds no id array (count-only), or one a reader could not take
    back out -- not what every real answer is (1-D, integer, no negative
    id), or not as long as its envelope's ``count`` says."""
    answers = [(envelope, ids), *(results or ())]
    holders = [
        (entry, np.asarray(block)) for entry, block in answers if block is not None
    ]
    if not holders or any(
        block.ndim != 1
        or block.dtype.kind not in "iu"
        or entry.get("count") != block.size
        or (block.size and block.min() < 0)
        for entry, block in holders
    ):
        return None
    blocks = [block for _entry, block in holders]
    largest = max((int(block.max()) for block in blocks if block.size), default=0)
    dtype = np.dtype("<u4" if largest < 2**32 else "<u8")
    head = _json_body(envelope, ids, results, lambda _ids: b"null")
    # Trailing spaces (JSON whitespace) put the first id on an 8-byte
    # boundary of the body: reading aligned words is ~20% faster.
    head += b" " * (-(_FRAME.size + len(head)) % 8)
    return b"".join(
        [_FRAME.pack(FRAME_MAGIC, dtype.itemsize, len(head)), head]
        + [block.astype(dtype, copy=False).tobytes() for block in blocks]
    )


def encode_answer(
    envelope: dict,
    ids: Optional[np.ndarray] = None,
    results: Optional[Sequence[Answer]] = None,
    *,
    frame: bool = False,
) -> bytes:
    """One answer body, for ``/query`` (``ids``) or ``/batch`` (``results``).

    JSON unless the request asked for a ``frame`` (``Accept:``
    :data:`IDS_TYPE`) *and* the answer holds an id array; then::

        magic 4s | id width u1 (4 or 8) | head length <u4 | head | blocks

    The head is the JSON body exactly as it would have been sent, with
    ``null`` where each id array stood (and trailing spaces); the blocks
    are those arrays in the same order, raw little-endian unsigned, each
    as long as its answer's ``count``.  One width per frame: ``<u4``
    whenever the largest id fits, ``<u8`` otherwise.
    :func:`decode_answer` is the inverse.
    """
    framed = _frame(envelope, ids, results) if frame else None
    if framed is not None:
        return framed
    return _json_body(envelope, ids, results, encode_ids)


def decode_answer(body: Union[bytes, bytearray]) -> dict:
    """A response body as the object its JSON form would parse to.

    A body starting with :data:`FRAME_MAGIC` is a frame (see
    :func:`encode_answer`): every ``"ids": null`` of its head is filled
    with the ``count`` ids of the next block, as a ``list`` of ``int``.
    The frame is checked before it is believed -- width 4 or 8, head
    inside the body, block bytes equal to the counts' sum times the
    width -- and, like a body that is not JSON, raises :class:`ValueError`
    when it is not what it says.
    """
    if not body.startswith(FRAME_MAGIC):
        return json.loads(body)
    if len(body) < _FRAME.size:
        raise ValueError("frame shorter than its header")
    _magic, width, head_length = _FRAME.unpack_from(body)
    start = _FRAME.size + head_length
    if width not in (4, 8) or start > len(body):
        raise ValueError(f"bad frame header (width {width}, head {head_length})")
    reply = json.loads(body[_FRAME.size : start])
    results = reply.get("results", []) if isinstance(reply, dict) else None
    if not isinstance(results, list):
        raise ValueError("frame head is not an answer object")
    holders = [
        answer
        for answer in [reply, *results]
        if isinstance(answer, dict) and "ids" in answer
    ]
    counts = [answer.get("count") for answer in holders]
    if any(type(count) is not int or count < 0 for count in counts):
        raise ValueError("framed answer without a count")
    if sum(counts) * width != len(body) - start:
        raise ValueError(
            f"frame carries {len(body) - start} block bytes for "
            f"{sum(counts)} ids of width {width}"
        )
    for answer, count in zip(holders, counts):
        answer["ids"] = np.frombuffer(
            body, dtype=f"<u{width}", count=count, offset=start
        ).tolist()
        start += count * width
    return reply


def encode_response(
    status: int, payload: Body, *, keep_alive: bool = True
) -> bytes:
    """Serialize one response, headers and all: JSON, or the frame
    :func:`encode_answer` made (its magic says so)."""
    body = payload
    if not isinstance(body, bytes):
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    media = IDS_TYPE if body.startswith(FRAME_MAGIC) else "application/json"
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {media}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def encode_request(
    method: str,
    target: str,
    host: str,
    body: Optional[bytes] = None,
    *,
    accept: Optional[str] = None,
) -> bytes:
    """Serialize one client request: the mirror of :func:`read_request`.

    ``accept`` is the ``Accept`` header (:data:`IDS_TYPE` asks for
    framed answers); without one the daemon answers JSON.
    """
    head = f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
    if accept is not None:
        head += f"Accept: {accept}\r\n"
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
