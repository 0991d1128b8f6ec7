"""Stdlib client for the query daemon (and the ``repro client`` CLI).

:class:`ServeClient` speaks the daemon's HTTP/JSON protocol over a
persistent keep-alive socket of its own (``TCP_NODELAY``, one
``sendall`` per request); the wire format in both directions is
:mod:`repro.serve.http`'s -- :func:`~repro.serve.http.encode_request`
out, :func:`~repro.serve.http.read_response` in.  Every request asks
for the binary answer frame (``Accept: application/x-repro-ids``), so
id lists arrive as raw words, not digits;
:func:`~repro.serve.http.decode_answer` turns either body into the same
``dict``, ``reply["ids"]`` a ``list`` of ``int``.  At the daemon's
sub-millisecond answers a general-purpose HTTP library's request
assembly and header parsing were a third of the round trip (see
DESIGN.md "Serving").  Error responses raise :class:`ServeError`
carrying the daemon's structured payload.

Retry policy
------------

Every endpoint the daemon exposes is a read (idempotent), so transient
failures are safely retried: connection errors (daemon restarting, a
dropped keep-alive socket), ``429 overloaded`` and ``503`` (quarantine
lifting, a drain on one replica) are re-attempted up to ``retries``
times with exponential backoff -- ``backoff_s * 2**attempt`` capped at
``backoff_max_s`` -- multiplied by *seeded* jitter in ``[0.5, 1.5)``
(a fleet of clients with distinct seeds de-synchronizes; a test with a
fixed seed replays exact delays).  Any other error, and any response at
all from a non-idempotent future endpoint, is surfaced immediately.
``retries=0`` restores fail-fast behaviour.

:func:`format_rows` renders result rows as an aligned plain-text table,
CSV, or JSON -- the same three output modes for every ``repro client``
subcommand.
"""

from __future__ import annotations

import csv
import io
import json
import random
import socket
import time
from typing import Any, Dict, List, Optional
from urllib.parse import urlencode

from repro.serve.http import IDS_TYPE, decode_answer, encode_request, read_response

#: HTTP statuses worth retrying for an idempotent request: transient
#: overload/unavailability, not client or evaluation errors.
RETRY_STATUSES = (429, 503)


class ServeError(Exception):
    """A non-2xx daemon response, with its structured error payload."""

    def __init__(self, status: int, payload: dict) -> None:
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        self.status = status
        self.payload = payload
        self.kind = error.get("kind", "unknown")
        message = error.get("message", "unknown error")
        super().__init__(f"HTTP {status} [{self.kind}]: {message}")


class ServeClient:
    """A thin blocking client bound to one daemon address."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8726,
        *,
        timeout: float = 60.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        retry_seed: Optional[int] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._rng = random.Random(
            retry_seed if retry_seed is not None else hash((host, port))
        )
        self._sock: Optional[socket.socket] = None
        #: Bytes read past the last response (a peer may coalesce two).
        self._surplus = b""
        #: Seam for tests (and callers embedding the client in an event
        #: loop) to observe or replace the backoff sleeps.
        self._sleep = time.sleep

    # -- transport -----------------------------------------------------------

    def _backoff(self, attempt: int) -> float:
        """The jittered delay before retry ``attempt`` (0-based)."""
        base = min(self.backoff_max_s, self.backoff_s * (2.0**attempt))
        return base * (0.5 + self._rng.random())

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self._surplus = b""
        if sock is not None:
            sock.close()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[dict] = None,
        params: Optional[Dict[str, str]] = None,
        idempotent: bool = True,
    ) -> dict:
        if params:
            path = f"{path}?{urlencode(params)}"
        request = encode_request(
            method,
            path,
            f"{self.host}:{self.port}",
            None if body is None else json.dumps(body).encode("utf-8"),
            accept=IDS_TYPE,
        )
        attempts = (self.retries + 1) if idempotent else 1
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt:
                self._sleep(self._backoff(attempt - 1))
            try:
                if self._sock is None:
                    self._sock = self._connect()
                self._sock.sendall(request)
                status, keep_alive, raw, self._surplus = read_response(
                    self._sock, self._surplus
                )
            except OSError as exc:
                # Daemon unreachable, restarting, silent past the
                # timeout, not speaking HTTP, or it dropped the
                # keep-alive socket: reconnect and (maybe) retry.
                self.close()
                last_error = exc
                continue
            if not keep_alive:
                self.close()
            try:
                payload = decode_answer(raw)
            except ValueError as exc:
                # Neither JSON nor a sound frame: nothing this peer
                # sends next can be trusted to be in step either.
                self.close()
                raise ServeError(
                    status,
                    {
                        "error": {
                            "kind": "protocol",
                            "message": f"{exc}: {bytes(raw[:200])!r}",
                        }
                    },
                ) from None
            if status in RETRY_STATUSES and attempt < attempts - 1:
                last_error = ServeError(status, payload)
                continue
            if status >= 400:
                raise ServeError(status, payload)
            return payload
        if isinstance(last_error, ServeError):
            raise last_error
        raise ConnectionError(
            f"cannot reach daemon at {self.host}:{self.port} "
            f"after {attempts} attempt(s): {last_error}"
        ) from last_error

    # -- endpoints -----------------------------------------------------------

    def query(
        self,
        query: str,
        *,
        document: Optional[str] = None,
        count: bool = False,
        labels: bool = False,
        stats: bool = False,
        strategy: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        body: Dict[str, Any] = {"query": query}
        if document is not None:
            body["document"] = document
        if count:
            body["count"] = True
        if labels:
            body["labels"] = True
        if stats:
            body["stats"] = True
        if strategy is not None:
            body["strategy"] = strategy
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._request("POST", "/query", body=body)

    def batch(
        self,
        queries: List[str],
        *,
        document: Optional[str] = None,
        count: bool = False,
        strategy: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> dict:
        body: Dict[str, Any] = {"queries": list(queries)}
        if document is not None:
            body["document"] = document
        if count:
            body["count"] = True
        if strategy is not None:
            body["strategy"] = strategy
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        return self._request("POST", "/batch", body=body)

    def explain(
        self, query: str, *, document: Optional[str] = None
    ) -> dict:
        params = {"query": query}
        if document is not None:
            params["document"] = document
        return self._request("GET", "/explain", params=params)

    def reload(self) -> dict:
        """Ask the daemon to re-mount its corpora (``POST /reload``).

        Idempotent by construction -- a reload against an unchanged
        corpus is a no-op answering ``{"reloaded": false}`` -- so the
        standard retry policy applies.
        """
        return self._request("POST", "/reload", body={})

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")


def format_rows(
    rows: List[Dict[str, Any]], columns: List[str], fmt: str
) -> str:
    """Render ``rows`` (dicts keyed by ``columns``) in one of the three
    client output formats: an aligned plain-text ``table``, ``csv``, or
    ``json`` (the rows verbatim)."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
        return buffer.getvalue().rstrip("\n")
    if fmt != "table":
        raise ValueError(f"unknown format {fmt!r}")
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * w for w in widths),
    ]
    for line in cells:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(line.rstrip() for line in lines)
