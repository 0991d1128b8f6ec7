"""Admission control: how many requests run, where, and for how long.

One asyncio event loop owns the sockets and this bookkeeping, so the
check-then-increment on :attr:`Admission.in_flight` is race-free without
a lock.  Evaluation -- pure CPU work -- runs in one of two places:

- on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`, under
  ``asyncio.wait_for``: on timeout the client gets a structured ``504``
  and the task is cancelled -- a still-queued task is truly cancelled
  and never runs; one already on a worker thread finishes and its
  result is discarded.  The hop costs two context switches and two extra
  loop iterations, 0.1-0.2 ms of a round trip;
- ``inline``, on the event loop itself, with no hop.  An inline run
  cannot be interrupted, only bounded in advance (the daemon picks it
  for plans it has *measured* cheap); one that overruns its budget
  anyway still answers the ``504``.

Either way the request holds one of ``limit`` slots from admission to
answer; request ``limit + 1`` is answered ``429`` immediately instead of
queueing without bound (degrading every other client's latency), and
the slot is released whatever happens.

Every admitted request is also tagged with the *epoch* current at its
admission.  A hot reload swaps engines, calls :meth:`Admission.advance`
and awaits :meth:`Admission.drained` on the epoch that just ended:
everything that may still touch the old generation's mmaps has then
left the building, and they can close.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor
from contextlib import suppress
from typing import Any, Callable, Dict

from repro.serve.http import HttpError


class Admission:
    """``limit`` slots over one ``executor``; event-loop thread only.

    ``bump`` is called with ``"rejected"`` / ``"timeouts"`` when a
    request is refused or runs out of budget (the daemon's counters).
    """

    def __init__(
        self, limit: int, executor: Executor, bump: Callable[[str], None]
    ) -> None:
        self.limit = limit
        self.in_flight = 0
        self.epoch = 0
        self._executor = executor
        self._bump = bump
        self._tagged: Dict[int, int] = {}  # epoch -> requests still running

    async def run(
        self, fn: Callable[[], Any], timeout_s: float, *, inline: bool = False
    ) -> Any:
        """``fn()`` under a slot and a deadline: on the executor, or --
        ``inline`` -- right here.  ``429`` without a slot, ``504`` past
        the deadline."""
        if self.in_flight >= self.limit:
            self._bump("rejected")
            raise HttpError(
                429,
                "overloaded",
                f"{self.in_flight} requests in flight "
                f"(limit {self.limit}); retry later",
                {"limit": self.limit},
            )
        epoch = self.epoch
        self.in_flight += 1
        self._tagged[epoch] = self._tagged.get(epoch, 0) + 1
        try:
            if inline:
                start = time.perf_counter()
                result = fn()
                if time.perf_counter() - start <= timeout_s:
                    return result
                # Too late to be an answer.
            else:
                future = asyncio.get_running_loop().run_in_executor(
                    self._executor, fn
                )
                # On timeout wait_for has already cancelled the future.
                with suppress(asyncio.TimeoutError):
                    return await asyncio.wait_for(future, timeout_s)
            self._bump("timeouts")
            raise HttpError(
                504,
                "timeout",
                f"request exceeded its {timeout_s}s budget",
                {"timeout_s": timeout_s},
            )
        finally:
            self.in_flight -= 1
            self._tagged[epoch] -= 1
            if not self._tagged[epoch]:
                del self._tagged[epoch]

    def advance(self) -> int:
        """Start a new epoch; returns the one that just ended."""
        self.epoch += 1
        return self.epoch - 1

    async def drained(self, epoch: int, deadline: float) -> bool:
        """Wait until no request admitted in ``epoch`` or earlier is
        still running; ``False`` if ``deadline`` (``time.monotonic``)
        passes first.  Later epochs' requests are not waited for."""
        while any(tag <= epoch for tag in self._tagged):
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True
