"""Admission control: how many requests run, where, and for how long.

One asyncio event loop owns the sockets and this bookkeeping, so the
check-then-increment on :attr:`Admission.in_flight` is race-free without
a lock.  Evaluation -- pure CPU work -- runs in one of two places:

- :meth:`Admission.run`: on a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor`, submitted at once and
  awaited under ``asyncio.wait_for``: on timeout the client gets a
  structured ``504`` and the task is cancelled -- a still-queued task is
  truly cancelled and never runs; one already on a worker thread
  finishes and its result is discarded.  The hop costs two context
  switches, a task and the loop iterations that wake it, ~0.1-0.2 ms of
  a round trip;
- :meth:`Admission.call`: synchronously, on the event loop itself, in
  the callback that read the request -- no task, no coroutine, no hop.
  Such a run cannot be interrupted, only bounded in advance (the daemon
  picks it for plans it has *measured* cheap); one that overruns its
  budget anyway still answers the ``504``.

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
from typing import Any, Awaitable, Callable, Dict

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

    def call(self, fn: Callable[[], Any], timeout_s: float) -> Any:
        """``fn()`` under a slot, right here: ``429`` without a slot,
        ``504`` if it returns past the deadline."""
        epoch = self._admit()
        try:
            start = time.perf_counter()
            result = fn()
            if time.perf_counter() - start <= timeout_s:
                return result
            raise self._late(timeout_s)  # too late to be an answer
        finally:
            self._release(epoch)

    def run(self, fn: Callable[[], Any], timeout_s: float) -> Awaitable[Any]:
        """``fn()`` under a slot, on the executor: submitted now (``429``
        without a slot), its result awaited from what this returns
        (``504`` past the deadline).  The slot is held until then, so
        the awaitable must be awaited."""
        epoch = self._admit()
        try:
            future = asyncio.get_running_loop().run_in_executor(
                self._executor, fn
            )
        except BaseException:
            self._release(epoch)
            raise
        return self._result(future, epoch, timeout_s)

    async def _result(
        self, future: asyncio.Future, epoch: int, timeout_s: float
    ) -> Any:
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            # wait_for has already cancelled the future.
            raise self._late(timeout_s) from None
        finally:
            self._release(epoch)

    def _admit(self) -> int:
        """Take a slot (``429`` if none is free); the request's epoch."""
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
        return epoch

    def _release(self, epoch: int) -> None:
        self.in_flight -= 1
        self._tagged[epoch] -= 1
        if not self._tagged[epoch]:
            del self._tagged[epoch]

    def _late(self, timeout_s: float) -> HttpError:
        self._bump("timeouts")
        return HttpError(
            504,
            "timeout",
            f"request exceeded its {timeout_s}s budget",
            {"timeout_s": timeout_s},
        )

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
