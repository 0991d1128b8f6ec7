"""Deterministic fault injection for chaos testing.

Production failures -- a disk filling up mid-build, a bit flip in a
cold bundle, a worker thread dying on a strategy bug, a read stalling
on congested storage -- are rare, non-deterministic, and therefore
untested unless they are *made* deterministic.  This module provides
seeded, scoped injection points that library code checks at named
sites:

- ``store.load_array``   -- before every bundle-array read
  (:func:`repro.store.format.load_array`)
- ``store.write_array``  -- before every bundle-array write
  (:func:`repro.store.format.write_bundle`); an injected ``ENOSPC``
  here models a crash mid-``store build``
- ``store.publish``      -- before a finished bundle is atomically
  renamed into place (a crash in the publish window)
- ``serve.evaluate``     -- before a query executes on a daemon worker
  thread (:meth:`repro.serve.daemon.QueryDaemon._evaluate`)
- ``pool.task``          -- before every task inside a shared-memory
  pool worker *process* (:meth:`repro.engine.pool._WorkerState.run`);
  under the ``fork`` start method an active plan is inherited at worker
  spawn, so chaos tests can stall or fail work inside the pool

Sites checked inside pool worker processes (``pool.task``, and
``store.load_array`` when a worker reopens a bundle) fire in the
*worker*; their counts are not visible in the parent's plan.

With no plan installed every site is a single module-global ``None``
check -- the hot path pays nothing in production.

Usage::

    from repro import faults

    with faults.inject("serve.evaluate", "exception",
                       match={"document": "bad"}):
        ...  # every evaluation of document "bad" raises

    plan = faults.FaultPlan(seed=7)
    plan.add("store.load_array", "io_error", probability=0.25)
    plan.add("store.write_array", "io_error", errno_=errno.ENOSPC,
             after=3, times=1)
    with faults.active(plan):
        ...

Fault kinds
-----------

``io_error``
    Raise :class:`InjectedFault` (an :class:`OSError`; ``errno_``
    selects the flavour, default ``EIO``).
``exception``
    Raise :class:`InjectedWorkerError` (a :class:`RuntimeError`) --
    models a bug in library code rather than the environment.
``slow_read``
    Sleep ``delay_s`` seconds, then continue.
``truncate`` / ``bit_flip``
    Deterministically corrupt the file whose path the site passed
    (seeded by the plan), then continue; the *read* of the damage is
    the fault.

Rules are scoped by ``match`` (every key must equal the site's
context) and ``unless`` (skip when all its keys equal the context --
e.g. fail every strategy except the ``naive`` reference fallback),
gated by ``after`` / ``times`` / ``probability``, and fully
deterministic under a fixed plan seed.

:func:`corrupt_file` / :func:`corrupt_bundle` are standalone seeded
corruption helpers for tests and CI round trips that do not need an
active plan.
"""

from __future__ import annotations

import errno as _errno
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

KINDS = ("io_error", "exception", "slow_read", "truncate", "bit_flip")


class InjectedFault(OSError):
    """An environment-level fault (I/O error) raised by an active plan."""

    def __init__(self, site: str, errno_: int, message: str) -> None:
        super().__init__(errno_, message)
        self.site = site


class InjectedWorkerError(RuntimeError):
    """A code-level fault (unexpected exception) raised by an active plan."""

    def __init__(self, site: str, message: str) -> None:
        super().__init__(message)
        self.site = site


@dataclass
class FaultRule:
    """One injection rule; see the module docstring for the semantics."""

    site: str
    kind: str
    match: Optional[dict] = None
    unless: Optional[dict] = None
    probability: float = 1.0
    #: Skip the first ``after`` matching checks before firing.
    after: int = 0
    #: Fire at most ``times`` times (``None`` = unbounded).
    times: Optional[int] = None
    errno_: int = _errno.EIO
    delay_s: float = 0.01
    message: Optional[str] = None
    fired: int = field(default=0, init=False)
    seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; one of {KINDS}")

    def applies(self, ctx: dict) -> bool:
        if self.match and any(ctx.get(k) != v for k, v in self.match.items()):
            return False
        if self.unless and all(
            ctx.get(k) == v for k, v in self.unless.items()
        ):
            return False
        return True


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s, installed via :func:`active`.

    All randomness (probabilistic firing, corruption positions) comes
    from one :class:`random.Random` seeded at construction, so a plan
    replays identically run after run.  Thread-safe: daemon worker
    threads and the event loop may check sites concurrently.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Per-site check counts (observability for tests).
        self.checks: Dict[str, int] = {}

    def add(self, site: str, kind: str, **kwargs) -> FaultRule:
        rule = FaultRule(site, kind, **kwargs)
        with self._lock:
            self.rules.append(rule)
        return rule

    def fired(self, site: Optional[str] = None) -> int:
        """Total fires, optionally restricted to one site."""
        with self._lock:
            return sum(
                r.fired
                for r in self.rules
                if site is None or r.site == site
            )

    def check(self, site: str, **ctx) -> None:
        """Evaluate every rule for ``site``; called via :func:`check`."""
        with self._lock:
            self.checks[site] = self.checks.get(site, 0) + 1
            to_fire: List[FaultRule] = []
            for rule in self.rules:
                if rule.site != site or not rule.applies(ctx):
                    continue
                rule.seen += 1
                if rule.seen <= rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if rule.probability < 1.0 and (
                    self._rng.random() >= rule.probability
                ):
                    continue
                rule.fired += 1
                to_fire.append(rule)
            # Corruption offsets drawn under the lock keep replays exact
            # even when several threads hit sites concurrently.
            seeds = [self._rng.randrange(2**31) for _ in to_fire]
        for rule, seed in zip(to_fire, seeds):
            self._fire(rule, seed, ctx)

    @staticmethod
    def _fire(rule: FaultRule, seed: int, ctx: dict) -> None:
        message = rule.message or (
            f"injected {rule.kind} at {rule.site}"
            + (f" ({ctx})" if ctx else "")
        )
        if rule.kind == "io_error":
            raise InjectedFault(rule.site, rule.errno_, message)
        if rule.kind == "exception":
            raise InjectedWorkerError(rule.site, message)
        if rule.kind == "slow_read":
            time.sleep(rule.delay_s)
            return
        # truncate / bit_flip need a file path from the site context.
        path = ctx.get("path")
        if path is None:
            raise ValueError(
                f"rule {rule.kind!r} at {rule.site!r} needs a 'path' context"
            )
        corrupt_file(path, mode=rule.kind, seed=seed)


# -- the (single) active plan -------------------------------------------------

_active: Optional[FaultPlan] = None
_install_lock = threading.Lock()


def check(site: str, **ctx) -> None:
    """The library-side injection point: a no-op unless a plan is active."""
    plan = _active
    if plan is not None:
        plan.check(site, **ctx)


def armed() -> bool:
    """Whether a fault plan is installed (any site may fire)."""
    return _active is not None


@contextmanager
def active(plan: FaultPlan):
    """Install ``plan`` for the duration of the block (no nesting)."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError("a fault plan is already active")
        _active = plan
    try:
        yield plan
    finally:
        _active = None


@contextmanager
def inject(site: str, kind: str, *, seed: int = 0, **kwargs):
    """Shorthand: a one-rule plan active for the block."""
    plan = FaultPlan(seed=seed)
    plan.add(site, kind, **kwargs)
    with active(plan):
        yield plan


# -- standalone corruption helpers --------------------------------------------


def corrupt_file(path: str, *, mode: str = "bit_flip", seed: int = 0) -> dict:
    """Deterministically damage one file; returns what was done.

    ``bit_flip`` flips a single seeded bit (size-preserving -- only a
    checksum can see it); ``truncate`` drops the final quarter of the
    file (at least one byte), the shape a torn write or short copy
    leaves behind.
    """
    rng = random.Random(seed)
    size = os.path.getsize(path)
    if mode == "truncate":
        if size == 0:
            raise ValueError(f"cannot truncate empty file {path!r}")
        keep = min(size - 1, size - max(1, size // 4))
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        return {"mode": mode, "path": path, "from": size, "to": keep}
    if mode != "bit_flip":
        raise ValueError(f"unknown corruption mode {mode!r}")
    if size == 0:
        raise ValueError(f"cannot bit-flip empty file {path!r}")
    offset = rng.randrange(size)
    bit = rng.randrange(8)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ (1 << bit)]))
    return {"mode": mode, "path": path, "offset": offset, "bit": bit}


def corrupt_bundle(
    bundle: str,
    array: Optional[str] = None,
    *,
    mode: str = "bit_flip",
    seed: int = 0,
) -> dict:
    """Damage one array of a store bundle (default: a seeded pick).

    The header manifest stays intact -- exactly the corruption class
    ``repro store verify`` exists to catch.
    """
    from repro.store.format import ARRAYS, array_path

    if array is None:
        array = random.Random(seed).choice(sorted(ARRAYS))
    path = array_path(bundle, array)
    report = corrupt_file(path, mode=mode, seed=seed)
    return dict(report, array=array, bundle=bundle)
