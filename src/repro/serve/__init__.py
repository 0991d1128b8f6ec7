"""``repro serve``: a persistent query daemon over mmap store corpora.

The package turns the single-shot library into a long-running system:

- :class:`~repro.serve.daemon.QueryDaemon` mounts one or more
  :class:`~repro.store.DocumentStore` corpora via zero-copy mmap reopen
  and keeps each document's :class:`~repro.engine.api.Engine` and
  :class:`~repro.engine.plan.PreparedQuery` state hot across
  requests, behind a stdlib-only asyncio HTTP/JSON front
  (:mod:`repro.serve.http`).  It self-heals: a failing strategy retries
  once on the reference path, repeatedly failing documents are
  quarantined behind structured 503s (``/healthz`` reports
  ``degraded``), and shutdown is a graceful drain.
- :mod:`repro.serve.mounts` is the one path from disk to the mounted
  set, at start-up and on every hot reload
  (:class:`~repro.serve.mounts.MountTable`: ``scan()`` opens bundles
  and builds their engines, ``install()`` swaps records; corrupt bundles
  are skipped and retried), and the one
  :class:`~repro.serve.mounts.Mount` record per document -- handle,
  engine and health.
- :mod:`repro.serve.admission` bounds what runs
  (:class:`~repro.serve.admission.Admission`: a slot limit with ``429``
  past it, a worker-thread or event-loop run with ``504`` past its
  deadline, epoch tags a reload drains).
- :class:`~repro.serve.client.ServeClient` is the matching stdlib
  client (``repro client query/batch/stats`` in the CLI), with an
  exponential-backoff retry budget (seeded jitter) on connection
  errors, 429 and 503.
- :class:`~repro.serve.daemon.DaemonThread` runs a daemon on a
  background thread for tests and benchmarks.
"""

from repro.serve.client import ServeClient, ServeError, format_rows
from repro.serve.daemon import DaemonThread, QueryDaemon

__all__ = [
    "DaemonThread",
    "QueryDaemon",
    "ServeClient",
    "ServeError",
    "format_rows",
]
