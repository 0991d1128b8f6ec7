"""Parallel batches: one task per (document, query), fanned out to a pool.

Run:  python examples/parallel_batch.py [scale]

Three auction documents get the same query mix.  The batch is answered
three ways -- serial workspace, thread pool, persistent worker-process
pool -- and the three answers are asserted identical.  Every
(document, query) pair runs as one whole-document task, which the
pool's own counters show.  The equivalent one-shot CLI (one document)
is::

    python -m repro.cli batch --queries queries.txt --jobs 4 --xmark 0.2
"""

import sys
import time

from repro import Workspace
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    ws = Workspace()
    for seed in (42, 43, 44):
        ws.add(f"auctions-{seed}", XMarkGenerator(scale=scale, seed=seed).tree())
    queries = list(QUERIES.values())

    print("== one batch, serial and both executors, one answer ==")
    t0 = time.perf_counter()
    serial = ws.select_many(queries)
    serial_ms = (time.perf_counter() - t0) * 1000
    print(f"serial        {serial_ms:8.2f} ms")
    for executor in ("thread", "pool"):
        service = ws.service(jobs=4, executor=executor)
        service.select_many(queries)  # warm the pool
        t0 = time.perf_counter()
        parallel = service.select_many(queries)
        ms = (time.perf_counter() - t0) * 1000
        assert parallel == serial
        print(f"{executor:8s}x4    {ms:8.2f} ms   identical to serial: "
              f"{parallel == serial}")

    print()
    print("== the pool ran one task per (document, query) ==")
    stats = ws.service(jobs=4, executor="pool").pool_stats()
    print(f"{len(ws)} documents x {len(queries)} queries x 2 batches = "
          f"{stats['tasks']} tasks in {stats['chunks']} chunks, "
          f"{stats['steals']} steals")

    print()
    print("== per-query counters on one document ==")
    service = ws.service(jobs=2)
    for qid in ("Q05", "Q08", "Q12"):
        result = service.execute(QUERIES[qid], "auctions-42")
        print(f"{qid}: {len(result):4d} nodes selected, "
              f"{result.stats.visited} visited")
    ws.close()


if __name__ == "__main__":
    main()
