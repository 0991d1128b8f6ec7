"""Parallel batches: shard a document, fan a query mix out to a pool.

Run:  python examples/parallel_batch.py [scale]

The same batch is answered three ways -- serial workspace, sharded
thread pool, persistent worker-process pool -- and the three answers
are asserted identical.  The equivalent one-shot CLI is::

    python -m repro.cli batch --queries queries.txt --jobs 4 --xmark 0.2
"""

import sys
import time

from repro import Workspace
from repro.engine.parallel import shard_document
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    ws = Workspace()
    ws.add("auctions", XMarkGenerator(scale=scale, seed=42).tree())
    queries = list(QUERIES.values())

    print("== sharding: split at top-level children of the root ==")
    shards = shard_document(ws.engine("auctions").index, parts=4)
    n = ws.engine("auctions").tree.n
    for shard in shards:
        root_child = shard.index.tree.label(1)
        print(f"shard {shard.ordinal}: nodes [{shard.lo:5d}, {shard.hi:5d})"
              f"  ~{100 * (shard.hi - shard.lo) / n:4.1f}%  starts <{root_child}>")

    print()
    print("== one batch, serial and both executors, one answer ==")
    t0 = time.perf_counter()
    serial = ws.select_many(queries, document="auctions")
    serial_ms = (time.perf_counter() - t0) * 1000
    print(f"serial        {serial_ms:8.2f} ms")
    for executor in ("thread", "pool"):
        service = ws.service(jobs=4, executor=executor)
        service.select_many(queries, document="auctions")  # warm the pool
        t0 = time.perf_counter()
        parallel = service.select_many(queries, document="auctions")
        ms = (time.perf_counter() - t0) * 1000
        assert parallel == serial
        print(f"{executor:8s}x4    {ms:8.2f} ms   identical to serial: "
              f"{parallel == serial}")
    ws.close()

    print()
    print("== per-query aggregated shard counters ==")
    service = ws.service(jobs=2)
    for qid in ("Q05", "Q08", "Q12"):
        result = service.execute(QUERIES[qid], "auctions")
        print(f"{qid}: {len(result.ids):4d} nodes selected, "
              f"{result.stats.visited} visited, {result.stats.jumps} jumps "
              f"across {len(service.doc_shards('auctions'))} shards")
    ws.close()


if __name__ == "__main__":
    main()
