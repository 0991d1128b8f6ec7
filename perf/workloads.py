"""The four workloads.  Each is an object with

``setup()``      generate inputs from the seed, build what the program under
                 test needs, compute the oracle, run one untimed warm-up round;
``round(rng, tracer)``  one round, an untimed checking pass then a fixed number
                 of timed blocks of fixed composition -> :class:`Round`;
``cold_phase(deadline, tracer)``  extra cold-path samples after the rounds
                 (``round_share`` of ``--seconds`` goes to the rounds);
``cpu_now()`` / ``peak_rss_mb()``  CPU seconds and peak resident set of the
                 process under test;
``xml``, ``scale``, ``doc_seed``, ``count_only``  the document and answer
                 mode the per-layer probes of a traced run use;
``extra_failures()``  failures only the program's own counters show;
``teardown()``   stop what ``setup`` started, on every exit path.

With ``tracer=None`` a round makes the calls a user makes (``plan.execute()``,
``ServeClient.query``, ``DocumentStore.sync``); with a tracer it makes the same
operation step by step through public calls with a span around each step, so
the traced and untraced rounds of one run also check the steps against the
fused call (``trace.overhead_share``).
"""

from __future__ import annotations

import http.client
import json
import os
import random
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional, Tuple

from harness import (
    COLD_QUERY, DOC_NAME, FORWARD, QUERY_TEXTS, Daemon, Sizes, cpu_seconds, median,
    pin_to_one_cpu, vm_hwm_mb,
)
from repro import BinaryTree, DocumentStore, Engine, TreeIndex, Workspace, parse_xpath
from repro.serve.client import ServeClient
from repro.store import bytes_fingerprint, plan_sync
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES


@dataclass
class Round:
    ops: int = 0  # timed operations completed
    wall_s: float = 0.0  # wall time of the timed operations
    cpu_s: float = 0.0  # CPU of the process under test over them
    #: One entry per block, the unit the end-to-end timings are taken over: a
    #: pass over MIX20 (30-80 ms; one ``sync`` op for ingest-sync) as (ops per
    #: second, median per-op ms, CPU ms per op).  Blocks are short so that a
    #: burst of the host spoils few of them.
    blocks: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Cold-path samples as (query index, ms): one per query of a cold pass (a
    #: fresh engine or daemon answering the mix once); ingest-sync times a
    #: whole pass (a fresh workspace) under index 0.
    cold_ms: List[Tuple[int, float]] = field(default_factory=list)
    attempted: int = 0  # timed + checking + cold operations
    failed: int = 0

    def add_block(self, samples_ms: List[float], wall_s: float, cpu_s: float) -> None:
        n = len(samples_ms)
        if n:
            self.ops += n
            self.wall_s += wall_s
            self.cpu_s += cpu_s
            self.blocks.append((n / wall_s, median(samples_ms), cpu_s * 1000.0 / n))


def build_document(scale: float, seed: int):
    """(xml, index) of one XMark document, parsed here and never reopened
    from a store: what the oracle runs on."""
    if FORWARD != QUERIES:
        raise RuntimeError("perf/harness.py FORWARD drifted from repro.xmark.queries")
    xml = XMarkGenerator(scale=scale, seed=seed, text_content=True).xml()
    return xml, TreeIndex(BinaryTree.from_xml(xml))


def oracle_answers(index, queries) -> List[tuple]:
    """Reference answers: the ``optimized`` strategy on a fresh parse."""
    engine = Engine(index, strategy="optimized")
    return [engine.prepare(q).execute().ids for q in queries]


def _passes(rng: random.Random, passes: int) -> List[int]:
    """A seeded shuffle of whole passes over MIX20: every round has the same
    composition, only the order differs."""
    order = list(range(len(QUERY_TEXTS))) * passes
    rng.shuffle(order)
    return order


# -- engine-mix ------------------------------------------------------------------


class EngineMix:
    """One in-process document, ``Engine(strategy="auto")``, 20 prepared
    plans; op = ``plan.execute()`` + ``list(result.ids)``."""

    name = "engine-mix"
    count_only = False  # the probes' serve session returns ids, as the op does
    round_share = 0.6  # the rest of ``--seconds`` goes to the cold phase

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        self.sizes, self.seed = sizes, seed
        self.doc_seed = seed
        self.scale = sizes.engine_scale
        self.setup_cold = Round()

    def setup(self) -> None:
        self.xml, self.index = build_document(self.scale, self.doc_seed)
        self.nodes = self.index.tree.n
        self.oracle = oracle_answers(self.index, QUERY_TEXTS)
        self.counts = [len(ids) for ids in self.oracle]
        self.engine = Engine(self.index, strategy="auto")
        self.plans = [self.engine.prepare(q) for q in QUERY_TEXTS]
        self.round(random.Random(self.seed), None)

    def teardown(self) -> None:
        pass

    cpu_now = staticmethod(time.process_time)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    def extra_failures(self) -> int:
        return 0

    def round(self, rng: random.Random, tracer) -> Round:
        out = Round()
        plans, counts = self.plans, self.counts
        for plan, expected in zip(plans, self.oracle):  # untimed: full id lists
            out.attempted += 1
            try:
                out.failed += plan.execute().ids != expected
            except Exception:
                out.failed += 1
        for _ in range(self.sizes.engine_passes):
            order = _passes(rng, 1)
            samples: List[float] = []
            cpu0, start = self.cpu_now(), perf_counter()
            for i in order:
                try:
                    if tracer is None:
                        t0 = perf_counter()
                        ids = list(plans[i].execute().ids)
                        t1 = perf_counter()
                    else:
                        t0 = perf_counter()
                        with tracer.span("op"):
                            with tracer.span("engine.execute"):
                                result = plans[i].execute()
                            with tracer.span("engine.materialize"):
                                ids = list(result.ids)
                        t1 = perf_counter()
                    samples.append((t1 - t0) * 1000.0)
                    out.failed += len(ids) != counts[i]
                except Exception:
                    out.failed += 1
            wall_s = perf_counter() - start
            out.add_block(samples, wall_s, self.cpu_now() - cpu0)
            out.attempted += len(order)
        return out

    def cold_phase(self, deadline: float, tracer) -> Round:
        """Fresh engines (fresh plan and compiled-query caches), each doing
        ``prepare`` + first ``execute`` once per query."""
        out = Round()
        engines = 0
        while engines < self.sizes.cold_engines or perf_counter() < deadline:
            engine = Engine(self.index, strategy="auto")
            engines += 1
            for i, query in enumerate(QUERY_TEXTS):
                out.attempted += 1
                try:
                    t0 = perf_counter()
                    if tracer is None:
                        result = engine.prepare(query).execute()
                    else:
                        result = self._cold_steps(engine, query, tracer)
                    out.cold_ms.append((i, (perf_counter() - t0) * 1000.0))
                    out.failed += result.ids != self.oracle[i]
                except Exception:
                    out.failed += 1
        return out

    @staticmethod
    def _cold_steps(engine, query, tracer):
        with tracer.span("cold"):
            with tracer.span("xpath.parse"):
                path = parse_xpath(query)
            if not path.has_backward_axes():  # no ASTA exists for those
                with tracer.span("xpath.compile"):
                    engine.compile(path)
            with tracer.span("engine.prepare"):
                plan = engine.prepare(path)
            with tracer.span("engine.execute"):
                return plan.execute()


# -- serve-point / serve-scan ----------------------------------------------------


class RawClient:
    """One keep-alive connection, one call per protocol step, so a traced
    round can put a span around encode, round trip and decode."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, data: bytes):
        self.conn.request(
            "POST", path, body=data, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        return response.status, response.read()

    def get(self, path: str):
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


#: /stats counters that must not move during a run.
FAILURE_COUNTERS = ("rejected", "fallbacks", "eval_failures")


class Serve:
    """``repro serve`` as a subprocess over one stored document, one
    keep-alive ``ServeClient``, closed loop.  ``count_only`` selects the
    point (no id list) or the scan (full id list) use of the same layer.
    Its cold samples are the first answer of a freshly started daemon (the
    one of set-up, then those of the cold phase) to each query of the mix (prepare, plan and first
    execute behind one round trip).  The spawn itself is in ``setup_s`` and
    in ``serve.startup_ms``."""

    round_share = 0.8  # the rest of ``--seconds`` goes to further fresh daemons

    def __init__(self, name, scale, passes, count_only, sizes, seed, workdir):
        self.name, self.scale, self.passes = name, scale, passes
        self.count_only = count_only
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.doc_seed = seed
        self.daemon: Optional[Daemon] = None
        self.client: Optional[ServeClient] = None
        self.raw: Optional[RawClient] = None
        self.cpus: Optional[set] = None
        self.setup_cold = Round()

    def setup(self) -> None:
        self.cpus = pin_to_one_cpu()  # client and daemon share one CPU
        self.xml, index = build_document(self.scale, self.doc_seed)
        self.nodes = index.tree.n
        oracle = oracle_answers(index, QUERY_TEXTS)
        self.oracle = [list(ids) for ids in oracle]
        self.counts = [len(ids) for ids in oracle]
        self.store_dir = os.path.join(self.workdir, f"store-{self.name}")
        DocumentStore(self.store_dir).add(DOC_NAME, index)
        del index, oracle
        self.daemon = Daemon(
            self.store_dir, os.path.join(self.workdir, "daemon.log")
        ).start()
        # retries=0: a 429 or a dropped connection is a failure, not a wait.
        self.client = ServeClient(port=self.daemon.port, retries=0)
        self.raw = RawClient(self.daemon.port)
        self.counters0 = self.client.stats()["counters"]
        self._first_answers(self.client, self.setup_cold)
        self.round(random.Random(self.seed), None)

    def _first_answers(self, client: ServeClient, out: Round) -> None:
        """Ask a freshly started daemon the mix once: a cold sample per query."""
        for i, query in enumerate(QUERY_TEXTS):
            out.attempted += 1
            try:
                t0 = perf_counter()
                reply = client.query(query, count=self.count_only)
                out.cold_ms.append((i, (perf_counter() - t0) * 1000.0))
                out.failed += reply["count"] != self.counts[i] or reply["warm"]
            except Exception:
                out.failed += 1

    def teardown(self) -> None:
        client, raw, daemon, cpus = self.client, self.raw, self.daemon, self.cpus
        self.client = self.raw = self.daemon = self.cpus = None
        try:
            for connection in (client, raw):
                if connection is not None:
                    connection.close()
        finally:
            if daemon is not None:
                daemon.stop()
            if cpus is not None:
                os.sched_setaffinity(0, cpus)

    def cpu_now(self) -> float:
        return cpu_seconds(self.daemon.pid)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.daemon.pid)

    def extra_failures(self) -> int:
        now = self.client.stats()["counters"]
        return sum(now[k] - self.counters0[k] for k in FAILURE_COUNTERS)

    def _answer_ok(self, reply: dict, i: int) -> bool:
        if self.count_only:
            return reply["count"] == self.counts[i]
        return len(reply["ids"]) == self.counts[i]

    def round(self, rng: random.Random, tracer) -> Round:
        out = Round()
        client, texts = self.client, QUERY_TEXTS
        for i, query in enumerate(texts):  # untimed: full id lists
            out.attempted += 1
            try:
                out.failed += client.query(query)["ids"] != self.oracle[i]
            except Exception:
                out.failed += 1
        count_only = self.count_only
        for _ in range(self.passes):
            order = _passes(rng, 1)
            samples: List[float] = []
            cpu0, start = self.cpu_now(), perf_counter()
            for i in order:
                try:
                    t0 = perf_counter()
                    if tracer is None:
                        reply = client.query(texts[i], count=count_only)
                    else:
                        reply = self._query_steps(texts[i], tracer)
                    t1 = perf_counter()
                    samples.append((t1 - t0) * 1000.0)
                    out.failed += not self._answer_ok(reply, i)
                except Exception:
                    out.failed += 1
            wall_s = perf_counter() - start
            out.add_block(samples, wall_s, self.cpu_now() - cpu0)
            out.attempted += len(order)
        return out

    def _query_steps(self, query: str, tracer) -> dict:
        body = {"query": query}
        if self.count_only:
            body["count"] = True
        with tracer.span("op"):
            with tracer.span("client.encode"):
                data = json.dumps(body).encode("utf-8")
            with tracer.span("serve.roundtrip") as trip:
                status, raw = self.raw.post("/query", data)
            with tracer.span("client.decode"):
                reply = json.loads(raw)
            if status != 200:
                raise RuntimeError(f"HTTP {status}: {raw[:200]!r}")
            timing = reply["timing_ms"]
            tracer.add("engine.prepare", trip, 0.0, timing.get("prepare", 0.0))
            tracer.add(
                "engine.execute", trip, timing.get("prepare", 0.0),
                timing.get("execute", timing["total"]),
            )
        return reply

    def cold_phase(self, deadline: float, tracer) -> Round:
        """Further fresh daemons over the same store, each asked the mix once."""
        out = Round()
        log = os.path.join(self.workdir, "daemon.log")
        while perf_counter() < deadline:
            with Daemon(self.store_dir, log) as daemon:
                with ServeClient(port=daemon.port, retries=0) as client:
                    self._first_answers(client, out)
                    counters = client.stats()["counters"]
                    out.failed += sum(counters[k] for k in FAILURE_COUNTERS)
        return out


def serve_point(sizes: Sizes, seed: int, workdir: str) -> Serve:
    return Serve("serve-point", sizes.point_scale, sizes.point_passes, True,
                 sizes, seed, workdir)


def serve_scan(sizes: Sizes, seed: int, workdir: str) -> Serve:
    return Serve("serve-scan", sizes.scan_scale, sizes.scan_passes, False,
                 sizes, seed, workdir)


# -- ingest-sync -----------------------------------------------------------------


class IngestSync:
    """A corpus of XML files mirrored into a store: op = one changed file ->
    ``sync`` + ``compact``; after each op a cold read of the whole corpus."""

    name = "ingest-sync"
    count_only = False
    round_share = 1.0

    def __init__(self, sizes: Sizes, seed: int, workdir: str) -> None:
        self.sizes, self.seed, self.workdir = sizes, seed, workdir
        self.doc_seed = seed * 100  # seed of document 0, which the probes run on
        self.scale = sizes.ingest_scale
        self.setup_cold = Round()

    def setup(self) -> None:
        docs = self.sizes.ingest_docs
        self.src = os.path.join(self.workdir, "ingest-src")
        self.corpus = os.path.join(self.workdir, "ingest-corpus")
        os.makedirs(self.src)
        self.names = [f"doc{slot}" for slot in range(docs)]
        # docs+1 documents: slot i alternates between document i and i+1, so
        # every slot has two variants and set-up generates 7 documents, not 12.
        self.documents: List[bytes] = []
        self.oracle: List[list] = []
        self.nodes = 0
        for k in range(docs + 1):
            xml, index = build_document(self.scale, self.doc_seed + k)
            self.nodes = max(self.nodes, index.tree.n)
            self.documents.append(xml.encode("utf-8"))
            self.oracle.append(list(oracle_answers(index, [COLD_QUERY])[0]))
        self.xml = self.documents[0].decode("utf-8")  # what the probes run on
        self.current = [0] * docs
        for slot in range(docs):
            self._write_source(slot)
        self.store = DocumentStore(self.corpus)
        self.store.sync(self.src)
        self.round(random.Random(self.seed), None)

    def teardown(self) -> None:
        pass

    cpu_now = staticmethod(time.process_time)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(os.getpid())

    def extra_failures(self) -> int:
        return 0

    def _write_source(self, slot: int) -> None:
        path = os.path.join(self.src, self.names[slot] + ".xml")
        with open(path, "wb") as handle:
            handle.write(self.documents[slot + self.current[slot]])

    def round(self, rng: random.Random, tracer) -> Round:
        out = Round()
        for _ in range(self.sizes.ingest_ops):
            slot = rng.randrange(len(self.names))
            self.current[slot] ^= 1
            self._write_source(slot)
            out.attempted += 2
            try:
                cpu0, t0 = self.cpu_now(), perf_counter()
                if tracer is None:
                    report = self.store.sync(self.src)
                    self.store.compact()
                    replaced = report["replaced"]
                else:
                    replaced = self._sync_steps(tracer)
                t1, cpu1 = perf_counter(), self.cpu_now()
                out.add_block([(t1 - t0) * 1000.0], t1 - t0, cpu1 - cpu0)
                out.failed += replaced != [self.names[slot]]
            except Exception:
                out.failed += 1
            try:
                t0 = perf_counter()
                answers = self._cold_read(tracer)
                out.cold_ms.append((0, (perf_counter() - t0) * 1000.0))
                expected = {
                    name: self.oracle[s + self.current[s]]
                    for s, name in enumerate(self.names)
                }
                out.failed += answers != expected
            except Exception:
                out.failed += 1
        return out

    def _sync_steps(self, tracer) -> List[str]:
        """``sync`` + ``compact`` taken apart into their public steps."""
        with tracer.span("op"):
            with tracer.span("store.plan"):
                plan = plan_sync(self.corpus, self.src)
            sources = plan["sources"]
            for name in plan["replace"]:
                with tracer.span("tree.parse"):
                    with open(sources[name], "rb") as handle:
                        data = handle.read()
                    tree = BinaryTree.from_xml(data.decode("utf-8"))
                with tracer.span("index.build"):
                    index = TreeIndex(tree)
                with tracer.span("store.write"):
                    self.store.replace(
                        name, index, fingerprint=bytes_fingerprint(data),
                        source={"kind": "xml", "file": sources[name]},
                    )
            with tracer.span("store.compact"):
                self.store.compact()
        return list(plan["replace"])

    def _cold_read(self, tracer) -> dict:
        if tracer is None:
            workspace = Workspace()
            try:
                workspace.open_store(self.corpus)
                return workspace.select_all(COLD_QUERY)
            finally:
                workspace.close()
        with tracer.span("cold"):
            workspace = Workspace()
            try:
                with tracer.span("store.open_store"):
                    workspace.open_store(self.corpus)
                with tracer.span("engine.cold_query"):
                    return workspace.select_all(COLD_QUERY)
            finally:
                with tracer.span("store.close"):
                    workspace.close()

    def cold_phase(self, deadline: float, tracer) -> Round:
        return Round()  # the cold read follows every op instead


WORKLOADS = {
    "engine-mix": EngineMix,
    "serve-point": serve_point,
    "serve-scan": serve_scan,
    "ingest-sync": IngestSync,
}
