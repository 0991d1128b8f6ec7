"""Per-layer probes: short, separate measurements of single layers through
their public calls, on the document of the workload being traced.

Each probe group has a home workload (``HOME``), the one whose end-to-end
metrics its layers explain.  There each timing is the median of
``sizes.probe_calls`` calls, taken after ``sizes.probe_passes`` untimed
executions wherever the ``auto`` planner is involved: it tries each near-tie
strategy twice by the clock before it freezes a plan, and a probe must not
time those trials.  Under the other workloads the group runs once (one call,
one pass): every traced run has to print every per-layer name, but only the
home value is a measurement to read.  Every answer a probe gets is checked
against the oracle; a mismatch or an exception counts into ``Probes.failed``.
The probes never touch the workload's own daemon, engine or corpus: they
build their own under ``workdir``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List

from harness import (
    BACKWARD, COLD_QUERY, DOC_NAME, FORWARD, KEYWORD_QUERY, QUERY_TEXTS, ROOT,
    Daemon, Sizes, child_env, median, pin_to_one_cpu, quantile, tree_bytes,
)
from repro import (
    BinaryTree, DocumentStore, Engine, TreeIndex, Workspace, compile_xpath,
    open_document, parse_xpath, save_document,
)
from repro.engine.planner import planner_fields
from repro.serve.client import ServeClient
from repro.xmark.generator import XMarkGenerator
from workloads import FAILURE_COUNTERS, RawClient, _passes, oracle_answers

FIXED = ("optimized", "vectorized", "window")
STRATEGIES = ("auto",) + FIXED

#: Probe group -> the workloads it is measured in full under.
HOME = {
    "build": ("ingest-sync",),  # xmark.* tree.* index.* store.*
    "xpath": ("engine-mix",),
    "engine": ("engine-mix",),
    "batch": ("engine-mix",),
    "cli": ("engine-mix",),
    "serve": ("serve-point", "serve-scan"),
}


class Probes:
    def __init__(self, workload: str, xml: str, scale: float, seed: int,
                 count_only: bool, sizes: Sizes, workdir: str) -> None:
        self.workload = workload
        self.xml, self.scale, self.seed = xml, scale, seed
        self.count_only = count_only
        self.full = sizes
        self.once = dataclasses.replace(
            sizes, probe_calls=1, probe_passes=1, healthz_calls=3
        )
        self.sizes = sizes
        self.dir = os.path.join(workdir, "probes")
        os.makedirs(self.dir)
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    # -- helpers -----------------------------------------------------------------

    def timed(self, fn: Callable[[], object], before: Callable[[], object] = None):
        """(median ms over ``calls`` calls, last result); ``before`` runs
        untimed ahead of every call."""
        times, result = [], None
        for _ in range(self.sizes.probe_calls):
            if before is not None:
                before()
            t0 = perf_counter()
            result = fn()
            times.append((perf_counter() - t0) * 1000.0)
        return median(times), result

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def run(self) -> Dict[str, float]:
        for group, homes in HOME.items():
            self.sizes = self.full if self.workload in homes else self.once
            getattr(self, group)()
        return self.metrics

    # -- xmark / tree / index / store --------------------------------------------

    def build(self) -> None:
        m, xml = self.metrics, self.xml
        m["xmark.generate_ms"], generated = self.timed(
            lambda: XMarkGenerator(
                scale=self.scale, seed=self.seed, text_content=True
            ).xml()
        )
        self.check(generated == xml)  # the same seed gives the same input
        m["tree.parse_ms"], tree = self.timed(lambda: BinaryTree.from_xml(xml))
        xml_bytes = len(xml.encode("utf-8"))
        m["tree.parse_mb_per_s"] = xml_bytes / 1e6 / (m["tree.parse_ms"] / 1000.0)
        m["index.build_ms"], self.index = self.timed(lambda: TreeIndex(tree))
        self.oracle = oracle_answers(self.index, QUERY_TEXTS)
        self.counts = [len(ids) for ids in self.oracle]

        bundle = os.path.join(self.dir, "bundle")
        m["store.write_ms"], _ = self.timed(lambda: save_document(self.index, bundle))
        m["store.open_ms"], _ = self.timed(lambda: open_document(bundle).close())
        self.bundle = bundle

        source = os.path.join(self.dir, "src")
        self.corpus = os.path.join(self.dir, "corpus")
        os.makedirs(source)
        with open(os.path.join(source, DOC_NAME + ".xml"), "w") as handle:
            handle.write(xml)
        store = DocumentStore(self.corpus)
        store.sync(source)
        m["store.sync_noop_ms"], report = self.timed(lambda: store.sync(source))
        self.check(report["unchanged"] == [DOC_NAME] and not report["replaced"])
        # compact needs a retired bundle to delete: replace untimed, then time.
        m["store.compact_ms"], report = self.timed(
            store.compact, before=lambda: store.replace(DOC_NAME, self.index)
        )
        self.check(len(report["deleted"]) == 1)
        m["store.verify_deep_ms"], report = self.timed(lambda: store.verify(deep=True))
        self.check(all(entry.get("ok", True) for entry in report.values()))
        m["store.bytes_per_xml_byte"] = tree_bytes(self.corpus) / xml_bytes

        def open_store():
            with Workspace() as workspace:
                workspace.open_store(self.corpus)
                return workspace.count_all(COLD_QUERY)

        m["store.open_store_ms"], counts = self.timed(open_store)
        cold = QUERY_TEXTS.index(COLD_QUERY)
        self.check(counts == {DOC_NAME: self.counts[cold]})

    # -- xpath -------------------------------------------------------------------

    def xpath(self) -> None:
        parse_us, compile_us = [], []
        for query in QUERY_TEXTS:
            ms, path = self.timed(lambda: parse_xpath(query))
            parse_us.append(ms * 1000.0)
            if not path.has_backward_axes():  # the ASTA covers the forward fragment
                ms, _ = self.timed(lambda: compile_xpath(path))
                compile_us.append(ms * 1000.0)
        self.metrics["xpath.parse_us"] = sum(parse_us) / len(parse_us)
        self.metrics["xpath.compile_us"] = sum(compile_us) / len(compile_us)

    # -- engine ------------------------------------------------------------------

    def engine(self) -> None:
        m, index = self.metrics, self.index
        texts = QUERY_TEXTS

        def prepare_all():
            engine = Engine(index, strategy="auto")
            t0 = perf_counter()
            for query in texts:
                engine.prepare(query)
            return (perf_counter() - t0) * 1000.0 / len(texts), engine

        per_query = [prepare_all() for _ in range(self.sizes.probe_calls)]
        m["engine.prepare_cold_ms"] = median([ms for ms, _ in per_query])
        engine = per_query[-1][1]
        warm_ms, _ = self.timed(lambda: [engine.prepare(q) for q in texts])
        m["engine.prepare_warm_us"] = warm_ms * 1000.0 / len(texts)

        # Per-strategy execute time, forward and backward queries apart, and
        # the exact visited/selected counts of each strategy's first run.
        groups = {"forward": list(FORWARD.values()), "backward": list(BACKWARD.values())}
        per_query_ms: Dict[str, List[float]] = {}
        for strategy in STRATEGIES:
            engine = Engine(index, strategy=strategy)
            visited = selected = 0
            times = []
            for i, query in enumerate(texts):
                plan = engine.prepare(query)
                first = plan.execute()
                self.check(first.ids == self.oracle[i])
                visited += first.stats.visited
                selected += first.stats.selected
                for _ in range(self.sizes.probe_passes if strategy == "auto" else 1):
                    plan.execute()
                ms, _ = self.timed(plan.execute)
                times.append(ms)
            per_query_ms[strategy] = times
            for group, members in groups.items():
                m[f"engine.execute_ms.{strategy}.{group}"] = sum(
                    ms for ms, q in zip(times, texts) if q in members
                )
            if strategy in ("optimized", "window"):
                m[f"engine.visited_per_selected.{strategy}"] = visited / max(1, selected)
        best = sum(min(per_query_ms[s][i] for s in FIXED) for i in range(len(texts)))
        m["engine.auto_vs_best_ratio"] = sum(per_query_ms["auto"]) / best

        # A short session as engine-mix runs it: tail latency, replans, and
        # the cost of turning the id tuple into a list.
        engine = Engine(index, strategy="auto")
        plans = [engine.prepare(q) for q in texts]
        for _ in range(self.sizes.probe_passes):
            for plan in plans:
                plan.execute()
        samples = []
        for i in _passes(random.Random(self.seed), self.sizes.probe_passes):
            t0 = perf_counter()
            ids = list(plans[i].execute().ids)
            samples.append((perf_counter() - t0) * 1000.0)
            self.check(len(ids) == self.counts[i])
        m["engine.latency_ms_p90"] = quantile(samples, 0.90)
        m["engine.latency_ms_p99"] = quantile(samples, 0.99)
        m["engine.replans"] = float(sum(
            planner_fields(plan).get("planner", {}).get("replans", 0)
            for plan in plans
        ))
        results = [plan.execute() for plan in plans]
        m["engine.materialize_ms"] = sum(
            self.timed(lambda: list(result.ids))[0] for result in results
        )

    def batch(self) -> None:
        """The same kernels through ``parallel.py`` / ``pool.py``."""
        m = self.metrics
        expected = {q: list(ids) for q, ids in zip(QUERY_TEXTS, self.oracle)}
        with Workspace(strategy="auto") as workspace:
            workspace.add(DOC_NAME, self.index)
            for executor, kwargs in (
                ("serial", {}),
                ("thread", {"jobs": 2, "executor": "thread"}),
                ("pool", {"jobs": 2, "executor": "pool"}),
            ):
                def run():
                    return workspace.select_many(QUERY_TEXTS, DOC_NAME, **kwargs)

                for _ in range(self.sizes.probe_passes):  # plans, shards, workers, planner
                    run()
                m[f"engine.batch_ms.{executor}"], answers = self.timed(run)
                self.check(answers == expected)
            stats = workspace.service(jobs=2, executor="pool").pool_stats()
            m["engine.pool_warm_hit_rate"] = float(stats["warm_hit_rate"])
            m["engine.pool_steals"] = float(stats["steals"])
            self.check(stats["failures"] == 0)

    # -- cli ---------------------------------------------------------------------

    def _python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )

    def cli(self) -> None:
        m = self.metrics
        m["cli.import_ms"], done = self.timed(
            lambda: self._python("-c", "import repro.cli")
        )
        self.check(done.returncode == 0)
        m["cli.oneshot_ms_p50"], done = self.timed(
            lambda: self._python(
                "-m", "repro.cli", "store", "query", COLD_QUERY, self.bundle, "--count"
            )
        )
        cold = QUERY_TEXTS.index(COLD_QUERY)
        self.check(done.returncode == 0 and done.stdout.strip() == str(self.counts[cold]))

    # -- serve -------------------------------------------------------------------

    def serve(self) -> None:
        m = self.metrics
        log = os.path.join(self.dir, "daemon.log")
        cpus = pin_to_one_cpu()  # as the serve workloads run
        try:
            with Daemon(self.corpus, log) as daemon:
                m["serve.startup_ms"] = daemon.startup_ms
                client = ServeClient(port=daemon.port, retries=0)
                raw = RawClient(daemon.port)
                try:
                    self._serve_session(client, raw, daemon.port)
                finally:
                    client.close()
                    raw.close()
        finally:
            os.sched_setaffinity(0, cpus)

    def _serve_session(self, client: ServeClient, raw: RawClient, port: int) -> None:
        m, texts = self.metrics, QUERY_TEXTS

        rtt = []
        for _ in range(self.sizes.healthz_calls):
            t0 = perf_counter()
            status, _body = raw.get("/healthz")
            rtt.append((perf_counter() - t0) * 1000.0)
            self.check(status == 200)
        m["serve.healthz_rtt_ms_p50"] = median(rtt)

        for _ in range(self.sizes.probe_passes):  # the daemon's prepared plans, untimed
            for query in texts:
                client.query(query, count=True)
        counters0 = client.stats()["counters"]

        # A short session as the serve workloads run it.
        bodies = []
        for query in texts:
            body = {"query": query}
            if self.count_only:
                body["count"] = True
            bodies.append(json.dumps(body).encode("utf-8"))
        latency, overhead, sizes = [], [], []
        engine_ms = 0.0
        for i in _passes(random.Random(self.seed), self.sizes.probe_passes):
            t0 = perf_counter()
            status, data = raw.post("/query", bodies[i])
            reply = json.loads(data)
            ms = (perf_counter() - t0) * 1000.0
            self.check(status == 200 and reply["count"] == self.counts[i])
            total = reply["timing_ms"]["total"]
            latency.append(ms)
            overhead.append(ms - total)
            engine_ms += total
            sizes.append(len(data))
        m["serve.latency_ms_p90"] = quantile(latency, 0.90)
        m["serve.latency_ms_p99"] = quantile(latency, 0.99)
        m["serve.overhead_ms_p50"] = median(overhead)
        m["serve.engine_share"] = engine_ms / sum(latency)
        m["serve.response_bytes_p50"] = median(sizes)

        keyword_count = len(Engine(self.index).prepare(KEYWORD_QUERY).execute().ids)
        with_ids, reply = self.timed(lambda: client.query(KEYWORD_QUERY))
        self.check(len(reply["ids"]) == keyword_count)
        only_count, reply = self.timed(lambda: client.query(KEYWORD_QUERY, count=True))
        self.check(reply["count"] == keyword_count)
        m["serve.ids_vs_count_ms"] = with_ids - only_count

        m["serve.batch_ms_p50"], reply = self.timed(
            lambda: client.batch(list(texts), count=True)
        )
        self.check([r["count"] for r in reply["results"]] == self.counts)

        m["serve.ops_per_s_2clients"] = self._two_clients(port)

        counters = client.stats()["counters"]
        delta = {k: counters[k] - counters0[k] for k in counters}
        answered = delta["warm_hits"] + delta["cold_misses"]
        m["serve.warm_hit_rate"] = delta["warm_hits"] / max(1, answered)
        m["serve.rejected"] = float(delta["rejected"])
        m["serve.fallbacks"] = float(delta["fallbacks"])
        self.check(all(delta[k] == 0 for k in FAILURE_COUNTERS))

    def _two_clients(self, port: int) -> float:
        """Two connections, closed loop each: completed requests per second."""
        done = [0, 0]
        failed = [0, 0]

        def loop(slot: int) -> None:
            order = _passes(random.Random(self.seed + slot), self.sizes.probe_passes)
            with ServeClient(port=port, retries=0) as client:
                for i in order:
                    try:
                        reply = client.query(QUERY_TEXTS[i], count=self.count_only)
                        failed[slot] += reply["count"] != self.counts[i]
                        done[slot] += 1
                    except Exception:
                        failed[slot] += 1

        threads = [threading.Thread(target=loop, args=(slot,)) for slot in (0, 1)]
        t0 = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - t0
        self.attempted += sum(done) + sum(failed)
        self.failed += sum(failed)
        return sum(done) / elapsed
