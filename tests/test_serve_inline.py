"""The daemon's inline selection: which ``/query`` skips the thread hop,
what sends it back, and that every admission/timeout/self-healing rule
holds on the event loop exactly as on a worker thread."""

import asyncio
import json
import re
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro import faults
from repro.engine.workspace import Workspace
from repro.faults import FaultPlan
from repro.lru import LRUCache
from repro.serve import DaemonThread, QueryDaemon, ServeClient, ServeError
from repro.serve import daemon as daemon_module
from repro.serve.http import HttpError, Request, encode_request, read_response
from repro.store import DocumentStore
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES
from strategies import fuzz_corpus

TINY = "<r><a><b/></a><a/><c><b/></c></r>"  # //a/b -> [2]
#: The benchmark's query mix: Fig-4 Q01-Q15 plus five backward/sibling paths.
MIX20 = list(QUERIES.values()) + [
    "//listitem/following-sibling::listitem",
    "//keyword/ancestor::listitem",
    "//keyword/parent::text",
    "//keyword[ancestor::mail]",
    "//item[mailbox/mail]/following-sibling::item",
]
FUZZ = fuzz_corpus(0xC0FFEE + 1, 4, 12, backward=True, following=True)
MAX_WARMUP = 40  # requests; the cost record settles in two or three


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("inline-corpus")
    ws = Workspace()
    ws.add("xmark", XMarkGenerator(scale=0.05, seed=7).xml())
    ws.add("tiny", TINY)
    for i, (xml, _queries) in enumerate(FUZZ):
        ws.add(f"fuzz{i}", xml)
    ws.save(str(root))
    ws.close()
    return str(root)


@pytest.fixture()
def daemon(corpus):
    with DaemonThread(QueryDaemon(corpus, workers=2, timeout=10.0)) as handle:
        yield handle.daemon


@pytest.fixture()
def client(daemon):
    with ServeClient(port=daemon.port, retries=0) as c:
        yield c


@pytest.fixture()
def hops(daemon):
    """Every function handed to the worker-thread executor, in order."""
    return spy_on_executor(daemon)


def spy_on_executor(daemon):
    calls = []
    submit = daemon._threads.submit

    def spy(fn, *args, **kwargs):
        calls.append(fn)
        return submit(fn, *args, **kwargs)

    daemon._threads.submit = spy
    return calls


#: What :func:`fix_costs` has every ``/query`` run record.
FIXED_COST_S = daemon_module.INLINE_MAX_S / 10


def fix_costs(daemon, monkeypatch):
    """Make every ``/query`` run of ``daemon`` record
    :data:`FIXED_COST_S`, plus whatever delay a :class:`SlowedPlan`
    adds, instead of its wall time.  Which request runs inline then
    follows the selection rules alone -- not how the host happened to
    schedule a run that is meant to be cheap (one measured at 1 ms or
    more sends the next request back to the thread)."""
    body = daemon._query_body

    def recorded(mount, engine, cached, query, strategy, flags, *rest):
        try:
            return body(mount, engine, cached, query, strategy, flags, *rest)
        finally:
            plan = cached or engine.cached_plan(query, strategy)
            costs = plan and plan.artifacts.get(daemon_module.COST_KEY)
            if costs is not None:
                delay = getattr(plan._execute_impl, "delay", 0.0)
                costs[tuple(flags.values())] = FIXED_COST_S + delay

    monkeypatch.setattr(daemon, "_query_body", recorded)


@pytest.fixture()
def fixed_cost(daemon, monkeypatch):
    fix_costs(daemon, monkeypatch)


def until_inline(client, query, **kwargs):
    """Repeat the request until it is answered inline; every reply."""
    replies = []
    for _ in range(MAX_WARMUP):
        replies.append(client.query(query, **kwargs))
        if replies[-1]["executor"] == "inline":
            return replies
    pytest.fail(f"{query!r} never went inline: {replies[-1]}")


def entry_of(daemon, document, query, strategy="auto"):
    """A cached plan and its live ``/query`` cost record."""
    plan = daemon.mounts.records[document].engine.cached_plan(query, strategy)
    return SimpleNamespace(plan=plan, cost_s=plan.artifacts[daemon_module.COST_KEY])


class SlowedPlan:
    """Make a cached plan's every execution ``delay`` seconds longer --
    or, with ``error``, fail -- until the block ends."""

    def __init__(self, plan, delay=0.0, error=None):
        self.plan, self.delay, self.error = plan, delay, error

    def __enter__(self):
        self.inner = inner = self.plan._execute_impl

        def impl(plan, index, stats):
            time.sleep(self.delay)
            if self.error is not None:
                raise self.error
            return inner(plan, index, stats)

        impl.delay = self.delay  # what fix_costs adds to the recorded cost
        self.plan._execute_impl = impl
        return self

    def __exit__(self, *exc):
        self.plan._execute_impl = self.inner


class TestSelection:
    def test_cold_takes_the_thread_then_settles_inline(
        self, daemon, client, hops, fixed_cost
    ):
        query = "//person[address]"
        replies = until_inline(client, query, document="xmark", count=True)
        first = replies[0]
        assert first["executor"] == "thread" and first["warm"] is False
        assert first["timing_ms"]["queue"] > 0
        assert len(replies) >= 2  # never on a cold plan
        assert len(hops) == len(replies) - 1
        for _ in range(5):
            reply = client.query(query, document="xmark", count=True)
            assert reply["executor"] == "inline" and reply["warm"] is True
            assert reply["timing_ms"]["queue"] == 0.0
            assert reply["count"] == first["count"]
        assert len(hops) == len(replies) - 1
        counters = client.stats()["counters"]
        assert counters["inline"] == 6
        assert counters["threaded"] == len(replies) - 1
        assert counters["inline"] + counters["threaded"] == counters["queries"]

    def test_each_answer_mode_is_measured_on_its_own(self, client, hops, fixed_cost):
        until_inline(client, "//a/b", document="tiny", count=True)
        before = len(hops)
        # The id-list answer of the same plan has no measurement yet.
        reply = client.query("//a/b", document="tiny")
        assert reply["executor"] == "thread" and reply["warm"] is True
        assert len(hops) == before + 1
        assert client.query("//a/b", document="tiny")["executor"] == "inline"
        assert (
            client.query("//a/b", document="tiny", labels=True)["executor"]
            == "thread"
        )

    def test_armed_faults_send_everything_to_the_thread(
        self, client, hops, fixed_cost
    ):
        until_inline(client, "//a/b", document="tiny")
        before = len(hops)
        with faults.active(FaultPlan()):
            for _ in range(3):
                reply = client.query("//a/b", document="tiny")
                assert reply["executor"] == "thread"
        assert len(hops) == before + 3
        assert client.query("//a/b", document="tiny")["executor"] == "inline"

    def test_cost_at_or_over_the_cut_goes_back_to_the_thread(
        self, daemon, client, hops, fixed_cost
    ):
        query, kwargs = "//a/b", {"document": "tiny", "strategy": "vectorized"}
        until_inline(client, query, **kwargs)
        entry = entry_of(daemon, "tiny", query, "vectorized")
        mode = (False, False, False)
        assert entry.cost_s[mode] < daemon_module.INLINE_MAX_S
        with SlowedPlan(entry.plan, delay=0.02):
            before = len(hops)
            # The run that discovers the plan got slow is still inline...
            assert client.query(query, **kwargs)["executor"] == "inline"
            assert entry.cost_s[mode] >= 0.02
            # ...and while it stays slow, every later one hops.
            for _ in range(3):
                assert client.query(query, **kwargs)["executor"] == "thread"
            assert len(hops) == before + 3
        # A thread run measures too: cheap again, inline again.
        assert client.query(query, **kwargs)["executor"] == "thread"
        assert client.query(query, **kwargs)["executor"] == "inline"

    def test_a_warm_inline_query_looks_its_plan_up_once(
        self, daemon, client, monkeypatch, fixed_cost
    ):
        until_inline(client, "//a/b", document="tiny")
        plans = daemon.mounts.records["tiny"].engine._plans
        lookups = []
        get = LRUCache.get

        def spy(cache, key):
            if cache is plans:
                lookups.append(key)
            return get(cache, key)

        monkeypatch.setattr(LRUCache, "get", spy)
        reply = client.query("//a/b", document="tiny")
        assert reply["executor"] == "inline" and reply["warm"] is True
        assert lookups == [("//a/b", "auto")]

    def test_exactly_the_cut_is_not_under_it(self, daemon, client, monkeypatch):
        until_inline(client, "//a/b", document="tiny")
        monkeypatch.setattr(daemon_module, "INLINE_MAX_S", 0.0)
        assert client.query("//a/b", document="tiny")["executor"] == "thread"

    def test_timeout_below_the_recorded_cost_takes_the_thread(
        self, daemon, client, hops, fixed_cost
    ):
        until_inline(client, "//a/b", document="tiny")
        entry = entry_of(daemon, "tiny", "//a/b")
        cost = entry.cost_s[(False, False, False)]
        before = len(hops)
        try:
            reply = client.query("//a/b", document="tiny", timeout_s=cost / 2)
            assert reply["executor"] == "thread"
        except ServeError as exc:  # the hop alone may exceed half the cost
            assert exc.status == 504
        assert len(hops) == before + 1
        assert (
            client.query("//a/b", document="tiny", timeout_s=1.0)["executor"]
            == "inline"
        )

    def test_lru_eviction_forgets_the_measurement(self, corpus):
        small = QueryDaemon(corpus, workers=1)
        small.mounts.records["tiny"].engine.plan_cache_size = 2
        with DaemonThread(small) as handle:
            with ServeClient(port=handle.port, retries=0) as c:
                until_inline(c, "//a/b", document="tiny")
                c.query("//c/b", document="tiny")
                c.query("//a", document="tiny")  # evicts //a/b
                reply = c.query("//a/b", document="tiny")
                assert reply["executor"] == "thread" and reply["warm"] is False

    @pytest.mark.parametrize("strategy", ["window", "optimized", "jumping"])
    def test_a_strategy_override_settles_inline_too(
        self, client, strategy, fixed_cost
    ):
        replies = until_inline(client, "//a/b", document="tiny", strategy=strategy)
        assert replies[0]["executor"] == "thread"
        assert all(reply["ids"] == [2] for reply in replies)


class TestReload:
    def test_first_request_after_a_reload_takes_the_thread(
        self, tmp_path, monkeypatch
    ):
        store = DocumentStore(str(tmp_path))
        store.save("doc", TINY)
        store.save("stable", TINY)
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            fix_costs(handle.daemon, monkeypatch)
            hops = spy_on_executor(handle.daemon)
            with ServeClient(port=handle.port, retries=0) as c:
                for name in ("doc", "stable"):
                    until_inline(c, "//a/b", document=name)
                store.replace("doc", "<r><a><b/><b/></a></r>")
                assert c.reload()["replaced"] == ["doc"]
                before = len(hops)
                first = c.query("//a/b", document="doc")
                assert first["executor"] == "thread" and first["warm"] is False
                assert first["ids"] == [2, 3]
                assert len(hops) == before + 1
                # The untouched document kept its plan and its measurement.
                assert c.query("//a/b", document="stable")["executor"] == "inline"
                assert until_inline(c, "//a/b", document="doc")[-1]["ids"] == [2, 3]


class TestGuardRailsOnTheInlinePath:
    def test_overrun_answers_504_and_goes_back_to_the_thread(
        self, daemon, client, hops, fixed_cost
    ):
        query, kwargs = "//a/b", {"document": "tiny", "strategy": "vectorized"}
        until_inline(client, query, **kwargs)
        entry = entry_of(daemon, "tiny", query, "vectorized")
        timeouts = daemon.counters["timeouts"]
        before = len(hops)
        with SlowedPlan(entry.plan, delay=0.3):
            with pytest.raises(ServeError) as excinfo:
                client.query(query, timeout_s=0.1, **kwargs)
        assert len(hops) == before  # it did run inline
        assert excinfo.value.status == 504 and excinfo.value.kind == "timeout"
        assert excinfo.value.payload["error"]["timeout_s"] == 0.1
        assert daemon.counters["timeouts"] == timeouts + 1
        assert daemon._in_flight == 0 and not daemon.admission._tagged
        assert client.query(query, **kwargs)["executor"] == "thread"
        assert len(hops) == before + 1
        assert client.healthz()["ok"] is True

    def test_admission_limit_answers_429_before_an_inline_run(
        self, corpus, monkeypatch
    ):
        tight = QueryDaemon(corpus, workers=1, queue_depth=0, timeout=5.0)
        fix_costs(tight, monkeypatch)
        with DaemonThread(tight) as handle:
            with ServeClient(port=handle.port, retries=0) as c:
                until_inline(c, "//a/b", document="tiny")
                hops = spy_on_executor(tight)
                release = threading.Event()
                tight._threads.submit(release.wait, 10)  # occupy the one worker

                def hold():  # cold: queues behind the plug, holds the slot
                    with ServeClient(port=handle.port, retries=0) as other:
                        other.query("//c/b", document="tiny")

                holder = threading.Thread(target=hold)
                holder.start()
                deadline = time.time() + 5
                while tight._in_flight < 1 and time.time() < deadline:
                    time.sleep(0.01)
                assert tight._in_flight == 1
                try:
                    with pytest.raises(ServeError) as excinfo:
                        c.query("//a/b", document="tiny")
                    assert excinfo.value.status == 429
                    assert excinfo.value.kind == "overloaded"
                    assert len(hops) == 2  # the plug and the holder, no more
                finally:
                    release.set()
                    holder.join(timeout=10)
                assert c.query("//a/b", document="tiny")["executor"] == "inline"
                assert tight.counters["rejected"] == 1

    def test_drain_refuses_what_would_have_run_inline(self, corpus):
        daemon = QueryDaemon(corpus, workers=1)
        request = Request(
            method="POST",
            target="/query",
            path="/query",
            body=json.dumps({"query": "//a/b", "document": "tiny"}).encode(),
        )

        async def scenario():
            for _ in range(MAX_WARMUP):
                _status, body = await daemon._dispatch(request)
                if json.loads(body)["executor"] == "inline":
                    break
            else:
                pytest.fail("never went inline")
            daemon._draining = True
            with pytest.raises(HttpError) as excinfo:
                await daemon._dispatch(request)
            assert excinfo.value.status == 503
            assert excinfo.value.kind == "shutting_down"
            assert daemon._in_flight == 0
            await daemon.stop(drain_timeout=0.1)

        asyncio.run(scenario())
        assert daemon.counters["drain_rejects"] == 1

    def test_naive_fallback_and_quarantine_run_inline_too(
        self, corpus, monkeypatch
    ):
        daemon = QueryDaemon(corpus, workers=2, fail_threshold=2)
        fix_costs(daemon, monkeypatch)
        with DaemonThread(daemon) as handle:
            with ServeClient(port=handle.port, retries=0) as c:
                query = "//a/b"
                until_inline(c, query, document="tiny")
                until_inline(c, query, document="tiny", strategy="naive")
                hops = spy_on_executor(daemon)
                boom = RuntimeError("injected strategy bug")
                primary = entry_of(daemon, "tiny", query).plan
                reference = entry_of(daemon, "tiny", query, "naive").plan
                with SlowedPlan(primary, error=boom):
                    rescued = c.query(query, document="tiny")
                    assert rescued["executor"] == "inline"
                    assert rescued["fallback"] == "naive"
                    assert rescued["strategy"] == "naive"
                    assert rescued["ids"] == [2]
                    assert daemon.stats()["health"]["failure_streaks"] == {}
                    with SlowedPlan(reference, error=boom):
                        for _ in range(2):
                            with pytest.raises(ServeError) as excinfo:
                                c.query(query, document="tiny")
                            assert excinfo.value.status == 500
                            assert excinfo.value.kind == "evaluation_failed"
                        with pytest.raises(ServeError) as excinfo:
                            c.query(query, document="tiny")
                        assert excinfo.value.status == 503
                        assert excinfo.value.kind == "quarantined"
                assert hops == []  # all of it on the event loop
                errors = daemon.stats()["errors"]
                assert errors["fallbacks"] == 3
                assert errors["fallback_successes"] == 1
                assert errors["eval_failures"] == 2
                assert c.healthz()["quarantined"] == ["tiny"]
                # Other documents are untouched, and the override lifts it.
                assert c.query("//keyword", document="xmark", count=True)["count"]
                assert daemon.unquarantine("tiny") is True
                assert c.query(query, document="tiny")["ids"] == [2]


def raw_query(sock, body):
    """One ``/query`` over a bare socket: the response body's bytes."""
    sock.sendall(
        encode_request("POST", "/query", "test", json.dumps(body).encode())
    )
    status, _keep_alive, raw, surplus = read_response(sock)
    assert status == 200 and surplus == b"", (status, bytes(raw[:200]))
    return bytes(raw)


WAY = re.compile(rb'"executor": "[a-z]+", |"timing_ms": \{[^{}]*\}, ')


class TestSameAnswerEitherWay:
    """Inline and thread bodies differ in ``timing_ms`` and ``executor``
    and in nothing else, byte for byte."""

    def bodies(self, daemon, document, query, strategy):
        """Compare the two bodies of one request; falsy if it has no
        inline one."""
        body = {"query": query, "document": document, "strategy": strategy}
        with socket.create_connection(("127.0.0.1", daemon.port), 5) as sock:
            for _ in range(MAX_WARMUP):
                inline = raw_query(sock, body)
                if b'"executor": "inline"' in inline:
                    break
            else:
                return None  # measured at or over the cut: nothing to compare
            with faults.active(FaultPlan()):  # armed: the thread path
                thread = raw_query(sock, body)
        assert b'"executor": "thread"' in thread
        assert b'"queue": 0.0' in inline and b'"queue": ' in thread
        assert WAY.sub(b"", inline) == WAY.sub(b"", thread), (document, query)
        assert WAY.sub(b"", inline) != inline and b'"ids": [' in inline
        return True

    def test_mix20_under_auto(self, daemon):
        for query in MIX20:
            assert self.bodies(daemon, "xmark", query, "auto")

    def test_consecutive_bodies_differ_in_timing_only(self, daemon):
        """No member of an envelope counts runs or converges: what a
        plan's second warm answer says, its third says byte for byte."""
        body = {"query": "//keyword/parent::text", "document": "xmark"}
        with socket.create_connection(("127.0.0.1", daemon.port), 5) as sock:
            raw_query(sock, body)  # cold: builds the plan
            with faults.active(FaultPlan()):  # armed: both take the thread
                first, second = raw_query(sock, body), raw_query(sock, body)
        timing = re.compile(rb'"timing_ms": \{[^{}]*\}, ')
        assert timing.sub(b"", first) == timing.sub(b"", second) != first
        assert b'"executes_as": "window"' in first and b"planner" not in first

    @pytest.mark.parametrize("strategy", ["vectorized", "optimized"])
    def test_mix20_and_a_fuzz_corpus_without_one(self, daemon, strategy):
        cases = [("xmark", query) for query in MIX20] + [
            (f"fuzz{i}", query)
            for i, (_xml, queries) in enumerate(FUZZ)
            for query in queries
        ]
        compared = sum(
            bool(self.bodies(daemon, document, query, strategy))
            for document, query in cases
        )
        # The few left out resolve to a per-node fallback strategy that
        # costs more than the cut even on these documents.
        assert compared >= len(cases) - 8, compared


class TestConcurrency:
    def test_sixteen_clients_cheap_and_costly_with_a_live_healthz(
        self, tmp_path_factory
    ):
        root = tmp_path_factory.mktemp("inline-load")
        ws = Workspace()
        ws.add("xmark", XMarkGenerator(scale=0.2, seed=3).xml())
        cheap = ["//keyword", "/site/regions//item", "//person[address]"]
        costly = ["//listitem//keyword", "//item[location]/description"]
        oracle = {q: ws.select(q, "xmark") for q in cheap + costly}
        ws.save(str(root))
        ws.close()
        daemon = QueryDaemon(str(root), workers=2, queue_depth=32, timeout=30.0)
        failures, executors, probes = [], {}, []
        done = threading.Event()

        def worker(seed):
            try:
                with ServeClient(port=daemon.port, timeout=30.0) as c:
                    for i in range(24):
                        if (seed + i) % 4 == 0:
                            # The reference evaluator: far over the cut.
                            query = costly[(seed + i) // 4 % len(costly)]
                            reply = c.query(query, strategy="naive")
                            ids = reply["ids"]
                        else:
                            query = cheap[(seed + i) % len(cheap)]
                            reply = c.query(query, count=True)
                            ids = c.query(query)["ids"] if i % 8 == 1 else None
                        if reply["count"] != len(oracle[query]) or (
                            ids is not None and ids != oracle[query]
                        ):
                            failures.append((seed, query))
                        executors.setdefault(query, set()).add(reply["executor"])
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                failures.append((seed, repr(exc)))

        def prober():
            with ServeClient(port=daemon.port, retries=0, timeout=10.0) as c:
                while not done.is_set():
                    t0 = time.perf_counter()
                    try:
                        ok = c.healthz()["ok"]
                    except Exception as exc:  # noqa: BLE001
                        failures.append(("healthz", repr(exc)))
                        return
                    probes.append((ok, time.perf_counter() - t0))
                    time.sleep(0.002)

        # Worker threads and the loop both write plan measurements and
        # counters: switch threads far more often than the default 5 ms
        # so a lost update would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with DaemonThread(daemon):
                watcher = threading.Thread(target=prober)
                watcher.start()
                threads = [
                    threading.Thread(target=worker, args=(n,))
                    for n in range(16)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                done.set()
                watcher.join(timeout=10)
                assert not any(t.is_alive() for t in threads + [watcher])
                counters = daemon.stats()["counters"]
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert counters["inline"] + counters["threaded"] == counters["queries"]
        assert all(executors[q] == {"thread"} for q in costly), executors
        assert any("inline" in executors[q] for q in cheap), executors
        assert counters["inline"] > 0 and counters["threaded"] > 0
        assert counters["rejected"] == 0 and counters["timeouts"] == 0
        assert len(probes) >= 10 and all(ok for ok, _ in probes)
        assert max(seconds for _, seconds in probes) < 5.0
