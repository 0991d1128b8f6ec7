"""Chaos suite: fault injection, corruption recall, self-healing serving.

Every test here is deterministic: corruption offsets, probabilistic
firing and retry jitter all come from fixed seeds, so a failure replays
identically under ``pytest -x``.
"""

import errno
import io
import json
import os
import random
import shutil
import socket
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.engine.api import Engine
from repro.engine.workspace import Workspace
from repro.faults import (
    FaultPlan,
    InjectedFault,
    InjectedWorkerError,
    corrupt_bundle,
    corrupt_file,
)
from repro.serve import DaemonThread, QueryDaemon, ServeClient, ServeError
from repro.store import (
    DocumentStore,
    StoreCorruptionError,
    StoreError,
    StoreFormatError,
    open_document,
    verify_document,
)
from repro.store.format import ARRAYS, HEADER_FILE, array_path

XML = "<r><a><b/></a><a/><c><b/></c></r>"
#: //a/b on XML above (node ids are stable: document order).
AB_IDS = [2]


def build_bundle(path, xml=XML):
    ws = Workspace()
    ws.add("doc", xml)
    saved = ws.save(str(path))
    ws.close()
    return saved["doc"]


# -- the framework itself -----------------------------------------------------


class TestFaultFramework:
    def test_check_is_noop_without_plan(self):
        faults.check("store.load_array", array="left", path="/nope")

    def test_inject_scoped_by_match(self):
        with faults.inject(
            "serve.evaluate", "exception", match={"document": "bad"}
        ) as plan:
            faults.check("serve.evaluate", document="good", strategy="auto")
            with pytest.raises(InjectedWorkerError):
                faults.check("serve.evaluate", document="bad", strategy="auto")
        assert plan.fired() == 1
        assert plan.checks["serve.evaluate"] == 2

    def test_unless_spares_the_fallback_path(self):
        with faults.inject(
            "serve.evaluate", "exception", unless={"strategy": "naive"}
        ):
            with pytest.raises(InjectedWorkerError):
                faults.check("serve.evaluate", document="d", strategy="auto")
            faults.check("serve.evaluate", document="d", strategy="naive")

    def test_after_and_times_gate_firing(self):
        plan = FaultPlan()
        plan.add("s", "io_error", after=2, times=1)
        with faults.active(plan):
            faults.check("s")
            faults.check("s")
            with pytest.raises(InjectedFault):
                faults.check("s")
            faults.check("s")  # times=1 budget spent
        assert plan.fired("s") == 1

    def test_probability_is_seed_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.add("s", "io_error", probability=0.5)
            pattern = []
            with faults.active(plan):
                for _ in range(20):
                    try:
                        faults.check("s")
                        pattern.append(0)
                    except InjectedFault:
                        pattern.append(1)
            return pattern

        assert firing_pattern(7) == firing_pattern(7)
        assert firing_pattern(7) != firing_pattern(8)
        assert 0 < sum(firing_pattern(7)) < 20

    def test_io_error_carries_errno(self):
        with faults.inject("s", "io_error", errno_=errno.ENOSPC):
            with pytest.raises(OSError) as exc:
                faults.check("s")
        assert exc.value.errno == errno.ENOSPC

    def test_no_nested_plans(self):
        with faults.inject("s", "io_error", times=0):
            with pytest.raises(RuntimeError, match="already active"):
                with faults.inject("t", "io_error"):
                    pass

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan().add("s", "segfault")

    def test_corrupt_file_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(bytes(range(256)))
        b.write_bytes(bytes(range(256)))
        ra = corrupt_file(str(a), mode="bit_flip", seed=5)
        rb = corrupt_file(str(b), mode="bit_flip", seed=5)
        assert (ra["offset"], ra["bit"]) == (rb["offset"], rb["bit"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != bytes(range(256))

    def test_truncate_shrinks_but_keeps_the_file(self, tmp_path):
        f = tmp_path / "f"
        f.write_bytes(b"x" * 100)
        report = corrupt_file(str(f), mode="truncate", seed=0)
        assert 0 < report["to"] < 100
        assert f.stat().st_size == report["to"]


# -- corruption recall over the whole array set -------------------------------


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    return build_bundle(root)


@pytest.fixture()
def bundle(pristine, tmp_path):
    """A throwaway copy of the pristine bundle, safe to damage."""
    dest = str(tmp_path / "doc")
    shutil.copytree(pristine, dest)
    return dest


class TestCorruptionRecall:
    """Deep verification catches every single-array corruption: 5
    arrays x {truncate, bit_flip} = 10 damage cases, 100% recall."""

    @pytest.mark.parametrize("array", sorted(ARRAYS))
    @pytest.mark.parametrize("mode", ["truncate", "bit_flip"])
    def test_deep_verify_catches(self, bundle, array, mode):
        verify_document(bundle, deep=True)  # pristine copy passes
        corrupt_bundle(bundle, array, mode=mode, seed=11)
        with pytest.raises(StoreCorruptionError) as exc:
            verify_document(bundle, deep=True)
        detail = exc.value.to_dict()
        assert detail["reason"]
        assert detail["path"]

    @pytest.mark.parametrize("array", sorted(ARRAYS))
    def test_missing_array_caught_at_open(self, bundle, array):
        """Every array a reader maps is one it checks for: a bundle
        short of any one of them is refused by name, by the serving open
        and by the fast verify alike."""
        os.remove(array_path(bundle, array))
        for check in (open_document, verify_document):
            with pytest.raises(StoreCorruptionError) as exc:
                check(bundle)
            assert exc.value.array == array
            assert exc.value.reason == "array file missing"

    @pytest.mark.parametrize("array", sorted(ARRAYS))
    def test_manifest_short_of_an_array_refused(self, bundle, array):
        header_path = os.path.join(bundle, HEADER_FILE)
        with open(header_path) as handle:
            header = json.load(handle)
        del header["arrays"][array]
        with open(header_path, "w") as handle:
            json.dump(header, handle)
        for check in (open_document, verify_document):
            with pytest.raises(StoreFormatError, match="manifest mismatch"):
                check(bundle)

    @pytest.mark.parametrize("link", ["left", "right"])
    def test_manifest_naming_a_link_array_refused(self, bundle, link):
        """The first-child / next-sibling links are derived, not stored:
        a version 5 header that lists one as an array is refused, by the
        serving open and by the fast verify alike."""
        header_path = os.path.join(bundle, HEADER_FILE)
        with open(header_path) as handle:
            header = json.load(handle)
        header["arrays"][link] = header["arrays"]["xml_end"]
        with open(header_path, "w") as handle:
            json.dump(header, handle)
        for check in (open_document, verify_document):
            with pytest.raises(StoreFormatError, match="manifest mismatch"):
                check(bundle)

    @pytest.mark.parametrize("link", ["left", "right"])
    def test_stray_link_file_is_never_read(self, bundle, link):
        """A ``.npy`` file named for a link beside the five arrays is not
        mapped: the link still comes from ``parent`` and ``xml_end``."""
        with open_document(bundle) as stored:
            expected = list(getattr(stored.tree, link))
        np.save(array_path(bundle, link), np.zeros(len(expected), "<i4"))
        assert verify_document(bundle, deep=True)["ok"] is True
        with open_document(bundle) as stored:
            assert list(getattr(stored.tree, link)) == expected
            assert Engine(stored, strategy="optimized").select("//a/b") == AB_IDS

    def test_truncation_caught_at_open(self, bundle):
        corrupt_bundle(bundle, "xml_end", mode="truncate", seed=0)
        with pytest.raises(StoreCorruptionError) as exc:
            open_document(bundle)
        assert exc.value.array == "xml_end"
        assert exc.value.expected is not None
        assert exc.value.actual is not None
        assert exc.value.actual < exc.value.expected

    def test_data_bit_flip_passes_fast_only_deep_catches(self, bundle):
        # Flip a data bit at the very end of the file: sizes and the
        # .npy header stay intact, so the cheap serving-path checks
        # pass -- exactly the damage class deep verification exists for.
        path = array_path(bundle, "label_of")
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte ^ 1]))
        report = verify_document(bundle, deep=False)
        assert report["ok"] is True and report["mode"] == "fast"
        with pytest.raises(StoreCorruptionError) as exc:
            verify_document(bundle, deep=True)
        assert exc.value.array == "label_of"
        assert exc.value.reason == "checksum mismatch"
        assert exc.value.expected != exc.value.actual

    def test_deep_report_shape(self, bundle):
        report = verify_document(bundle, deep=True)
        assert report["ok"] is True
        assert report["mode"] == "deep"
        assert set(report["arrays"]) == set(ARRAYS)
        for entry in report["arrays"].values():
            assert entry["bytes"] > 0
            assert len(entry["crc32"]) == 8

    def test_corpus_verify_isolates_the_bad_bundle(self, pristine, tmp_path):
        root = tmp_path / "corpus"
        ws = Workspace()
        ws.add("good", XML)
        ws.add("bad", "<r><b/></r>")
        ws.save(str(root))
        ws.close()
        corrupt_bundle(str(root / "bad"), "parent", mode="bit_flip", seed=2)
        store = DocumentStore(str(root))
        reports = store.verify(deep=True)
        assert reports["good"]["ok"] is True
        assert reports["bad"]["ok"] is False
        assert reports["bad"]["error"]["array"] == "parent"
        with pytest.raises(StoreCorruptionError):
            store.verify("bad", deep=True)


class TestManifestWithoutDigests:
    def test_deep_verify_refuses_it(self, bundle):
        header_path = os.path.join(bundle, HEADER_FILE)
        with open(header_path) as handle:
            header = json.load(handle)
        del header["arrays"]["parent"]["crc32"]
        with open(header_path, "w") as handle:
            json.dump(header, handle)
        assert verify_document(bundle, deep=False)["ok"] is True
        with pytest.raises(StoreCorruptionError) as exc:
            verify_document(bundle, deep=True)
        assert exc.value.array == "parent"
        assert "crc32" in exc.value.reason


# -- crash-safe builds --------------------------------------------------------


class TestBuildFaults:
    def test_enospc_mid_build_leaves_no_debris(self, tmp_path):
        with faults.inject(
            "store.write_array", "io_error", errno_=errno.ENOSPC, after=3
        ):
            with pytest.raises(OSError) as exc:
                build_bundle(tmp_path)
        assert exc.value.errno == errno.ENOSPC
        # No bundle published, no hidden staging debris left behind.
        assert os.listdir(tmp_path) == []

    def test_crash_at_publish_leaves_no_debris(self, tmp_path):
        with faults.inject("store.publish", "io_error"):
            with pytest.raises(OSError):
                build_bundle(tmp_path)
        assert os.listdir(tmp_path) == []

    def test_failed_corpus_build_keeps_earlier_bundles(self, tmp_path):
        root = tmp_path / "corpus"
        ws = Workspace()
        ws.add("a", XML)
        ws.add("b", XML)
        # Let every array of bundle "a" be written, fail inside "b".
        with faults.inject(
            "store.write_array",
            "io_error",
            errno_=errno.ENOSPC,
            after=len(ARRAYS) + 2,
        ):
            with pytest.raises(OSError):
                ws.save(str(root))
        ws.close()
        store = DocumentStore(str(root))
        assert store.names() == ["a"]
        assert verify_document(store.path_for("a"), deep=True)["ok"] is True
        # Bundle "a" plus its corpus manifest -- no debris from "b".
        assert sorted(os.listdir(root)) == ["a", "manifest.json"]

    def test_failed_open_releases_partial_mmaps(self, bundle, monkeypatch):
        """Regression: a load that fails *after* several arrays mapped
        fine (here: ``label_ids``, the seventh) must close the handles
        it already opened instead of leaking them until gc."""
        import repro.store.store as store_mod

        original = store_mod.load_array
        mapped = []

        def recording_load(path, name, manifest, into):
            arr = original(path, name, manifest, into)
            if into is not None:
                mapped.append(into[-1])
            return arr

        monkeypatch.setattr(store_mod, "load_array", recording_load)
        with faults.inject(
            "store.load_array", "io_error", match={"array": "label_ids"}
        ):
            with pytest.raises(OSError):
                open_document(bundle)
        assert len(mapped) == 3  # the three columns mapped before the hit
        assert all(pages.closed for pages in mapped)
        # And a failed open never registers a reader.
        from repro.store import live_readers

        assert live_readers(bundle) == 0

    def test_rebuild_crash_preserves_old_corpus_entry(self, tmp_path):
        root = tmp_path / "corpus"
        bundle = build_bundle(root)
        with faults.inject(
            "store.write_array", "io_error", errno_=errno.EIO, after=3
        ):
            with pytest.raises(OSError):
                build_bundle(root, xml="<r><z/></r>")
        assert Engine(open_document(bundle)).select("//a/b") == AB_IDS
        assert verify_document(bundle, deep=True)["ok"] is True


# -- the self-healing daemon --------------------------------------------------


SERVE_QUERIES = ["//a/b", "//a", "//b", "/r/c/b"]


@pytest.fixture()
def chaos_corpus(tmp_path):
    """Two healthy documents plus serial oracle answers."""
    root = tmp_path / "corpus"
    ws = Workspace()
    ws.add("good", XML)
    ws.add("bad", "<r><a><b/><b/></a></r>")
    ws.save(str(root))
    oracle = {
        (doc, q): ws.select(q, doc)
        for doc in ("good", "bad")
        for q in SERVE_QUERIES
    }
    ws.close()
    return str(root), oracle


def make_daemon(root, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("timeout", 10.0)
    return QueryDaemon(root, **kwargs)


class TestDaemonChaos:
    def test_corrupt_bundle_skipped_at_mount(self, chaos_corpus, capsys):
        root, oracle = chaos_corpus
        corrupt_bundle(os.path.join(root, "bad"), "xml_end", mode="truncate")
        with DaemonThread(make_daemon(root)) as handle:
            with ServeClient(port=handle.port, retries=0) as client:
                health = client.healthz()
                assert health["ok"] is False
                assert health["status"] == "degraded"
                assert health["documents"] == ["good"]
                assert "bad" in health["skipped"]
                # The healthy document keeps answering, oracle-identical.
                for q in SERVE_QUERIES:
                    payload = client.query(q, document="good")
                    assert payload["ids"] == oracle[("good", q)]
                stats = client.stats()
                assert stats["health"]["status"] == "degraded"
                assert "bad" in stats["health"]["skipped"]
        assert "skipping corrupt bundle" in capsys.readouterr().err

    def test_all_bundles_corrupt_fails_startup(self, chaos_corpus):
        root, _ = chaos_corpus
        for name in ("good", "bad"):
            corrupt_bundle(os.path.join(root, name), "xml_end", mode="truncate")
        with pytest.raises(ValueError, match="no document bundles usable"):
            make_daemon(root)

    def test_quarantine_after_failure_streak(self, chaos_corpus):
        root, oracle = chaos_corpus
        plan = FaultPlan(seed=3)
        # Every evaluation of "bad" fails -- fallback included.
        plan.add("serve.evaluate", "exception", match={"document": "bad"})
        with DaemonThread(make_daemon(root, fail_threshold=2)) as handle:
            with ServeClient(port=handle.port, retries=0) as client:
                with faults.active(plan):
                    for _ in range(2):
                        with pytest.raises(ServeError) as exc:
                            client.query("//a/b", document="bad")
                        assert exc.value.status == 500
                        assert exc.value.kind == "evaluation_failed"
                    # Streak hit the threshold: structured 503 now,
                    # without touching the engine.
                    with pytest.raises(ServeError) as exc:
                        client.query("//a/b", document="bad")
                    assert exc.value.status == 503
                    assert exc.value.kind == "quarantined"
                    assert exc.value.payload["error"]["document"] == "bad"
                    assert (
                        exc.value.payload["error"]["detail"]["failures"] == 2
                    )
                    health = client.healthz()
                    assert health["status"] == "degraded"
                    assert health["quarantined"] == ["bad"]
                    # Healthy document is untouched by the quarantine.
                    for q in SERVE_QUERIES:
                        payload = client.query(q, document="good")
                        assert payload["ids"] == oracle[("good", q)]
                    stats = client.stats()
                    assert stats["errors"]["eval_failures"] == 2
                    assert stats["errors"]["quarantine_rejects"] == 1
                    assert stats["errors"]["error_rate"] > 0
                # Plan lifted + operator override: serving resumes.
                assert handle.daemon.unquarantine("bad") is True
                payload = client.query("//a/b", document="bad")
                assert payload["ids"] == oracle[("bad", "//a/b")]
                assert client.healthz()["status"] == "ok"

    def test_success_resets_failure_streak(self, chaos_corpus):
        root, oracle = chaos_corpus
        plan = FaultPlan()
        # Fails twice (primary+fallback each request), then heals.
        plan.add(
            "serve.evaluate", "exception", match={"document": "bad"}, times=2
        )
        with DaemonThread(make_daemon(root, fail_threshold=2)) as handle:
            with ServeClient(port=handle.port, retries=0) as client:
                with faults.active(plan):
                    with pytest.raises(ServeError):
                        client.query("//a/b", document="bad")
                    # One ultimately-failed request == streak 1 < 2;
                    # the next succeeds and must reset the streak.
                    payload = client.query("//a/b", document="bad")
                    assert payload["ids"] == oracle[("bad", "//a/b")]
                stats = handle.daemon.stats()
                assert stats["health"]["quarantined"] == {}
                assert stats["health"]["failure_streaks"] == {}

    def test_fallback_to_reference_path(self, chaos_corpus):
        root, oracle = chaos_corpus
        plan = FaultPlan()
        # Every strategy except the naive fallback fails.
        plan.add("serve.evaluate", "exception", unless={"strategy": "naive"})
        with DaemonThread(make_daemon(root)) as handle:
            with ServeClient(port=handle.port, retries=0) as client:
                with faults.active(plan):
                    payload = client.query("//a/b", document="good")
                assert payload["ids"] == oracle[("good", "//a/b")]
                assert payload["fallback"] == "naive"
                assert payload["strategy"] == "naive"
                stats = client.stats()
                assert stats["errors"]["fallbacks"] == 1
                assert stats["errors"]["fallback_successes"] == 1
                # A rescued request is a success: no quarantine streak.
                assert stats["health"]["failure_streaks"] == {}
                assert client.healthz()["status"] == "ok"

    def test_graceful_drain_finishes_in_flight(self, chaos_corpus):
        root, oracle = chaos_corpus
        plan = FaultPlan()
        plan.add("serve.evaluate", "slow_read", delay_s=0.4)
        handle = DaemonThread(make_daemon(root)).start()
        result = {}

        def slow_query():
            with ServeClient(port=handle.port, retries=0) as client:
                result["payload"] = client.query("//a/b", document="good")

        try:
            with faults.active(plan):
                worker = threading.Thread(target=slow_query)
                worker.start()
                time.sleep(0.15)  # let the request reach a worker thread
                t0 = time.monotonic()
                handle.stop()  # graceful drain
                worker.join(timeout=5)
            assert not worker.is_alive()
            # The in-flight request was answered, not cut off.
            assert result["payload"]["ids"] == oracle[("good", "//a/b")]
            assert time.monotonic() - t0 < 5
            assert plan.fired("serve.evaluate") == 1
        finally:
            handle.stop()

    def test_draining_daemon_rejects_new_work(self, chaos_corpus):
        root, _ = chaos_corpus
        daemon = make_daemon(root)
        daemon._draining = True  # the state stop() enters first
        import asyncio

        from repro.serve.http import HttpError, Request

        request = Request(
            method="POST",
            target="/query",
            path="/query",
            body=json.dumps({"query": "//a", "document": "good"}).encode(),
        )
        with pytest.raises(HttpError) as exc:
            asyncio.run(daemon._dispatch(request))
        assert exc.value.status == 503
        assert exc.value.kind == "shutting_down"
        # Probes still answer while draining.
        health_request = Request(
            method="GET", target="/healthz", path="/healthz"
        )
        status, payload = asyncio.run(daemon._dispatch(health_request))
        assert status == 200 and payload["status"] == "draining"
        asyncio.run(daemon.stop(drain_timeout=0.1))


# -- client retry/backoff -----------------------------------------------------


class FlakyHttpStub(threading.Thread):
    """A socket-level stub: N canned failures, then a 200 JSON answer."""

    def __init__(self, responses):
        super().__init__(daemon=True)
        self.responses = list(responses)
        self.requests_seen = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]

    def run(self):
        while self.responses:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                if not data:
                    continue
                self.requests_seen += 1
                status, body = self.responses.pop(0)
                payload = json.dumps(body).encode()
                conn.sendall(
                    f"HTTP/1.1 {status} X\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n".encode() + payload
                )

    def close(self):
        self._sock.close()


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestClientRetry:
    def test_retries_through_transient_503(self):
        stub = FlakyHttpStub(
            [
                (503, {"error": {"kind": "warming", "message": "soon"}}),
                (503, {"error": {"kind": "warming", "message": "soon"}}),
                (200, {"ok": True}),
            ]
        )
        stub.start()
        delays = []
        try:
            client = ServeClient(
                port=stub.port, retries=2, backoff_s=0.01, retry_seed=42
            )
            client._sleep = delays.append
            assert client._request("GET", "/healthz") == {"ok": True}
            client.close()
        finally:
            stub.close()
        assert stub.requests_seen == 3
        assert len(delays) == 2
        # Exact replay of the seeded jitter schedule.
        rng = random.Random(42)
        expected = [
            min(2.0, 0.01 * 2**attempt) * (0.5 + rng.random())
            for attempt in range(2)
        ]
        assert delays == pytest.approx(expected)
        assert all(d > 0 for d in delays)

    def test_retry_budget_exhausted_raises_last_error(self):
        stub = FlakyHttpStub(
            [(503, {"error": {"kind": "warming", "message": "no"}})] * 3
        )
        stub.start()
        try:
            client = ServeClient(
                port=stub.port, retries=2, backoff_s=0.001, retry_seed=0
            )
            client._sleep = lambda _s: None
            with pytest.raises(ServeError) as exc:
                client._request("GET", "/healthz")
            client.close()
        finally:
            stub.close()
        assert exc.value.status == 503
        assert stub.requests_seen == 3

    def test_connection_refused_retries_then_raises(self):
        delays = []
        client = ServeClient(
            port=free_port(), retries=2, backoff_s=0.001, retry_seed=1
        )
        client._sleep = delays.append
        with pytest.raises(ConnectionError, match="after 3 attempt"):
            client.healthz()
        assert len(delays) == 2

    def test_zero_retries_fails_fast(self):
        client = ServeClient(port=free_port(), retries=0)
        client._sleep = lambda _s: pytest.fail("no backoff with retries=0")
        with pytest.raises(ConnectionError, match="after 1 attempt"):
            client.healthz()

    def test_client_errors_never_retried(self):
        stub = FlakyHttpStub(
            [
                (400, {"error": {"kind": "bad_request", "message": "no"}}),
                (200, {"ok": True}),
            ]
        )
        stub.start()
        try:
            client = ServeClient(port=stub.port, retries=3, retry_seed=0)
            client._sleep = lambda _s: None
            with pytest.raises(ServeError) as exc:
                client._request("GET", "/healthz")
            client.close()
        finally:
            stub.close()
        assert exc.value.status == 400
        assert stub.requests_seen == 1  # 4xx is the caller's bug: no retry

    def test_backoff_is_capped_and_seed_deterministic(self):
        a = ServeClient(port=1, backoff_s=0.5, backoff_max_s=2.0, retry_seed=9)
        b = ServeClient(port=1, backoff_s=0.5, backoff_max_s=2.0, retry_seed=9)
        da = [a._backoff(i) for i in range(6)]
        db = [b._backoff(i) for i in range(6)]
        assert da == db
        assert all(d <= 2.0 * 1.5 for d in da)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ServeClient(retries=-1)


# -- the CLI round trip -------------------------------------------------------


class TestVerifyCLI:
    def cli(self, *argv):
        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_build_corrupt_verify_round_trip(self, tmp_path):
        xml = tmp_path / "doc.xml"
        xml.write_text(XML)
        bundle = str(tmp_path / "corpus" / "doc")
        code, _ = self.cli("store", "build", bundle, str(xml))
        assert code == 0
        code, out = self.cli("store", "verify", bundle, "--deep")
        assert code == 0
        assert "ok [deep]" in out
        corrupt_bundle(bundle, "xml_end", mode="bit_flip", seed=4)
        code, out = self.cli(
            "store", "verify", str(tmp_path / "corpus"), "--deep", "--json"
        )
        assert code == 1
        reports = json.loads(out)
        assert [r["ok"] for r in reports] == [False]
        assert reports[0]["error"]["array"] == "xml_end"

    def test_verify_corpus_reports_every_bundle(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        ws = Workspace()
        ws.add("good", XML)
        ws.add("bad", XML)
        ws.save(str(root))
        ws.close()
        corrupt_bundle(str(root / "bad"), mode="truncate", seed=1)
        code, out = self.cli("store", "verify", str(root), "--deep")
        assert code == 1
        assert "bad: CORRUPT" in out
        assert "good: ok [deep]" in out
        assert "1 of 2 bundle(s) failed" in capsys.readouterr().err

    def test_ls_skips_unreadable_bundle(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        ws = Workspace()
        ws.add("good", XML)
        ws.add("bad", XML)
        ws.save(str(root))
        ws.close()
        (root / "bad" / HEADER_FILE).write_text("{mangled")
        code, out = self.cli("store", "ls", str(root))
        assert code == 0
        assert [b["name"] for b in json.loads(out)] == ["good"]
        assert "warning: skipping" in capsys.readouterr().err
