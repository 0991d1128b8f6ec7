"""Daemon hot-reload: generation swaps without dropping a request.

The scenarios the mutable-corpus tentpole promises: ``POST /reload``
picks up ``add``/``replace``/``remove``/``sync`` mutations atomically
(every response matches either the old or the new generation's oracle,
never a mixture), the old generation's mmaps are provably closed after
the drain (the in-process reader registry reaches zero, so ``compact``
can reclaim the retired bundle), previously-corrupt bundles are retried,
and the optional change-stamp poller reloads without being asked.
"""

import os
import threading
import time

import pytest

from repro import faults
from repro.engine.api import Engine
from repro.serve import DaemonThread, QueryDaemon, ServeClient, ServeError
from repro.store import DocumentStore, StoreCorruptionError, live_readers
from repro.store.manifest import RETIRED_PREFIX

XML_V1 = "<r><a><b/></a><a/><c><b/></c></r>"  # //a/b -> [2]
XML_V2 = "<r><a><b/><b/></a></r>"  # //a/b -> [2, 3]
ORACLES = {"v1": [2], "v2": [2, 3]}


def build_corpus(root, docs):
    store = DocumentStore(str(root))
    for name, xml in docs.items():
        store.save(name, xml)
    return store


def retired_paths(root):
    return [
        os.path.join(str(root), entry)
        for entry in os.listdir(str(root))
        if entry.startswith(RETIRED_PREFIX)
    ]


class TestReloadSwap:
    def test_replace_is_picked_up(self, tmp_path):
        store = build_corpus(tmp_path, {"doc": XML_V1})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                assert client.query("//a/b", document="doc")["ids"] == [2]
                store.replace("doc", XML_V2)
                report = client.reload()
                assert report["reloaded"] is True
                assert report["replaced"] == ["doc"]
                assert report["drained"] is True
                assert client.query("//a/b", document="doc")["ids"] == [2, 3]

    def test_old_generation_handles_are_released(self, tmp_path):
        """The acceptance bar: after a reload, no leaked mmap handles --
        the retired bundle's reader count reaches zero and compact can
        delete it while the daemon keeps serving the new generation."""
        store = build_corpus(tmp_path, {"doc": XML_V1})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                client.query("//a/b", document="doc")
                store.replace("doc", XML_V2)
                (retired,) = retired_paths(tmp_path)
                # The daemon still maps the old generation (now renamed).
                assert live_readers(retired) == 1
                assert client.reload()["drained"] is True
                assert live_readers(retired) == 0
                report = store.compact()
                assert report["deleted"] and not report["kept"]
                assert client.query("//a/b", document="doc")["ids"] == [2, 3]

    def test_add_and_remove(self, tmp_path):
        store = build_corpus(tmp_path, {"doc": XML_V1, "victim": XML_V2})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                assert client.query("//a/b", document="victim")["ids"] == [2, 3]
                store.add("fresh", XML_V2)
                store.remove("victim")
                report = client.reload()
                assert report["added"] == ["fresh"]
                assert report["removed"] == ["victim"]
                assert report["unchanged"] == ["doc"]
                assert client.query("//a/b", document="fresh")["ids"] == [2, 3]
                with pytest.raises(ServeError) as exc:
                    client.query("//a/b", document="victim")
                assert exc.value.status == 404
                health = client.healthz()
                assert sorted(health["documents"]) == ["doc", "fresh"]

    def test_noop_reload(self, tmp_path):
        build_corpus(tmp_path, {"doc": XML_V1})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                report = client.reload()
                assert report["reloaded"] is False
                assert report["unchanged"] == ["doc"]
                stats = client.stats()["reload"]
                assert stats["noops"] == 1 and stats["reloads"] == 0
                assert stats["epoch"] == 1

    def test_reload_reports_generations(self, tmp_path):
        store = build_corpus(tmp_path, {"doc": XML_V1})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                store.replace("doc", XML_V2)
                report = client.reload()
                assert report["generations"] == {
                    os.path.abspath(str(tmp_path)): store.generation()
                }
                stats = client.stats()["reload"]
                entry = stats["generations"]["doc"]
                assert entry["generation"] == store.generation()

    def test_warm_cache_invalidated_per_document_only(self, tmp_path):
        store = build_corpus(tmp_path, {"doc": XML_V1, "stable": XML_V1})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                for name in ("doc", "stable"):
                    assert not client.query("//a/b", document=name)["warm"]
                    assert client.query("//a/b", document=name)["warm"]
                store.replace("doc", XML_V2)
                client.reload()
                # The changed document re-prepares; the untouched one
                # keeps its warm plan.
                first = client.query("//a/b", document="doc")
                assert first["warm"] is False
                assert first["ids"] == [2, 3]
                assert client.query("//a/b", document="stable")["warm"]

    def test_reload_resets_quarantine_for_changed_document(self, tmp_path):
        store = build_corpus(tmp_path, {"doc": XML_V1})
        daemon = QueryDaemon(str(tmp_path), workers=2, fail_threshold=2)
        with DaemonThread(daemon) as handle:
            with ServeClient(port=handle.port, retries=0) as client:
                with faults.inject(
                    "serve.evaluate", "exception", match={"document": "doc"}
                ):
                    for _ in range(2):
                        with pytest.raises(ServeError):
                            client.query("//a/b", document="doc")
                with pytest.raises(ServeError) as exc:
                    client.query("//a/b", document="doc")
                assert exc.value.kind == "quarantined"
                # New content invalidates the old evidence.
                store.replace("doc", XML_V2)
                client.reload()
                assert client.query("//a/b", document="doc")["ids"] == [2, 3]

    def test_reload_retries_skipped_bundle(self, tmp_path):
        import shutil

        store = build_corpus(tmp_path, {"doc": XML_V1, "hurt": XML_V2})
        faults.corrupt_bundle(str(tmp_path / "hurt"), "label_of", seed=3)
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            assert "hurt" in handle.daemon.skipped
            with ServeClient(port=handle.port) as client:
                # Repair by republishing through the store.
                shutil.rmtree(str(tmp_path / "hurt"))
                store.save("hurt", XML_V2)
                report = client.reload()
                assert report["added"] == ["hurt"]
                assert report["skipped"] == {}
                assert client.query("//a/b", document="hurt")["ids"] == [2, 3]
                assert client.healthz()["status"] == "ok"

    def test_sync_leaves_a_corrupt_bundle_of_an_unchanged_source(self, tmp_path):
        """``sync`` diffs sources against the manifest fingerprint, not
        the bundle: a published bundle that fails fast verify is
        ``unchanged`` while its source is, and stays on disk as it is.
        The daemon keeps serving the generation it mapped before and
        lists the name under ``skipped``."""
        src = tmp_path / "xml"
        src.mkdir()
        (src / "doc.xml").write_text(XML_V1)
        corpus = str(tmp_path / "corpus")
        store = DocumentStore(corpus)
        store.sync(str(src))
        with DaemonThread(QueryDaemon(corpus, workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                assert client.query("//a/b", document="doc")["ids"] == [2]
                (src / "doc.xml").write_text(XML_V2)
                assert store.sync(str(src))["replaced"] == ["doc"]
                faults.corrupt_bundle(
                    store.path_for("doc"), "xml_end", mode="truncate"
                )
                with pytest.raises(StoreCorruptionError):
                    store.verify("doc")
                generation = store.generation()
                report = store.sync(str(src))
                assert report["unchanged"] == ["doc"]
                assert report["replaced"] == report["added"] == []
                assert store.generation() == generation
                with pytest.raises(StoreCorruptionError):
                    store.verify("doc")
                report = client.reload()
                assert report["reloaded"] is False
                assert list(report["skipped"]) == ["doc"]
                assert client.query("//a/b", document="doc")["ids"] == [2]
                assert list(client.healthz()["skipped"]) == ["doc"]


class TestReloadChaosDrill:
    def test_reload_mid_request_keeps_oracle_identity(self, tmp_path):
        """The drill the tentpole demands: /reload lands while slowed
        requests are in flight.  Zero failures, and every answer equals
        exactly the old or the new generation's oracle."""
        store = build_corpus(tmp_path, {"doc": XML_V1})
        daemon = QueryDaemon(
            str(tmp_path), workers=4, queue_depth=64, timeout=10.0
        )
        with DaemonThread(daemon) as handle:
            failures = []
            answers = []
            stop = threading.Event()

            def worker(seed):
                with ServeClient(port=handle.port, retry_seed=seed) as c:
                    while not stop.is_set():
                        try:
                            ids = c.query("//a/b", document="doc")["ids"]
                        except Exception as exc:
                            failures.append(f"{type(exc).__name__}: {exc}")
                            return
                        answers.append(tuple(ids))

            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(4)
            ]
            # Slow every evaluation down so the swap provably overlaps
            # in-flight requests (the drill is vacuous otherwise).
            plan = faults.FaultPlan(seed=11)
            plan.add("serve.evaluate", "slow_read", delay_s=0.02)
            with faults.active(plan):
                for thread in threads:
                    thread.start()
                time.sleep(0.15)
                store.replace("doc", XML_V2)
                with ServeClient(port=handle.port) as client:
                    report = client.reload()
                time.sleep(0.15)
                stop.set()
                for thread in threads:
                    thread.join()
            assert failures == []
            assert report["replaced"] == ["doc"]
            assert report["drained"] is True
            seen = set(answers)
            # Only the two generations' oracles -- never a mixture, an
            # empty answer, or an error shape.
            assert seen <= {tuple(ORACLES["v1"]), tuple(ORACLES["v2"])}
            assert tuple(ORACLES["v1"]) in seen  # traffic before the swap
            assert tuple(ORACLES["v2"]) in seen  # and after
            # And the old generation's handles are gone.
            for retired in retired_paths(tmp_path):
                assert live_readers(retired) == 0


class TestReloadPolling:
    def test_poll_triggers_reload(self, tmp_path):
        store = build_corpus(tmp_path, {"doc": XML_V1})
        daemon = QueryDaemon(str(tmp_path), workers=2, reload_poll=0.05)
        with DaemonThread(daemon) as handle:
            with ServeClient(port=handle.port) as client:
                assert client.query("//a/b", document="doc")["ids"] == [2]
                store.replace("doc", XML_V2)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if client.query("//a/b", document="doc")["ids"] == [2, 3]:
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("poller never picked up the new generation")
                assert client.stats()["reload"]["reloads"] >= 1

    def test_sync_is_picked_up_by_poll(self, tmp_path):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "doc.xml").write_text(XML_V1)
        corpus = tmp_path / "corpus"
        store = DocumentStore(str(corpus))
        store.sync(str(src))
        daemon = QueryDaemon(str(corpus), workers=2, reload_poll=0.05)
        with DaemonThread(daemon) as handle:
            with ServeClient(port=handle.port) as client:
                (src / "doc.xml").write_text(XML_V2)
                (src / "extra.xml").write_text(XML_V1)
                store.sync(str(src))
                # sync publishes the add before the replace, one generation
                # each: a poll tick between the two mounts "extra" beside the
                # old "doc", so wait for both effects, not the first.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    health = client.healthz()
                    if sorted(health["documents"]) == ["doc", "extra"] and (
                        client.query("//a/b", document="doc")["ids"] == [2, 3]
                    ):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("poller never mounted the synced documents")
                assert client.query("//a/b", document="extra")["ids"] == [2]

    def test_negative_poll_rejected(self, tmp_path):
        build_corpus(tmp_path, {"doc": XML_V1})
        with pytest.raises(ValueError, match="reload_poll"):
            QueryDaemon(str(tmp_path), reload_poll=-1.0)


class TestPlannerRefresh:
    """Doc-stats staleness across reloads: a reload swaps in a fresh
    engine, so what ``/explain`` states of the replaced document's
    plans is read from the new bundle's statistics."""

    def test_reload_replans_changed_document(self, tmp_path):
        """Daemon-level pin: after a reload, the replaced document's
        plan is prepared again and its operators and stated touches
        come from the *new* bundle, while the unchanged document keeps
        its warm plan untouched."""
        store = build_corpus(tmp_path, {"doc": XML_V1, "stable": XML_V1})
        with DaemonThread(QueryDaemon(str(tmp_path), workers=2)) as handle:
            with ServeClient(port=handle.port) as client:
                before = client.explain("//a/b", document="doc")
                for _ in range(4):  # warm both plans
                    client.query("//a/b", document="doc")
                    client.query("//a/b", document="stable")
                warmed = client.explain("//a/b", document="stable")
                store.replace("doc", XML_V2)
                client.reload()
                after = client.explain("//a/b", document="doc")
                assert after["warm"] is False  # re-prepared from scratch
                # v1 has two <a> elements among six nodes, v2 one among
                # four: the stated touches and the operator picked for
                # the child step must have moved with the document.
                assert before["operators"] == ["document", "child/mark"]
                assert after["operators"] == ["document", "child/csr"]
                assert "document                ~2 touches" in before["text"]
                assert "document                ~1 touches" in after["text"]
                assert client.query("//a/b", document="doc")["ids"] == [2, 3]
                # The untouched document's plan survived the reload warm.
                stable = client.explain("//a/b", document="stable")
                assert stable["warm"] is True
                assert stable == warmed
