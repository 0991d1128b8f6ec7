"""Mutable corpora: generations, retirement, compaction, and sync.

Exercises the incremental-update layer over the write-once bundle
format: ``DocumentStore.add/replace/remove`` publishing new generations
atomically, retired bundles staying readable for live readers until
``compact()``, ``sync()`` applying the minimal operation set a source
directory implies, and the manifest healing itself across the
publish-then-record crash window.
"""

import os
import threading
import time

import pytest

from repro.engine.api import Engine
from repro.engine.workspace import Workspace
from repro.store import (
    DocumentStore,
    StoreError,
    bundle_identity,
    bytes_fingerprint,
    corpus_stamp,
    file_fingerprint,
    live_readers,
    open_document,
    read_manifest,
    save_document,
    text_fingerprint,
)
from repro.store.manifest import RETIRED_PREFIX, load_manifest

XML_V1 = "<r><a><b/></a><a/><c><b/></c></r>"
XML_V2 = "<r><a><b/><b/></a></r>"


def retired_names(root):
    return sorted(
        entry
        for entry in os.listdir(str(root))
        if entry.startswith(RETIRED_PREFIX)
    )


class TestMutationAPI:
    def test_add_then_open(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        assert store.generation() == 1
        assert Engine(store.open("doc")).select("//a/b") == [2]

    def test_add_existing_raises(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        with pytest.raises(StoreError, match="already exists"):
            store.add("doc", XML_V2)

    def test_replace_missing_raises(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        with pytest.raises(StoreError, match="no document"):
            store.replace("doc", XML_V1)

    def test_replace_bumps_generation_and_retires(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        assert store.generation() == 2
        assert Engine(store.open("doc")).select("//a/b") == [2, 3]
        assert len(retired_names(tmp_path)) == 1

    def test_remove(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.remove("doc")
        assert "doc" not in store
        assert store.names() == []
        # The bundle is retired, not destroyed.
        assert len(retired_names(tmp_path)) == 1

    def test_remove_missing_raises(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        with pytest.raises(StoreError, match="no document"):
            store.remove("doc")

    def test_save_upserts(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.save("doc", XML_V1)
        store.save("doc", XML_V2)
        assert store.generation() == 2
        assert Engine(store.open("doc")).select("//a/b") == [2, 3]

    def test_generation_persists_across_reopen(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        fresh = DocumentStore(str(tmp_path))
        assert fresh.generation() == 2
        ops = [entry["op"] for entry in fresh.log()]
        assert ops == ["add", "replace"]

    def test_log_limit(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        for _ in range(3):
            store.replace("doc", XML_V2)
            store.replace("doc", XML_V1)
        assert len(store.log(limit=2)) == 2
        assert store.log(limit=2)[-1]["generation"] == store.generation()

    def test_mutation_survives_engine_roundtrip(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        # A workspace mounting the corpus sees only the new generation.
        with Workspace() as ws:
            ws.open_store(str(tmp_path))
            assert ws.select("//a/b", "doc") == [2, 3]


class TestContainsValidation:
    """Satellite: ``__contains__`` must route through ``path_for``."""

    def test_plain_membership(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        assert "doc" in store
        assert "other" not in store

    def test_traversal_names_are_not_contained(self, tmp_path):
        # A sibling bundle outside the corpus root must be invisible,
        # not reachable via "..".
        outside = tmp_path / "outside"
        save_document(XML_V1, str(outside / "doc"))
        corpus = tmp_path / "corpus"
        store = DocumentStore(str(corpus))
        store.add("doc", XML_V1)
        assert os.path.isdir(str(outside / "doc"))
        assert "../outside/doc" not in store
        assert ".." not in store
        assert "a/b" not in store

    def test_hidden_names_are_not_contained(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        for hidden in retired_names(tmp_path):
            assert hidden not in store

    def test_non_string_is_not_contained(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        assert 42 not in store
        assert None not in store


class TestClosedAccessors:
    """Satellite: every accessor raises a structured closed error."""

    def test_accessors_after_close(self, tmp_path):
        bundle = tmp_path / "doc"
        save_document(XML_V1, str(bundle))
        stored = open_document(str(bundle))
        stored.close()
        for access in (
            lambda: stored.tree,
            lambda: stored.n,
            lambda: stored.labels,
        ):
            with pytest.raises(StoreError, match="is closed"):
                access()

    def test_close_is_idempotent(self, tmp_path):
        bundle = tmp_path / "doc"
        save_document(XML_V1, str(bundle))
        stored = open_document(str(bundle))
        stored.close()
        stored.close()


class TestRetireCompact:
    def test_compact_deletes_unreferenced_retired(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        assert len(retired_names(tmp_path)) == 1
        report = store.compact()
        assert len(report["deleted"]) == 1 and not report["kept"]
        assert retired_names(tmp_path) == []
        # Deleting garbage is itself a recorded generation.
        assert store.log()[-1]["op"] == "compact"

    def test_compact_without_garbage_is_a_noop(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        before = store.generation()
        report = store.compact()
        assert report == {
            "deleted": [],
            "kept": [],
            "generation": before,
        }

    def test_reader_keeps_old_generation_alive(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        stored = store.open("doc")
        old_ids = Engine(stored).select("//a/b")
        store.replace("doc", XML_V2)
        report = store.compact()
        assert len(report["kept"]) == 1 and not report["deleted"]
        retired = os.path.join(str(tmp_path), report["kept"][0])
        assert live_readers(retired) == 1
        # The renamed directory is the very publication the reader
        # mapped: identity is rename-stable, and the data still answers.
        assert bundle_identity(retired) == stored._reader_key
        assert Engine(stored).select("//a/b") == old_ids == [2]
        stored.close()
        assert live_readers(retired) == 0
        report = store.compact()
        assert len(report["deleted"]) == 1
        assert retired_names(tmp_path) == []

    def test_concurrent_reader_during_replace_and_compact(self, tmp_path):
        """A reader thread querying the old generation throughout a
        replace + compact never sees an error or a mixed answer."""
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        stored = store.open("doc")
        engine = Engine(stored)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    if engine.select("//a/b") != [2]:
                        failures.append("wrong ids")
                        return
                except Exception as exc:  # pragma: no cover - fail path
                    failures.append(f"{type(exc).__name__}: {exc}")
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(3):
                store.replace("doc", XML_V2)
                store.compact()
                store.replace("doc", XML_V1)
                store.compact()
                time.sleep(0.005)
        finally:
            stop.set()
            thread.join()
        assert failures == []
        stored.close()
        report = store.compact()
        assert not report["kept"]


class TestSync:
    def write_sources(self, base, files):
        src = base / "xml"
        src.mkdir(exist_ok=True)
        for name, body in files.items():
            (src / f"{name}.xml").write_text(body)
        return str(src)

    def test_initial_sync_adds_everything(self, tmp_path):
        src = self.write_sources(
            tmp_path, {"a": XML_V1, "b": XML_V2, "c": "<r/>"}
        )
        store = DocumentStore(str(tmp_path / "corpus"))
        report = store.sync(src)
        assert report["added"] == ["a", "b", "c"]
        assert report["generation"] == {"before": 0, "after": 3}
        assert store.names() == ["a", "b", "c"]

    def test_one_of_n_change_rebuilds_only_the_change(self, tmp_path):
        src = self.write_sources(
            tmp_path, {"a": XML_V1, "b": XML_V2, "c": "<r/>"}
        )
        corpus = tmp_path / "corpus"
        store = DocumentStore(str(corpus))
        store.sync(src)
        before = store.generation()
        mtimes = {
            name: os.stat(
                os.path.join(str(corpus), name, "header.json")
            ).st_mtime_ns
            for name in ("a", "b", "c")
        }
        (tmp_path / "xml" / "b.xml").write_text(XML_V1)
        report = store.sync(src)
        assert report["replaced"] == ["b"]
        assert report["added"] == [] and report["removed"] == []
        assert sorted(report["unchanged"]) == ["a", "c"]
        # Exactly one generation for exactly one changed document...
        assert report["generation"] == {"before": before, "after": before + 1}
        # ...and the untouched bundles were not rewritten.
        for name in ("a", "c"):
            full = os.path.join(str(corpus), name, "header.json")
            assert os.stat(full).st_mtime_ns == mtimes[name]
        full = os.path.join(str(corpus), "b", "header.json")
        assert os.stat(full).st_mtime_ns != mtimes["b"]

    def test_sync_removes_and_keeps(self, tmp_path):
        src = self.write_sources(tmp_path, {"a": XML_V1, "b": XML_V2})
        store = DocumentStore(str(tmp_path / "corpus"))
        store.sync(src)
        os.unlink(os.path.join(src, "b.xml"))
        kept = store.sync(src, delete=False)
        assert kept["kept"] == ["b"] and kept["removed"] == []
        assert "b" in store
        removed = store.sync(src)
        assert removed["removed"] == ["b"]
        assert "b" not in store

    def test_sync_is_idempotent(self, tmp_path):
        src = self.write_sources(tmp_path, {"a": XML_V1})
        store = DocumentStore(str(tmp_path / "corpus"))
        store.sync(src)
        gen = store.generation()
        report = store.sync(src)
        assert report["unchanged"] == ["a"]
        assert store.generation() == gen

    def test_dry_run_changes_nothing(self, tmp_path):
        src = self.write_sources(tmp_path, {"a": XML_V1, "b": XML_V2})
        store = DocumentStore(str(tmp_path / "corpus"))
        store.sync(src)
        (tmp_path / "xml" / "a.xml").write_text("<r><z/></r>")
        gen = store.generation()
        report = store.sync(src, dry_run=True)
        assert report["dry_run"] is True
        assert report["replaced"] == ["a"]
        assert store.generation() == gen
        assert Engine(store.open("a")).select("//a/b") == [2]

    def test_sync_compacts_on_request(self, tmp_path):
        src = self.write_sources(tmp_path, {"a": XML_V1})
        corpus = tmp_path / "corpus"
        store = DocumentStore(str(corpus))
        store.sync(src)
        (tmp_path / "xml" / "a.xml").write_text(XML_V2)
        report = store.sync(src, compact=True)
        assert len(report["compacted"]["deleted"]) == 1
        assert retired_names(corpus) == []

    def test_sync_records_fingerprint(self, tmp_path):
        src = self.write_sources(tmp_path, {"a": XML_V1})
        store = DocumentStore(str(tmp_path / "corpus"))
        store.sync(src)
        entry = store.manifest().documents["a"]
        path = os.path.join(src, "a.xml")
        assert entry["fingerprint"] == file_fingerprint(path)
        data = open(path, "rb").read()
        assert entry["fingerprint"] == bytes_fingerprint(data)
        assert entry["fingerprint"] == text_fingerprint(XML_V1)

    def test_duplicate_stems_rejected(self, tmp_path):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "a.xml").write_text(XML_V1)
        (src / "a.XML").write_text(XML_V2)
        store = DocumentStore(str(tmp_path / "corpus"))
        with pytest.raises(StoreError, match="duplicate"):
            store.sync(str(src))

    def test_missing_source_dir_rejected(self, tmp_path):
        store = DocumentStore(str(tmp_path / "corpus"))
        with pytest.raises(StoreError, match="not a directory"):
            store.sync(str(tmp_path / "nope"))


class TestManifestIOPerOperation:
    """Each public op loads ``manifest.json`` once and writes it once per
    publish; a ``compact`` with nothing to collect writes nothing."""

    @pytest.fixture
    def io(self, monkeypatch):
        import repro.store.manifest
        import repro.store.store

        calls = {"load": 0, "write": 0}

        def counted(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            repro.store.manifest,
            "load_manifest",
            counted("load", repro.store.manifest.load_manifest),
        )
        monkeypatch.setattr(
            repro.store.store,
            "write_manifest",
            counted("write", repro.store.store.write_manifest),
        )

        def take():
            seen = dict(calls)
            calls.update(load=0, write=0)
            return seen

        return take

    def test_sync_one_replace_then_compact(self, tmp_path, io):
        src = tmp_path / "xml"
        src.mkdir()
        for name, body in {"a": XML_V1, "b": XML_V2, "c": "<r/>"}.items():
            (src / f"{name}.xml").write_text(body)
        store = DocumentStore(str(tmp_path / "corpus"))
        store.sync(str(src))
        assert io() == {"load": 1, "write": 3}
        (src / "b.xml").write_text(XML_V1)
        report = store.sync(str(src))
        assert report["replaced"] == ["b"]
        assert report["generation"] == {"before": 3, "after": 4}
        assert io() == {"load": 1, "write": 1}
        report = store.compact()
        assert len(report["deleted"]) == 1 and report["generation"] == 5
        assert io() == {"load": 1, "write": 1}

    def test_clean_compact_writes_nothing(self, tmp_path, io):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        store.compact()
        io()
        manifest = os.path.join(str(tmp_path), "manifest.json")
        before = os.stat(manifest)
        report = store.compact()
        assert report == {"deleted": [], "kept": [], "generation": 3}
        assert io() == {"load": 1, "write": 0}
        after = os.stat(manifest)
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino,
            before.st_mtime_ns,
        )

    def test_each_mutation_loads_once_and_writes_once(self, tmp_path, io):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        assert io() == {"load": 1, "write": 1}
        store.replace("doc", XML_V2)
        assert io() == {"load": 1, "write": 1}
        store.save("doc", XML_V1)
        assert io() == {"load": 1, "write": 1}
        store.remove("doc")
        assert io() == {"load": 1, "write": 1}
        assert store.generation() == 4


class TestManifestReconciliation:
    def test_adopts_bundle_published_without_record(self, tmp_path):
        """The publish-then-record crash window: the bundle landed, the
        manifest write never happened.  Reading heals in memory."""
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        # Simulate the crash: a second bundle with no manifest entry.
        save_document(XML_V2, str(tmp_path / "orphan"))
        manifest = read_manifest(str(tmp_path))
        assert sorted(manifest.documents) == ["doc", "orphan"]
        # Reconciliation never writes: the stored manifest still has one.
        assert sorted(load_manifest(str(tmp_path)).documents) == ["doc"]

    def test_drops_vanished_bundles(self, tmp_path):
        import shutil

        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.add("gone", XML_V2)
        shutil.rmtree(str(tmp_path / "gone"))
        manifest = read_manifest(str(tmp_path))
        assert sorted(manifest.documents) == ["doc"]

    def test_adopts_orphan_retired_directory(self, tmp_path):
        """A crash between the retire-rename and the manifest write
        leaves a retired directory nobody recorded; reading adopts it
        into the garbage list so compact() can still reclaim it."""
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        store.replace("doc", XML_V2)
        retired = retired_names(tmp_path)
        # Drop the retirement record (as if the manifest write was lost).
        manifest = load_manifest(str(tmp_path))
        manifest.retired = []
        from repro.store import write_manifest

        write_manifest(str(tmp_path), manifest)
        healed = read_manifest(str(tmp_path))
        assert [entry["bundle"] for entry in healed.retired] == retired
        assert [entry["name"] for entry in healed.retired] == ["doc"]
        report = store.compact()
        assert report["deleted"] == retired

    def test_corpus_stamp_moves_on_mutation(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.add("doc", XML_V1)
        stamp = corpus_stamp(str(tmp_path))
        assert stamp is not None
        time.sleep(0.01)
        store.replace("doc", XML_V2)
        assert corpus_stamp(str(tmp_path)) != stamp

    def test_legacy_corpus_bootstraps_at_generation_zero(self, tmp_path):
        # A pre-manifest corpus: bundles only, no manifest.json.
        save_document(XML_V1, str(tmp_path / "doc"))
        manifest = read_manifest(str(tmp_path))
        assert manifest.generation == 0
        assert sorted(manifest.documents) == ["doc"]
        # The first mutation starts the generation counter.
        store = DocumentStore(str(tmp_path))
        store.replace("doc", XML_V2)
        assert store.generation() == 1


class TestSyncStatRecords:
    """A sync reads only what changed: a source whose ``os.stat`` equals
    its trusted record is never opened, any other is read and hashed
    once, and a racily clean record is hashed again by the next sync.

    A source's ``ctime`` cannot be set back, so a record is made old by
    moving the clock the sync reads forward (``clock``), not by
    sleeping; ``os.utime`` sets the ``mtime`` a case needs.
    """

    SIX = {f"d{i}": f"<r><a{i}/></r>" for i in range(6)}

    @staticmethod
    def sources(base, files):
        src = base / "xml"
        src.mkdir(exist_ok=True)
        for name, body in files.items():
            (src / f"{name}.xml").write_text(body)
        return src

    @pytest.fixture
    def clock(self, monkeypatch):
        real = time.time_ns

        def at(ns=None):
            """Pin the clock at ``ns``; without it, run it 10 s ahead,
            past any lag bound."""
            now = (lambda: ns) if ns is not None else (lambda: real() + 10**10)
            monkeypatch.setattr(time, "time_ns", now)

        return at

    @pytest.fixture
    def reads(self, monkeypatch):
        """The source files opened and the ``sha256`` calls made since
        the last call."""
        import builtins
        import hashlib

        seen = {"open": [], "sha256": 0}
        real_open, real_sha256 = builtins.open, hashlib.sha256

        def counted_open(file, *args, **kwargs):
            if str(file).endswith(".xml"):
                seen["open"].append(os.path.basename(file))
            return real_open(file, *args, **kwargs)

        def counted_sha256(*args, **kwargs):
            seen["sha256"] += 1
            return real_sha256(*args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted_open)
        monkeypatch.setattr(hashlib, "sha256", counted_sha256)

        def take():
            taken = {"open": list(seen["open"]), "sha256": seen["sha256"]}
            seen.update(open=[], sha256=0)
            return taken

        return take

    @staticmethod
    def tick_past(probe, stamp):
        """Rewrite ``probe`` until the filesystem stamps it later than
        ``stamp``: at most one clock tick of syscalls."""
        while True:
            probe.write_bytes(b"x")
            if os.stat(probe).st_ctime_ns > stamp:
                return

    def test_one_changed_of_six_reads_only_it(self, tmp_path, clock, reads):
        src = self.sources(tmp_path, self.SIX)
        store = DocumentStore(str(tmp_path / "corpus"))
        clock()
        store.sync(str(src))
        (src / "d3.xml").write_text("<r><changed/></r>")
        reads()
        report = store.sync(str(src))
        assert report["replaced"] == ["d3"]
        assert report["unchanged"] == ["d0", "d1", "d2", "d4", "d5"]
        assert reads() == {"open": ["d3.xml"], "sha256": 1}
        assert Engine(store.open("d3")).select("//changed") == [1]
        report = store.sync(str(src))
        assert len(report["unchanged"]) == 6
        assert reads() == {"open": [], "sha256": 0}

    def test_racy_record_is_rehashed(self, tmp_path, clock, reads):
        src = self.sources(tmp_path, {"a": XML_V1})
        st = os.stat(src / "a.xml")
        # 1 ms after the stamps: inside any clock tick, so a same-size
        # write now could keep them.
        clock(max(st.st_mtime_ns, st.st_ctime_ns) + 1_000_000)
        store = DocumentStore(str(tmp_path / "corpus"))
        store.sync(str(src))
        assert store.manifest().documents["a"]["stat"] is None
        clock()
        reads()
        report = store.sync(str(src))
        assert report["unchanged"] == ["a"]
        assert reads() == {"open": ["a.xml"], "sha256": 1}

    def test_touched_source_is_rehashed_and_unchanged(
        self, tmp_path, clock, reads
    ):
        src = self.sources(tmp_path, {"a": XML_V1})
        store = DocumentStore(str(tmp_path / "corpus"))
        clock()
        store.sync(str(src))
        generation = store.generation()
        os.utime(src / "a.xml")
        reads()
        report = store.sync(str(src))
        assert report["unchanged"] == ["a"] and not report["replaced"]
        assert report["generation"] == {
            "before": generation, "after": generation
        }
        assert reads() == {"open": ["a.xml"], "sha256": 1}

    def test_same_size_rewrite_with_restored_mtime_is_replaced(
        self, tmp_path, clock
    ):
        src = self.sources(tmp_path, {"a": "<r><b/></r>"})
        path = src / "a.xml"
        store = DocumentStore(str(tmp_path / "corpus"))
        clock()
        store.sync(str(src))
        st = os.stat(path)
        self.tick_past(tmp_path / "probe", st.st_ctime_ns)
        path.write_text("<r><c/></r>")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        now = os.stat(path)
        assert (now.st_ino, now.st_size, now.st_mtime_ns) == (
            st.st_ino, st.st_size, st.st_mtime_ns
        )
        report = store.sync(str(src))
        assert report["replaced"] == ["a"]
        assert Engine(store.open("a")).select("//c") == [1]

    def test_source_replaced_by_rename_is_rehashed(
        self, tmp_path, clock, reads
    ):
        src = self.sources(tmp_path, {"a": "<r><b/></r>"})
        path = src / "a.xml"
        store = DocumentStore(str(tmp_path / "corpus"))
        clock()
        store.sync(str(src))
        st = os.stat(path)
        staged = src / "a.staged"
        staged.write_text("<r><c/></r>")
        os.utime(staged, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(staged, path)
        assert os.stat(path).st_ino != st.st_ino
        reads()
        report = store.sync(str(src))
        assert report["replaced"] == ["a"]
        assert reads() == {"open": ["a.xml"], "sha256": 1}

    def test_manifest_without_records(self, tmp_path, clock, reads):
        """A manifest written before stat records: every source is
        hashed until a mutating sync writes the records it learned; a
        sync that changes nothing writes nothing."""
        src = self.sources(tmp_path, self.SIX)
        corpus = str(tmp_path / "corpus")
        store = DocumentStore(corpus)
        clock()
        store.sync(str(src))
        old = load_manifest(corpus)
        for entry in old.documents.values():
            del entry["stat"]
        from repro.store import write_manifest

        write_manifest(corpus, old)
        path = os.path.join(corpus, "manifest.json")
        before = os.stat(path)
        reads()
        report = store.sync(str(src))
        assert len(report["unchanged"]) == 6
        assert reads() == {"open": sorted(f"{n}.xml" for n in self.SIX),
                           "sha256": 6}
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns
        )
        (src / "d0.xml").write_text("<r><changed/></r>")
        report = store.sync(str(src))
        assert report["replaced"] == ["d0"]
        assert reads()["sha256"] == 6
        stored = load_manifest(corpus).documents
        assert all(stored[name]["stat"] is not None for name in self.SIX)
        store.sync(str(src))
        assert reads() == {"open": [], "sha256": 0}

    def test_changed_sources_past_the_hold_are_read_again(
        self, tmp_path, clock, reads, monkeypatch
    ):
        import repro.store.manifest

        src = self.sources(tmp_path, {"a": XML_V1, "b": XML_V1})
        store = DocumentStore(str(tmp_path / "corpus"))
        clock()
        store.sync(str(src))
        (src / "a.xml").write_text(XML_V2)
        (src / "b.xml").write_text(XML_V2)
        monkeypatch.setattr(repro.store.manifest, "HELD_SOURCE_BYTES", 1)
        reads()
        report = store.sync(str(src))
        assert report["replaced"] == ["a", "b"]
        assert reads() == {"open": ["a.xml", "b.xml", "b.xml"], "sha256": 3}
        for name in ("a", "b"):
            assert Engine(store.open(name)).select("//a/b") == [2, 3]

    def test_source_record_rules(self):
        from types import SimpleNamespace

        from repro.store.manifest import source_record

        def st(mtime_ns, ctime_ns):
            return SimpleNamespace(
                st_dev=1, st_ino=2, st_size=3,
                st_mtime_ns=mtime_ns, st_ctime_ns=ctime_ns,
            )

        old = 10**18 + 123_456_789
        assert source_record(st(old, old), old + 10**9) == [
            1, 2, 3, old, old
        ]
        # Within a millisecond of the clock, either stamp is racy.
        assert source_record(st(old - 10**9, old), old + 1_000_000) is None
        assert source_record(st(old, old - 10**9), old + 1_000_000) is None
        # Whole-second stamps: a filesystem coarser than the lag bound.
        assert source_record(st(10**18, 10**18), 10**18 + 10**10) is None
        # A whole-second mtime (a restored archive) on a fine ctime is
        # trusted: the ctime shows the filesystem's grain.
        assert source_record(st(10**18, old), old + 10**9) is not None
