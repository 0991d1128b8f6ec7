"""Persistent document store: round-trip equivalence, format, plumbing."""

import json
import os
import pickle
import random

import numpy as np
import pytest

from repro.engine import registry
from repro.engine.api import Engine
from repro.engine.workspace import Workspace
from repro.index.succinct import SuccinctTree
from repro.store import (
    DocumentStore,
    StoreError,
    StoreFormatError,
    open_document,
    read_header,
    save_document,
)
from repro.tree.binary import BinaryTree
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES

from strategies import random_core_query, random_document

DEGENERATE_DOCS = [
    "<r/>",
    "<r><a/></r>",
    "<a>" + "<a>" * 40 + "<b/>" + "</a>" * 40 + "</a>",
    "<r>" + "<x/>" * 200 + "</r>",
    "<r>" + "<a><b><c/></b></a>" * 30 + "</r>",
]

QUERY_MIX = [
    "//a",
    "//a//b",
    "/r/a",
    "//a[b]",
    "//*[a or b]",
    "//a[not(.//c)]//b",
    "/r/node()/c",
]


def _roundtrip(tmp_path, document, name="doc", **kwargs):
    bundle = os.path.join(str(tmp_path), name)
    save_document(document, bundle, **kwargs)
    return open_document(bundle)


class TestRoundTripEquivalence:
    def test_every_strategy_identical_on_reopened_docs(self, tmp_path):
        """Results and counters match fresh-parse vs mmap-reopen, for every
        registered strategy on plain and degenerate documents."""
        for d, xml in enumerate(DEGENERATE_DOCS):
            stored = _roundtrip(tmp_path, xml, name=f"doc{d}")
            for strategy in registry.strategy_names():
                fresh = Engine(xml, strategy=strategy)
                reopened = Engine(stored, strategy=strategy)
                for query in QUERY_MIX:
                    a = fresh.execute(query)
                    b = reopened.execute(query)
                    assert list(a.ids) == list(b.ids), (strategy, xml, query)
                    assert a.accepted == b.accepted
                    assert a.stats.snapshot() == b.stats.snapshot(), (
                        strategy,
                        xml,
                        query,
                    )

    def test_encoded_documents_roundtrip(self, tmp_path):
        rng = random.Random(99)
        for d in range(10):
            xml = random_document(rng, attributes=True, text=True)
            stored = _roundtrip(
                tmp_path,
                xml,
                name=f"enc{d}",
                encode_attributes=True,
                encode_text=True,
            )
            fresh = Engine(xml, encode_attributes=True, encode_text=True)
            reopened = Engine(stored)
            queries = [
                random_core_query(rng, attributes=True, text=True)
                for _ in range(8)
            ] + ["//a[@id]", "//*[text()]"]
            for strategy in registry.strategy_names():
                fresh.set_strategy(strategy)
                reopened.set_strategy(strategy)
                for query in queries:
                    assert fresh.select(query) == reopened.select(query), (
                        strategy,
                        xml,
                        query,
                    )

    def test_fuzz_corpus_all_strategies(self, tmp_path):
        rng = random.Random(20260730)
        for d in range(15):
            xml = random_document(rng)
            stored = _roundtrip(tmp_path, xml, name=f"fuzz{d}")
            queries = [random_core_query(rng) for _ in range(6)]
            for strategy in registry.strategy_names():
                fresh = Engine(xml, strategy=strategy)
                reopened = Engine(stored, strategy=strategy)
                for query in queries:
                    assert fresh.select(query) == reopened.select(query), (
                        strategy,
                        xml,
                        query,
                    )

    def test_reopened_ids_are_plain_ints(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a><b/></a><b/></r>")
        ids = Engine(stored).select("//b")
        assert ids == [2, 3]
        assert all(type(v) is int for v in ids)
        json.dumps(ids)  # would raise on np.int64 leakage

    def test_xmark_reopen_identical(self, tmp_path):
        xml = XMarkGenerator(scale=0.05, seed=11, text_content=True).xml()
        stored = _roundtrip(tmp_path, xml, name="xmark")
        fresh = Engine(xml)
        reopened = Engine(stored)
        for query in (
            "//keyword",
            "/site/regions//item[mailbox]",
            "//emph",
            *QUERIES.values(),
        ):
            assert fresh.select(query) == reopened.select(query), query


class TestStoredDocument:
    def test_mmap_and_materialized_opens_agree(self, tmp_path):
        bundle = os.path.join(str(tmp_path), "doc")
        save_document("<r><a><b/></a></r>", bundle)
        mapped = open_document(bundle, mmap=True)
        loaded = open_document(bundle, mmap=False)
        assert Engine(mapped).select("//b") == Engine(loaded).select("//b")
        assert isinstance(mapped.index.xml_end_array(), np.ndarray)

    def test_pickles_as_path(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a/><a/></r>")
        blob = pickle.dumps(stored)
        assert len(blob) < 500  # a path, not an array payload
        clone = pickle.loads(blob)
        assert Engine(clone).select("//a") == [1, 2]

    def test_succinct_rehydrates_from_state(self, tmp_path):
        xml = "<r><a><b/><c/></a><d><e/></d></r>"
        stored = _roundtrip(tmp_path, xml)
        rebuilt = SuccinctTree.from_binary(BinaryTree.from_xml(xml))
        mapped = stored.succinct()
        assert mapped.n == rebuilt.n
        for v in range(mapped.n):
            assert mapped.first_child(v) == rebuilt.first_child(v)
            assert mapped.next_sibling(v) == rebuilt.next_sibling(v)
            assert mapped.parent(v) == rebuilt.parent(v)

    def test_header_summary(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a x='1'>t</a></r>")
        header = read_header(stored.path)
        assert header["n"] == stored.n == 2
        assert header["labels"] == ["r", "a"]
        assert header["encoded_attributes"] is False


class TestFormatValidation:
    @pytest.mark.parametrize("version", [1, 999])
    def test_version_mismatch_rejected(self, tmp_path, version):
        stored = _roundtrip(tmp_path, "<r/>")
        path = os.path.join(stored.path, "header.json")
        header = json.load(open(path))
        header["version"] = version
        json.dump(header, open(path, "w"))
        with pytest.raises(StoreFormatError, match="version.*rebuild"):
            open_document(stored.path)

    def test_missing_array_rejected(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r/>")
        os.remove(os.path.join(stored.path, "xml_end.npy"))
        with pytest.raises(StoreFormatError, match="xml_end"):
            open_document(stored.path)

    def test_shape_mismatch_rejected(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a/></r>")
        np.save(
            os.path.join(stored.path, "label_of.npy"),
            np.zeros(7, dtype=np.int64),
        )
        with pytest.raises(StoreFormatError, match="label_of"):
            open_document(stored.path)

    def test_not_a_bundle(self, tmp_path):
        with pytest.raises(StoreFormatError, match="not a document bundle"):
            open_document(str(tmp_path))

    def test_unstorable_document_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_document(42, os.path.join(str(tmp_path), "bad"))


class TestDocumentStore:
    def test_save_open_names(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.save("one", "<r><a/></r>")
        store.save("two", "<r><b/></r>")
        assert store.names() == ["one", "two"]
        assert "one" in store and "zzz" not in store
        assert len(store) == 2
        assert Engine(store.open("two")).select("//b") == [1]
        assert set(store.headers()) == {"one", "two"}

    def test_open_missing_name(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        with pytest.raises(StoreError, match="no document"):
            store.open("nope")

    def test_invalid_names_rejected(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        for name in ("", "..", f"a{os.sep}b"):
            with pytest.raises(ValueError):
                store.path_for(name)


class TestWorkspaceStore:
    def test_save_then_open_store_roundtrip(self, tmp_path):
        ws = Workspace()
        ws.add("d1", "<r><a><b/></a></r>")
        ws.add("d2", "<r><b/><a><b/><b/></a></r>")
        saved = ws.save(str(tmp_path))
        assert set(saved) == {"d1", "d2"}

        reopened = Workspace()
        assert reopened.open_store(str(tmp_path)) == ["d1", "d2"]
        assert reopened.select_all("//a/b") == ws.select_all("//a/b")

    def test_open_store_subset_and_empty(self, tmp_path):
        ws = Workspace()
        ws.add("only", "<r><a/></r>")
        ws.save(str(tmp_path))
        picky = Workspace()
        assert picky.open_store(str(tmp_path), names=["only"]) == ["only"]
        with pytest.raises(ValueError, match="no document bundles"):
            Workspace().open_store(str(tmp_path / "empty"))

    @pytest.mark.parametrize("executor", ["thread", "pool"])
    def test_parallel_service_on_store_backed_docs(self, tmp_path, executor):
        """Pools over reopened documents stay byte-identical; a pool task
        ships the bundle path, not arrays."""
        xml = XMarkGenerator(scale=0.05, seed=13).xml()
        ws = Workspace()
        ws.add("xmark", xml)
        ws.save(str(tmp_path))
        ws.close()

        served = Workspace()
        served.open_store(str(tmp_path))
        try:
            serial = served.select_many(QUERY_MIX_XMARK, document="xmark")
            parallel = served.select_many(
                QUERY_MIX_XMARK, document="xmark", jobs=2, executor=executor
            )
            assert parallel == serial
            service = served.service(jobs=2, executor=executor)
            descriptor = service._pool_descriptor("xmark")
            assert descriptor[0] == "store"
            assert len(pickle.dumps(descriptor)) < 2000
        finally:
            served.close()


QUERY_MIX_XMARK = [
    "//keyword",
    "/site/regions//item",
    "//person[address]",
    "//description//emph",
]


class TestReviewRegressions:
    def test_save_rejects_flags_on_compiled_input(self, tmp_path):
        from repro.index.jumping import TreeIndex

        tree = BinaryTree.from_xml("<r><a/></r>")
        for compiled in (tree, TreeIndex(tree)):
            with pytest.raises(ValueError, match="already encoded"):
                save_document(
                    compiled,
                    os.path.join(str(tmp_path), "x"),
                    encode_text=True,
                )

    def test_workspace_save_validates_names_before_writing(self, tmp_path):
        ws = Workspace()
        ws.add("ok", "<r/>")
        ws.add(f"evil{os.sep}name", "<r/>")
        target = tmp_path / "corpus"
        with pytest.raises(ValueError, match="invalid document name"):
            ws.save(str(target))
        assert not target.exists()  # nothing written for any document

    def test_mmap_false_open_is_self_contained(self, tmp_path):
        import shutil

        bundle = os.path.join(str(tmp_path), "doc")
        save_document("<r><a/><a/></r>", bundle)
        loaded = open_document(bundle, mmap=False)
        assert getattr(loaded.index, "store_path", None) is None
        ws = Workspace()
        ws.add("doc", loaded)
        service = ws.service(jobs=2, executor="pool")
        assert service._pool_descriptor("doc") == ("static", 0)
        shutil.rmtree(bundle)  # storage goes away; in-memory copy serves on
        try:
            assert ws.select_many(["//a"], document="doc", jobs=2) == {
                "//a": [1, 2]
            }
        finally:
            ws.close()

    def test_pickle_preserves_mmap_flag(self, tmp_path):
        bundle = os.path.join(str(tmp_path), "doc")
        save_document("<r><a/></r>", bundle)
        loaded = open_document(bundle, mmap=False)
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone.header["_mmap"] is False
        assert getattr(clone.index, "store_path", None) is None

    def test_event_source_save_reuses_builder_parens(self, tmp_path):
        generator = XMarkGenerator(scale=0.02, seed=5)
        via_events = os.path.join(str(tmp_path), "ev")
        via_tree = os.path.join(str(tmp_path), "tr")
        save_document(generator, via_events)
        save_document(generator.tree(), via_tree)
        for name in ("bp_packed", "label_of", "xml_end"):
            a = np.load(os.path.join(via_events, f"{name}.npy"))
            b = np.load(os.path.join(via_tree, f"{name}.npy"))
            assert np.array_equal(a, b), name
        stored = open_document(via_events)
        assert Engine(stored).select("//edge") == Engine(
            generator.tree()
        ).select("//edge")

    def test_rebuild_crash_preserves_old_bundle(self, tmp_path, monkeypatch):
        import numpy as np

        bundle = os.path.join(str(tmp_path), "doc")
        save_document("<r><a/></r>", bundle)

        # A crash while rewriting arrays hits only the hidden staging
        # directory (atomic publish): the previous bundle stays intact,
        # readable, and verifiable, and no staging debris survives.
        original_save = np.save
        calls = []

        def crashing_save(path, arr):
            calls.append(path)
            if len(calls) == 3:
                raise RuntimeError("simulated crash mid-rebuild")
            return original_save(path, arr)

        monkeypatch.setattr(np, "save", crashing_save)
        with pytest.raises(RuntimeError):
            save_document("<r><b/><b/></r>", bundle)
        monkeypatch.undo()
        assert Engine(open_document(bundle)).select("//a") == [1]
        from repro.store import verify_document

        assert verify_document(bundle, deep=True)["ok"] is True
        assert os.listdir(str(tmp_path)) == ["doc"]

    def test_path_for_rejects_any_separator_style(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        for name in ("a/b", "a\\b", "x/../../evil", ".", ".."):
            with pytest.raises(ValueError, match="invalid document name"):
                store.path_for(name)

    def test_engine_accepts_event_sources(self):
        generator = XMarkGenerator(scale=0.02, seed=5)
        assert Engine(generator).select("//edge") == Engine(
            generator.tree()
        ).select("//edge")

    def test_resave_of_reopened_document(self, tmp_path):
        first = os.path.join(str(tmp_path), "first")
        second = os.path.join(str(tmp_path), "second")
        save_document("<r><a><b/></a></r>", first)
        save_document(open_document(first), second)
        assert Engine(open_document(second)).select("//b") == [2]


class TestStoredDocumentClose:
    def test_close_releases_mapped_arrays(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a><b/></a></r>")
        mmaps = [
            arr._mmap
            for arr in stored._mapped
            if getattr(arr, "_mmap", None) is not None
        ]
        assert mmaps  # the bundle really was mmapped
        stored.close()
        assert stored.closed
        assert all(mm.closed for mm in mmaps)

    def test_close_is_idempotent(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a/></r>")
        stored.close()
        stored.close()
        assert stored.closed

    def test_closed_document_refuses_queries(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a/></r>")
        stored.close()
        with pytest.raises(StoreError, match="closed"):
            stored.succinct()

    def test_context_manager_closes(self, tmp_path):
        with _roundtrip(tmp_path, "<r><a/></r>") as stored:
            assert Engine(stored).select("//a") == [1]
        assert stored.closed

    def test_materialized_open_close_is_a_noop(self, tmp_path):
        bundle = os.path.join(str(tmp_path), "doc")
        save_document("<r><a/></r>", bundle)
        stored = open_document(bundle, mmap=False)
        stored.close()  # nothing mapped, still fine
        assert stored.closed


class TestWorkspaceClose:
    def test_close_releases_store_handles(self, tmp_path):
        ws = Workspace()
        ws.add("doc", "<r><a><b/></a></r>")
        ws.save(str(tmp_path))
        ws.close()

        ws2 = Workspace()
        ws2.open_store(str(tmp_path))
        stored = ws2._stored["doc"]
        mmaps = [
            arr._mmap
            for arr in stored._mapped
            if getattr(arr, "_mmap", None) is not None
        ]
        assert ws2.select("//b", document="doc") == [2]
        ws2.close()
        assert stored.closed
        assert all(mm.closed for mm in mmaps)
        assert ws2.documents() == []

    def test_context_manager(self, tmp_path):
        ws = Workspace()
        ws.add("doc", "<r><a/></r>")
        ws.save(str(tmp_path))
        ws.close()
        with Workspace() as ws2:
            ws2.open_store(str(tmp_path))
            stored = ws2._stored["doc"]
            assert ws2.select("//a", document="doc") == [1]
        assert stored.closed

    def test_remove_closes_stored_document(self, tmp_path):
        ws = Workspace()
        ws.add("doc", "<r><a/></r>")
        ws.save(str(tmp_path))
        ws.close()
        ws2 = Workspace()
        ws2.open_store(str(tmp_path))
        stored = ws2._stored["doc"]
        ws2.remove("doc")
        assert stored.closed
        assert "doc" not in ws2._stored
        ws2.close()

    def test_added_documents_are_caller_owned(self, tmp_path):
        stored = _roundtrip(tmp_path, "<r><a/></r>")
        ws = Workspace()
        ws.add("doc", stored)
        ws.close()
        # add()-ed documents are the caller's to close.
        assert not stored.closed
        assert Engine(stored).select("//a") == [1]
        stored.close()
