"""The daemon's two seams, driven without a socket: ``Admission`` (slots,
deadlines, epochs) and ``MountTable`` (disk -> mounted set)."""

import asyncio
import json
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.serve.admission import Admission
from repro.serve.http import HttpError
from repro.serve.mounts import MountTable
from repro.store import DocumentStore

XML_V1 = "<r><a><b/></a><a/><c><b/></c></r>"  # //a/b -> [2]
XML_V2 = "<r><a><b/><b/></a></r>"  # //a/b -> [2, 3]


class TestAdmission:
    @pytest.fixture()
    def executor(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            yield pool

    @pytest.fixture()
    def bumps(self):
        return []

    @pytest.fixture()
    def admission(self, executor, bumps):
        return Admission(2, executor, bumps.append)

    def test_request_past_the_limit_is_429_and_takes_no_slot(
        self, admission, bumps
    ):
        release = threading.Event()

        async def scenario():
            held = [
                asyncio.ensure_future(admission.run(release.wait, 5.0))
                for _ in range(admission.limit)
            ]
            await asyncio.sleep(0.05)
            assert admission.in_flight == admission.limit
            with pytest.raises(HttpError) as excinfo:
                await admission.run(lambda: "never", 5.0, inline=True)
            assert excinfo.value.status == 429
            assert excinfo.value.kind == "overloaded"
            assert excinfo.value.extra == {"limit": 2}
            assert admission.in_flight == admission.limit
            release.set()
            assert await asyncio.gather(*held) == [True, True]

        asyncio.run(scenario())
        assert admission.in_flight == 0 and bumps == ["rejected"]

    def test_both_kinds_of_overrun_answer_504_and_release_the_slot(
        self, admission, bumps
    ):
        release = threading.Event()

        async def scenario():
            for kwargs, fn in (
                ({"inline": True}, lambda: time.sleep(0.05)),
                ({}, lambda: release.wait(5)),
            ):
                with pytest.raises(HttpError) as excinfo:
                    await admission.run(fn, 0.01, **kwargs)
                assert excinfo.value.status == 504
                assert excinfo.value.kind == "timeout"
                assert excinfo.value.extra == {"timeout_s": 0.01}
                assert admission.in_flight == 0
            release.set()
            # In time, either way, is an answer.
            assert await admission.run(lambda: 7, 1.0, inline=True) == 7
            assert await admission.run(lambda: 8, 1.0) == 8

        asyncio.run(scenario())
        assert bumps == ["timeouts", "timeouts"]

    def test_a_failing_function_releases_its_slot(self, admission):
        async def scenario():
            for kwargs in ({"inline": True}, {}):
                with pytest.raises(ZeroDivisionError):
                    await admission.run(lambda: 1 // 0, 1.0, **kwargs)
            assert admission.in_flight == 0

        asyncio.run(scenario())

    def test_drained_waits_for_its_epoch_and_not_for_later_ones(self, admission):
        old, new = threading.Event(), threading.Event()

        async def scenario():
            before = asyncio.ensure_future(admission.run(old.wait, 5.0))
            await asyncio.sleep(0.02)
            ended = admission.advance()
            assert (ended, admission.epoch) == (0, 1)
            after = asyncio.ensure_future(admission.run(new.wait, 5.0))
            await asyncio.sleep(0.02)
            # The old epoch's request is still running: the deadline wins.
            assert await admission.drained(ended, time.monotonic() + 0.05) is False
            waiter = asyncio.ensure_future(
                admission.drained(ended, time.monotonic() + 5.0)
            )
            await asyncio.sleep(0.02)
            assert not waiter.done()
            old.set()
            assert await waiter is True  # with the later request in flight
            assert not after.done() and admission.in_flight == 1
            new.set()
            assert await asyncio.gather(before, after) == [True, True]
            assert await admission.drained(admission.epoch, 0.0) is True

        asyncio.run(scenario())


def query(table, name):
    return table.records[name].engine.select("//a/b")


class TestMountTable:
    @pytest.fixture()
    def tables(self):
        """``MountTable`` for a list of corpus directories, each closed
        when the test ends."""
        made = []

        def table(dirs):
            made.append(MountTable(dirs))
            return made[-1]

        yield table
        for mounted in made:
            mounted.close()

    def mounted(self, root, tables, **docs):
        store = DocumentStore(str(root))
        for name, xml in docs.items():
            store.save(name, xml)
        table = tables([str(root)])
        table.install(table.scan())
        return store, table

    def test_first_mount_is_a_scan_from_the_empty_state(self, tmp_path, tables):
        store = DocumentStore(str(tmp_path))
        store.save("a", XML_V1)
        store.save("b", XML_V2)
        table = tables([str(tmp_path)])
        found = table.scan()
        assert (found.added, found.replaced) == (["a", "b"], [])
        assert (found.removed, found.unchanged, found.skipped) == ([], [], {})
        assert found.generations == {table.store_dirs[0]: store.generation()}
        # scan() alone changed nothing anyone can see.
        assert table.records == {}
        assert table.stamps == {} and table.by_store() == {table.store_dirs[0]: []}
        assert table.install(found) == []
        assert list(table.records) == ["a", "b"]
        assert table.by_store() == {table.store_dirs[0]: ["a", "b"]}
        assert table.stamps == table.read_stamps()
        record = table.records["a"]
        assert (record.name, record.store) == ("a", table.store_dirs[0])
        assert record.generation == store.manifest().documents["a"]["generation"]
        assert (record.failures, record.quarantine) == (0, None)

    def test_add_replace_remove_in_one_scan(self, tmp_path, tables):
        store, table = self.mounted(
            tmp_path, tables, doc=XML_V1, stable=XML_V1, victim=XML_V2
        )
        boom = RuntimeError("boom")
        for name in ("doc", "stable"):
            for _ in range(2):
                table.records[name].failed(boom, threshold=2, uptime_s=1.5)
            assert table.records[name].quarantine == {
                "failures": 2,
                "error": "RuntimeError: boom",
                "uptime_s": 1.5,
            }
        stable = table.records["stable"]
        stable_engine = stable.engine
        handles = [table.records[name].document for name in ("doc", "victim")]
        store.replace("doc", XML_V2)
        store.add("fresh", XML_V2)
        store.remove("victim")
        found = table.scan()
        assert (found.added, found.replaced) == (["fresh"], ["doc"])
        assert (found.removed, found.unchanged) == (["victim"], ["stable"])
        assert sorted(found.opened) == ["doc", "fresh"]
        # Not visible until installed.
        assert query(table, "doc") == [2]
        assert list(table.records) == ["doc", "stable", "victim"]
        # The replaced and the removed handle come back, still open, and
        # the replaced name keeps its place.
        superseded = table.install(found)
        assert superseded == handles and not any(d.closed for d in superseded)
        assert list(table.records) == ["doc", "stable", "fresh"]
        assert query(table, "doc") == [2, 3]
        # New content, new record: the old evidence is gone with it...
        assert table.records["doc"].failures == 0
        assert table.records["doc"].quarantine is None
        # ...and the untouched document kept its record, streak and engine.
        assert table.records["stable"] is stable
        assert (stable.failures, stable.quarantine["failures"]) == (2, 2)
        assert table.records["stable"].engine is stable_engine
        for document in superseded:
            document.close()
        again = table.scan()
        assert again.unchanged == ["doc", "fresh", "stable"] and not again.opened
        assert table.install(again) == []

    def test_corrupt_bundle_is_skipped_then_retried_after_repair(
        self, tmp_path, tables
    ):
        store = DocumentStore(str(tmp_path))
        store.save("doc", XML_V1)
        store.save("hurt", XML_V2)
        faults.corrupt_bundle(str(tmp_path / "hurt"), "label_of", seed=3)
        table = tables([str(tmp_path)])
        found = table.scan()
        assert found.added == ["doc"] and list(found.skipped) == ["hurt"]
        assert found.skipped["hurt"]["store"] == table.store_dirs[0]
        assert found.duplicates == []
        table.install(found)
        assert list(table.records) == ["doc"] and "hurt" in table.skipped
        # Still corrupt: still skipped, and nothing else moves.
        found = table.scan()
        assert found.unchanged == ["doc"] and list(found.skipped) == ["hurt"]
        table.install(found)
        shutil.rmtree(str(tmp_path / "hurt"))
        store.save("hurt", XML_V2)
        found = table.scan()
        assert found.added == ["hurt"] and found.skipped == {}
        table.install(found)
        assert table.skipped == {} and query(table, "hurt") == [2, 3]

    def test_a_malformed_manifest_entry_skips_only_its_bundle(
        self, tmp_path, tables
    ):
        store = DocumentStore(str(tmp_path))
        store.save("good", XML_V1)
        store.save("bad", XML_V2)
        header_path = tmp_path / "bad" / "header.json"
        header = json.loads(header_path.read_text())
        del header["arrays"]["xml_end"]["shape"]
        header_path.write_text(json.dumps(header))
        table = tables([str(tmp_path)])
        found = table.scan()
        assert found.added == ["good"] and list(found.skipped) == ["bad"]
        assert "StoreCorruptionError" in found.skipped["bad"]["error"]
        assert "'xml_end'" in found.skipped["bad"]["error"]
        table.install(found)
        assert list(table.records) == ["good"]
        assert query(table, "good") == [2]

    def test_a_corrupt_replacement_keeps_the_mounted_generation(
        self, tmp_path, tables
    ):
        store, table = self.mounted(tmp_path, tables, doc=XML_V1)
        record = table.records["doc"]
        store.replace("doc", XML_V2)
        faults.corrupt_bundle(str(tmp_path / "doc"), "label_of", seed=3)
        found = table.scan()
        assert (found.replaced, found.removed, found.unchanged) == ([], [], [])
        assert list(found.skipped) == ["doc"]
        assert table.install(found) == []
        assert table.records["doc"] is record and query(table, "doc") == [2]

    def test_a_name_a_second_store_repeats_is_skipped(self, tmp_path, tables):
        first, second = tmp_path / "first", tmp_path / "second"
        DocumentStore(str(first)).save("doc", XML_V1)
        DocumentStore(str(second)).save("doc", XML_V2)
        DocumentStore(str(second)).save("other", XML_V2)
        table = tables([str(first), str(second)])
        found = table.scan()
        assert found.added == ["doc", "other"] and found.duplicates == ["doc"]
        assert found.skipped["doc"]["store"] == str(second)
        assert "duplicate bundle name" in found.skipped["doc"]["error"]
        assert str(first) in found.skipped["doc"]["error"]
        table.install(found)
        assert query(table, "doc") == [2]  # the first store's serves
        assert table.by_store() == {str(first): ["doc"], str(second): ["other"]}

    def test_a_scan_nobody_installs_gives_its_handles_back(self, tmp_path, tables):
        DocumentStore(str(tmp_path)).save("doc", XML_V1)
        found = tables([str(tmp_path)]).scan()
        (record,) = found.opened.values()
        assert not record.document.closed
        found.close()
        assert record.document.closed

    def test_health_transitions(self, tmp_path, tables):
        _store, table = self.mounted(tmp_path, tables, doc=XML_V1)
        record = table.records["doc"]
        boom = RuntimeError("boom")
        record.failed(boom, threshold=0, uptime_s=0.0)
        record.failed(boom, threshold=0, uptime_s=0.0)
        assert (record.failures, record.quarantine) == (2, None)  # 0: never
        record.answered()
        assert record.failures == 0
        record.failed(boom, threshold=1, uptime_s=0.0)
        assert record.quarantine["failures"] == 1
        assert record.lift() is True and record.lift() is False
        assert (record.failures, record.quarantine) == (0, None)
