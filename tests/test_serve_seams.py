"""The daemon's two seams, driven without a socket: ``Admission`` (slots,
deadlines, epochs) and ``MountTable`` (disk -> mounted set)."""

import asyncio
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.engine.workspace import Workspace
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


def query(workspace, name):
    return workspace.select("//a/b", name)


class TestMountTable:
    @pytest.fixture()
    def workspace(self):
        with Workspace(strategy="auto") as ws:
            yield ws

    def mounted(self, root, workspace, **docs):
        store = DocumentStore(str(root))
        for name, xml in docs.items():
            store.save(name, xml)
        table = MountTable([str(root)], workspace)
        table.install(table.scan())
        return store, table

    def test_first_mount_is_a_scan_from_the_empty_state(self, tmp_path, workspace):
        store = DocumentStore(str(tmp_path))
        store.save("a", XML_V1)
        store.save("b", XML_V2)
        table = MountTable([str(tmp_path)], workspace)
        found = table.scan()
        assert (found.added, found.replaced) == (["a", "b"], [])
        assert (found.removed, found.unchanged, found.skipped) == ([], [], {})
        assert found.generations == {table.store_dirs[0]: store.generation()}
        # scan() alone changed nothing anyone can see.
        assert workspace.documents() == [] and table.records == {}
        assert table.stamps == {} and table.by_store() == {table.store_dirs[0]: []}
        assert table.install(found) == []
        assert workspace.documents() == ["a", "b"]
        assert table.by_store() == {table.store_dirs[0]: ["a", "b"]}
        assert table.stamps == table.read_stamps()
        record = table.records["a"]
        assert (record.name, record.store) == ("a", table.store_dirs[0])
        assert record.generation == store.manifest().documents["a"]["generation"]
        assert (record.failures, record.quarantine) == (0, None)

    def test_add_replace_remove_in_one_scan(self, tmp_path, workspace):
        store, table = self.mounted(
            tmp_path, workspace, doc=XML_V1, stable=XML_V1, victim=XML_V2
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
        stable, stable_engine = table.records["stable"], workspace.engine("stable")
        store.replace("doc", XML_V2)
        store.add("fresh", XML_V2)
        store.remove("victim")
        found = table.scan()
        assert (found.added, found.replaced) == (["fresh"], ["doc"])
        assert (found.removed, found.unchanged) == (["victim"], ["stable"])
        assert sorted(found.opened) == ["doc", "fresh"]
        # Not visible until installed.
        assert query(workspace, "doc") == [2]
        assert workspace.documents() == ["doc", "stable", "victim"]
        superseded = table.install(found)
        assert len(superseded) == 2 and not any(d.closed for d in superseded)
        assert workspace.documents() == ["doc", "stable", "fresh"]
        assert query(workspace, "doc") == [2, 3]
        assert sorted(table.records) == ["doc", "fresh", "stable"]
        # New content, new record: the old evidence is gone with it...
        assert table.records["doc"].failures == 0
        assert table.records["doc"].quarantine is None
        # ...and the untouched document kept its record, streak and engine.
        assert table.records["stable"] is stable
        assert (stable.failures, stable.quarantine["failures"]) == (2, 2)
        assert workspace.engine("stable") is stable_engine
        for document in superseded:
            document.close()
        again = table.scan()
        assert again.unchanged == ["doc", "fresh", "stable"] and not again.opened
        assert table.install(again) == []

    def test_corrupt_bundle_is_skipped_then_retried_after_repair(
        self, tmp_path, workspace
    ):
        store = DocumentStore(str(tmp_path))
        store.save("doc", XML_V1)
        store.save("hurt", XML_V2)
        faults.corrupt_bundle(str(tmp_path / "hurt"), "label_of", seed=3)
        table = MountTable([str(tmp_path)], workspace)
        found = table.scan()
        assert found.added == ["doc"] and list(found.skipped) == ["hurt"]
        assert found.skipped["hurt"]["store"] == table.store_dirs[0]
        assert found.duplicates == []
        table.install(found)
        assert workspace.documents() == ["doc"] and "hurt" in table.skipped
        # Still corrupt: still skipped, and nothing else moves.
        found = table.scan()
        assert found.unchanged == ["doc"] and list(found.skipped) == ["hurt"]
        table.install(found)
        shutil.rmtree(str(tmp_path / "hurt"))
        store.save("hurt", XML_V2)
        found = table.scan()
        assert found.added == ["hurt"] and found.skipped == {}
        table.install(found)
        assert table.skipped == {} and query(workspace, "hurt") == [2, 3]

    def test_a_corrupt_replacement_keeps_the_mounted_generation(
        self, tmp_path, workspace
    ):
        store, table = self.mounted(tmp_path, workspace, doc=XML_V1)
        record = table.records["doc"]
        store.replace("doc", XML_V2)
        faults.corrupt_bundle(str(tmp_path / "doc"), "label_of", seed=3)
        found = table.scan()
        assert (found.replaced, found.removed, found.unchanged) == ([], [], [])
        assert list(found.skipped) == ["doc"]
        assert table.install(found) == []
        assert table.records["doc"] is record and query(workspace, "doc") == [2]

    def test_a_name_a_second_store_repeats_is_skipped(self, tmp_path, workspace):
        first, second = tmp_path / "first", tmp_path / "second"
        DocumentStore(str(first)).save("doc", XML_V1)
        DocumentStore(str(second)).save("doc", XML_V2)
        DocumentStore(str(second)).save("other", XML_V2)
        table = MountTable([str(first), str(second)], workspace)
        found = table.scan()
        assert found.added == ["doc", "other"] and found.duplicates == ["doc"]
        assert found.skipped["doc"]["store"] == str(second)
        assert "duplicate bundle name" in found.skipped["doc"]["error"]
        assert str(first) in found.skipped["doc"]["error"]
        table.install(found)
        assert query(workspace, "doc") == [2]  # the first store's serves
        assert table.by_store() == {str(first): ["doc"], str(second): ["other"]}

    def test_a_scan_nobody_installs_gives_its_handles_back(self, tmp_path, workspace):
        DocumentStore(str(tmp_path)).save("doc", XML_V1)
        found = MountTable([str(tmp_path)], workspace).scan()
        (record, document), = found.opened.values()
        assert not document.closed
        found.close()
        assert document.closed

    def test_health_transitions(self, tmp_path, workspace):
        _store, table = self.mounted(tmp_path, workspace, doc=XML_V1)
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
