"""The mount lifecycle against a model, under random interleavings.

A hypothesis state machine mutates a corpus (add / replace / remove /
sync / compact, and truncating an array of a freshly published bundle),
reloads a live daemon, and queries it -- all through the public surface
(:class:`~repro.store.DocumentStore`, :class:`~repro.serve.DaemonThread`
+ :class:`~repro.serve.ServeClient`, :func:`~repro.store.live_readers`).

Each published document holds one ``<g/>`` per *generation*, so the
count of ``//g`` says which publication answered.  The model keeps, per
name, what is on disk (generation, bundle identity, corrupt or not) and
what the daemon should serve since the last reload (generation and the
identity of the bundle it maps), plus the names that reload skipped.

After every rule:

- every served name answers its model generation, every other name 404;
- ``/stats`` ``health.skipped`` and ``documents`` are the model's;
- every bundle directory in the corpus, published or retired, has
  exactly one in-process reader if the daemon should map it and none
  otherwise -- so once a reload has drained, no retired generation is
  still mapped.

``compact`` must keep every retired bundle the daemon maps and delete
every other one.  Dropping the superseded-handle ``close()`` in
``QueryDaemon.reload`` leaves a retired bundle with a reader after its
reload and fails the reader check on the first replace-then-reload.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import faults
from repro.serve import DaemonThread, QueryDaemon, ServeClient, ServeError
from repro.store import DocumentStore, bundle_identity, live_readers

NAMES = ("a", "b", "c")
QUERY = "//g"


def xml(generation: int) -> str:
    return "<r>" + "<g/>" * generation + "</r>"


@dataclass(frozen=True)
class OnDisk:
    generation: int
    identity: Tuple[int, int]
    corrupt: bool = False
    #: The content a ``sync`` published (``None``: an API publish, whose
    #: manifest fingerprint no source file matches).
    synced: Optional[int] = None


class MountMachine(RuleBasedStateMachine):
    @initialize()
    def start(self) -> None:
        self.root = tempfile.mkdtemp(prefix="mount-machine-")
        self.corpus = os.path.join(self.root, "corpus")
        self.source = os.path.join(self.root, "source")
        self.store = DocumentStore(self.corpus)
        self.next_generation = 1
        self.disk: Dict[str, OnDisk] = {}
        self.publish("a", self.store.add)
        # Served since the last reload: name -> (generation, identity).
        self.served = {"a": (self.disk["a"].generation, self.disk["a"].identity)}
        self.skipped: Set[str] = set()
        self.handle = DaemonThread(QueryDaemon(self.corpus, workers=2)).start()
        self.client = ServeClient(port=self.handle.port, retries=0)

    def teardown(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
            self.handle.stop()
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)

    # -- helpers -------------------------------------------------------------

    def fresh(self) -> int:
        self.next_generation += 1
        return self.next_generation

    def publish(self, name: str, how) -> None:
        generation = self.fresh()
        how(name, xml(generation))
        identity = bundle_identity(self.store.path_for(name))
        self.disk[name] = OnDisk(generation, identity)

    def directories(self) -> Dict[Tuple[int, int], str]:
        """Every bundle directory in the corpus, retired ones included."""
        found = {}
        for entry in os.listdir(self.corpus):
            path = os.path.join(self.corpus, entry)
            identity = bundle_identity(path)
            if identity is not None:
                found[identity] = path
        return found

    def mapped(self) -> Set[Tuple[int, int]]:
        return {identity for _generation, identity in self.served.values()}

    # -- corpus mutations ----------------------------------------------------

    @precondition(lambda self: len(self.disk) < len(NAMES))
    @rule(data=st.data())
    def add(self, data) -> None:
        absent = [name for name in NAMES if name not in self.disk]
        self.publish(data.draw(st.sampled_from(absent)), self.store.add)

    @precondition(lambda self: self.disk)
    @rule(data=st.data())
    def replace(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(self.disk)))
        self.publish(name, self.store.replace)

    @precondition(lambda self: self.disk)
    @rule(data=st.data())
    def remove(self, data) -> None:
        name = data.draw(st.sampled_from(sorted(self.disk)))
        self.store.remove(name)
        del self.disk[name]

    @rule(
        plan=st.dictionaries(
            st.sampled_from(NAMES), st.sampled_from(("keep", "bump"))
        )
    )
    def sync(self, plan) -> None:
        """Mirror a source directory: ``keep`` writes the content on disk
        again, ``bump`` a new generation; names left out are removed."""
        shutil.rmtree(self.source, ignore_errors=True)
        os.makedirs(self.source)
        wanted = {}
        for name, how in plan.items():
            current = self.disk.get(name)
            keep = how == "keep" and current is not None
            wanted[name] = current.generation if keep else self.fresh()
            with open(os.path.join(self.source, f"{name}.xml"), "w") as out:
                out.write(xml(wanted[name]))
        report = self.store.sync(self.source)
        unchanged = sorted(
            name
            for name, generation in wanted.items()
            if name in self.disk and self.disk[name].synced == generation
        )
        assert sorted(report["unchanged"]) == unchanged
        assert sorted(report["removed"]) == sorted(set(self.disk) - set(wanted))
        for name in set(self.disk) - set(wanted):
            del self.disk[name]
        for name, generation in wanted.items():
            if name not in unchanged:
                identity = bundle_identity(self.store.path_for(name))
                self.disk[name] = OnDisk(generation, identity, synced=generation)

    @precondition(
        lambda self: any(
            not entry.corrupt and entry.identity not in self.mapped()
            for entry in self.disk.values()
        )
    )
    @rule(data=st.data(), seed=st.integers(0, 2**16))
    def corrupt(self, data, seed) -> None:
        """Truncate an array of a bundle the daemon does not map (a
        mapped file cut short would fault the reader, not be skipped)."""
        mapped = self.mapped()
        name = data.draw(
            st.sampled_from(
                sorted(
                    name
                    for name, entry in self.disk.items()
                    if not entry.corrupt and entry.identity not in mapped
                )
            )
        )
        faults.corrupt_bundle(
            self.store.path_for(name), mode="truncate", seed=seed
        )
        entry = self.disk[name]
        self.disk[name] = OnDisk(
            entry.generation, entry.identity, corrupt=True, synced=entry.synced
        )

    @rule()
    def compact(self) -> None:
        mapped = self.mapped()
        before = self.directories()
        report = self.store.compact()
        after = self.directories()
        published = {entry.identity for entry in self.disk.values()}
        for identity, path in before.items():
            if identity in published or identity in mapped:
                assert identity in after, f"compact deleted a live {path}"
            else:
                assert identity not in after, f"compact kept dead {path}"
        assert len(report["kept"]) == len(mapped - published)

    # -- the daemon ----------------------------------------------------------

    @rule()
    def reload(self) -> None:
        served = {}
        for name, entry in self.disk.items():
            if not entry.corrupt:
                served[name] = (entry.generation, entry.identity)
            elif name in self.served:  # a corrupt replacement: keep the old
                served[name] = self.served[name]
        added = sorted(set(served) - set(self.served))
        replaced = sorted(
            name
            for name in set(served) & set(self.served)
            if served[name] != self.served[name]
        )
        removed = sorted(set(self.served) - set(self.disk))
        report = self.client.reload()
        assert report["drained"] is True
        assert (report["added"], report["replaced"]) == (added, replaced)
        assert report["removed"] == removed
        assert report["reloaded"] is bool(added or replaced or removed)
        self.served = served
        self.skipped = {name for name, e in self.disk.items() if e.corrupt}
        assert sorted(report["skipped"]) == sorted(self.skipped)

    @precondition(lambda self: self.served)
    @rule(data=st.data(), count=st.booleans())
    def query(self, data, count) -> None:
        """One batch on a served document: each query answers from the
        same generation, as ids or as a count."""
        name = data.draw(st.sampled_from(sorted(self.served)))
        generation = self.served[name][0]
        reply = self.client.batch(
            [QUERY, "/r/g", "/r"], document=name, count=count
        )
        counts = [result["count"] for result in reply["results"]]
        assert counts == [generation, generation, 1]
        if not count:
            ids = [result["ids"] for result in reply["results"]]
            assert ids[0] == ids[1] == list(range(1, generation + 1))

    # -- after every rule ----------------------------------------------------

    @invariant()
    def answers_match_the_model(self) -> None:
        for name in NAMES:
            if name in self.served:
                reply = self.client.query(QUERY, document=name, count=True)
                assert reply["count"] == self.served[name][0], name
            else:
                try:
                    self.client.query(QUERY, document=name, count=True)
                except ServeError as exc:
                    assert (exc.status, exc.kind) == (404, "unknown_document")
                else:
                    raise AssertionError(f"{name!r} answered; not mounted")

    @invariant()
    def stats_match_the_model(self) -> None:
        stats = self.client.stats()
        assert sorted(stats["health"]["skipped"]) == sorted(self.skipped)
        assert sorted(stats["documents"]) == sorted(self.served)
        assert stats["counters"]["internal_errors"] == 0

    @invariant()
    def readers_are_the_mounted_bundles(self) -> None:
        mapped = self.mapped()
        bundles = self.directories()
        assert mapped <= set(bundles), "a mapped bundle is gone from disk"
        for identity, path in bundles.items():
            assert live_readers(path) == (identity in mapped), path


TestMountLifecycle = MountMachine.TestCase
TestMountLifecycle.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
