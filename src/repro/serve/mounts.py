"""Disk -> mounted set: the one path a bundle takes into the daemon.

Mutable corpora (``DocumentStore.add/replace/remove``, ``repro store
sync``) publish new bundle generations while a daemon serves the old
one.  Start-up and every hot reload bring the mounted set up to date
the same way, in two steps:

- :meth:`MountTable.scan` -- blocking, runs off the event loop, mutates
  nothing: diff every corpus directory against what is mounted (a
  document is republished exactly when the bundle identity on disk
  differs from the one mounted), open the added and changed bundles
  through the zero-copy mmap path, build each one's engine, and note
  what could not be used.  A corrupt bundle (truncated array, mangled
  header -- anything :func:`repro.store.open_document` rejects) is
  *skipped*: the rest of the corpus serves, and every later scan
  retries it against the current disk state.  So is a name a second
  corpus repeats.
- :meth:`MountTable.install` -- synchronous, so no request ever
  observes a half-swapped state: it only swaps records (a replaced name
  keeps its place) and hands the superseded and removed
  :class:`~repro.store.StoredDocument` handles back *unclosed* -- the
  caller closes them once their readers have drained.

Everything the daemon knows per document is its :class:`Mount`: the
open handle, the engine over it, and its health.  So a republished
document starts from a clean record: its failure streak and quarantine
are gone with the content they were evidence about, and its plans with
the engine.  Untouched documents keep all of it.  Every engine shares
the table's one compiled-query cache.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.api import Engine
from repro.engine.plan import CompiledQueryCache
from repro.store import (
    DocumentStore,
    StoreError,
    bundle_identity,
    corpus_stamp,
    read_manifest,
)
from repro.store.store import StoredDocument


@dataclass
class Mount:
    """One mounted document: where it came from, what answers for it,
    how it is doing.

    The health half is a small state machine -- ``threshold``
    *consecutive* ultimately-failed evaluations quarantine the document,
    any answered request breaks the streak, an operator may lift the
    quarantine -- whose transitions arrive from worker threads and the
    event loop alike, so each takes :attr:`lock`.
    """

    name: str
    store: str
    #: ``(st_dev, st_ino)`` of the bundle header when it was opened.
    identity: Optional[Tuple[int, int]]
    generation: Optional[int]
    fingerprint: Optional[str]
    #: The open bundle and the engine over it, for this record's life.
    document: StoredDocument = field(repr=False)
    engine: Engine = field(repr=False)
    #: Consecutive ultimately-failed evaluations.
    failures: int = 0
    #: Why requests are refused (``None``: they are not).
    quarantine: Optional[dict] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def failed(self, exc: BaseException, threshold: int, uptime_s: float) -> None:
        """One ultimately-failed evaluation; quarantine on a streak
        (``threshold`` 0: never)."""
        with self.lock:
            self.failures += 1
            if threshold and self.failures >= threshold and self.quarantine is None:
                self.quarantine = {
                    "failures": self.failures,
                    "error": f"{type(exc).__name__}: {exc}",
                    "uptime_s": uptime_s,
                }

    def answered(self) -> None:
        """An answered request breaks the failure streak."""
        with self.lock:
            self.failures = 0

    def lift(self) -> bool:
        """End the quarantine and the streak; whether there was one."""
        with self.lock:
            lifted = self.quarantine is not None
            self.failures, self.quarantine = 0, None
        return lifted


@dataclass
class Scan:
    """What one :meth:`MountTable.scan` found; nothing is visible yet."""

    #: Added and replaced documents: their new records.
    opened: Dict[str, Mount] = field(default_factory=dict)
    added: List[str] = field(default_factory=list)
    replaced: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    unchanged: List[str] = field(default_factory=list)
    #: Unusable bundles, name -> ``{"store", "error"}``.
    skipped: Dict[str, dict] = field(default_factory=dict)
    #: The skipped names a second corpus repeats (the first one's serves).
    duplicates: List[str] = field(default_factory=list)
    stamps: Dict[str, Optional[int]] = field(default_factory=dict)
    generations: Dict[str, int] = field(default_factory=dict)

    def close(self) -> None:
        """Give the opened handles back (a scan nobody installs)."""
        for record in self.opened.values():
            record.document.close()


class MountTable:
    """The documents mounted from ``store_dirs``, each under ``strategy``."""

    def __init__(
        self, store_dirs: Sequence[str], strategy: str = "auto", mmap: bool = True
    ) -> None:
        self.store_dirs = [os.path.abspath(s) for s in store_dirs]
        self.strategy = strategy
        self.mmap = mmap
        self.cache = CompiledQueryCache()
        #: Mounted documents by name, in mount order.
        self.records: Dict[str, Mount] = {}
        self.skipped: Dict[str, dict] = {}
        #: Per-store change stamps as of the last installed scan.
        self.stamps: Dict[str, Optional[int]] = {}

    def read_stamps(self) -> Dict[str, Optional[int]]:
        """The change stamps on disk now (what a poller compares)."""
        return {store: corpus_stamp(store) for store in self.store_dirs}

    def by_store(self) -> Dict[str, List[str]]:
        """Mounted document names per corpus directory."""
        records = list(self.records.values())  # any thread may ask
        return {
            store: sorted(r.name for r in records if r.store == store)
            for store in self.store_dirs
        }

    def scan(self) -> Scan:
        """Diff the disk against :attr:`records`; open what is new and
        build its engine."""
        mounted = dict(self.records)
        # Stamps first: a publish during this scan moves one again.
        found = Scan(stamps=self.read_stamps())
        seen: Dict[str, str] = {}  # name -> the store that has it
        try:
            for store_dir in self.store_dirs:
                store = DocumentStore(store_dir)
                manifest = read_manifest(store_dir)
                found.generations[store_dir] = manifest.generation
                for name in store.names():
                    if name in seen:
                        found.duplicates.append(name)
                        found.skipped[name] = {
                            "store": store_dir,
                            "error": "duplicate bundle name (already mounted "
                            f"from {seen[name]!r})",
                        }
                        continue
                    seen[name] = store_dir
                    current = mounted.get(name)
                    identity = bundle_identity(store.path_for(name))
                    if current is not None and current.identity == identity:
                        found.unchanged.append(name)
                        continue
                    try:
                        document = store.open(name, mmap=self.mmap)
                    except (StoreError, OSError) as exc:
                        found.skipped[name] = {
                            "store": store_dir,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                        continue
                    entry = manifest.documents.get(name) or {}
                    found.opened[name] = Mount(
                        name,
                        store_dir,
                        identity,
                        entry.get("generation"),
                        entry.get("fingerprint"),
                        document,
                        Engine(document, strategy=self.strategy, cache=self.cache),
                    )
                    (found.added if current is None else found.replaced).append(name)
        except BaseException:
            found.close()
            raise
        found.removed = sorted(set(mounted) - set(seen))
        return found

    def install(self, found: Scan) -> List[StoredDocument]:
        """Make ``found`` the mounted set; the superseded handles, open."""
        superseded = [
            self.records[name].document
            for name in found.opened
            if name in self.records
        ]
        superseded += [self.records.pop(name).document for name in found.removed]
        self.records.update(found.opened)
        self.skipped = found.skipped
        self.stamps = found.stamps
        return superseded

    def cache_info(self) -> Dict[str, dict]:
        """The shared compiled cache and each mounted engine's caches, in
        ``Workspace.cache_info``'s shape (``GET /stats`` ``caches``)."""
        records = list(self.records.values())  # any thread may ask
        return {
            "compiled": self.cache.cache_info(),
            "documents": {r.name: r.engine.cache_info() for r in records},
        }

    def close(self) -> None:
        """Unmount everything and release every handle (idempotent)."""
        records, self.records = self.records, {}
        for record in records.values():
            record.document.close()
