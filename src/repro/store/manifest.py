"""Corpus-level manifest: generations, retirement, and sync planning.

A *corpus* is a directory of named bundles (:class:`~repro.store.store.
DocumentStore`).  Bundles themselves are immutable and atomically
published (:mod:`repro.store.format`); this module adds the mutable
layer on top: a ``manifest.json`` at the corpus root recording a
**monotonically increasing generation** counter, the live document set
(name, bundle fingerprint, the generation that published it), the
**retired** bundles awaiting compaction, and a bounded operation
**history** (what ``repro store log`` shows).

Update protocol (one mutating op = one generation)::

    0. load the manifest once per public operation; a ``sync`` plans
       against that copy and applies each of its ops to it
    1. stage + publish the new bundle (write_bundle: staged rename,
       fsync'd; a superseded bundle is *retired* by rename into the
       hidden ``.retired.*`` namespace instead of deleted)
    2. write the updated manifest atomically (temp file + rename,
       fsync'd) before the next publish starts

``compact`` writes only when a retired entry went away.  A crash
between 1 and 2 leaves the bundle set valid and the manifest one step
stale; :func:`read_manifest`'s reconciliation (adopt unknown bundles,
drop entries whose bundle vanished, adopt orphaned retired directories)
heals the bookkeeping, and a later ``sync`` re-applies the
logically-lost op from the source fingerprints.  The manifest is
therefore a cache of corpus state, never the source of truth about
which arrays are served -- the published bundles are.

A sync decides "unchanged" from a recorded stat before it looks at any
bytes: a source whose ``os.stat`` equals its entry's trusted
:func:`source_record` is never opened; any other is read and hashed
once (:func:`read_source`), and its fingerprint decides.

Retired bundles are garbage, not trash: a reader that opened a bundle
before it was superseded keeps a valid memory-map of the renamed
directory (POSIX rename does not disturb open mappings).
``DocumentStore.compact()`` deletes a retired bundle only once no
in-process reader holds it (:func:`repro.store.store.live_readers`);
cross-process readers on POSIX survive even an early deletion, because
unlinked pages stay mapped until the last reader unmaps them.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import sys
import time
from typing import Dict, List, NamedTuple, Optional

from repro.store.format import (
    HEADER_FILE,
    StoreCorruptionError,
    StoreError,
    _fsync_path,
    _write_synced,
    bundle_names,
    is_bundle,
    read_header,
)

MANIFEST_FILE = "manifest.json"
MANIFEST_FORMAT = "repro-corpus-manifest"
MANIFEST_VERSION = 1
#: Retired (superseded) bundles live under this hidden prefix -- the
#: same dot namespace :func:`~repro.store.format.bundle_names` skips.
RETIRED_PREFIX = ".retired."
#: History entries kept in the manifest (oldest are dropped).
HISTORY_LIMIT = 1000
#: Bytes of changed sources one sync keeps between planning and
#: ingesting them; a changed source met once this many are held is
#: read again to ingest.
HELD_SOURCE_BYTES = 64 << 20
#: Stamps that are whole multiples of this (centiseconds, whole
#: seconds, FAT's two) come from a filesystem coarser than
#: :data:`STAMP_LAG_NS`, and a record of them is never trusted.
COARSE_STAMP_NS = 10_000_000


def _stamp_lag_ns() -> int:
    """How far a file's stamps may trail the wall clock at the write.

    Linux stamps inodes from ``CLOCK_REALTIME_COARSE`` (clock id 5 in
    ``<linux/time.h>``), which advances once per tick; the bound is
    twice the tick the OS reports for it (DESIGN.md, "Sync", has the
    measurement).  Where that clock is unknown the bound is 2 s.
    """
    if sys.platform.startswith("linux"):
        try:
            return 2 * round(time.clock_getres(5) * 1e9)
        except OSError:
            pass
    return 2_000_000_000


#: The filesystem timestamp lag bound, ns (see :func:`_stamp_lag_ns`).
STAMP_LAG_NS = _stamp_lag_ns()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def bytes_fingerprint(data: bytes) -> str:
    """Content fingerprint of raw source bytes: ``sha256:<hex>``."""
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


def file_fingerprint(path: str, chunk: int = 1 << 20) -> str:
    """Content fingerprint of a source file (same scheme)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def text_fingerprint(text: str) -> str:
    """Content fingerprint of in-memory source text (same scheme)."""
    return bytes_fingerprint(text.encode("utf-8"))


def stat_key(st: os.stat_result) -> List[int]:
    """The fields of a source's stat a record compares."""
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def source_record(st: os.stat_result, clock_ns: int) -> Optional[List[int]]:
    """The stat record a later sync may trust in place of hashing the
    source, or ``None`` when the source is racily clean.

    ``clock_ns`` is the wall clock read before ``st`` was taken.  A
    write after that reads a stamp no older than ``clock_ns -
    STAMP_LAG_NS``, so stamps older than that can never recur on a
    changed file; newer ones, and coarse ones, can.
    """
    stamps = (st.st_mtime_ns, st.st_ctime_ns)
    if max(stamps) >= clock_ns - STAMP_LAG_NS:
        return None
    if all(stamp % COARSE_STAMP_NS == 0 for stamp in stamps):
        return None
    return stat_key(st)


class SourceRead(NamedTuple):
    """One read of a sync source: its bytes, their fingerprint, and the
    :func:`source_record` of the handle they came from."""

    data: bytes
    fingerprint: str
    record: Optional[List[int]]


def read_source(path: str) -> SourceRead:
    """Read and hash a source once, with its stat taken before the read."""
    clock_ns = time.time_ns()
    with open(path, "rb") as handle:
        st = os.fstat(handle.fileno())
        data = handle.read()
    record = source_record(st, clock_ns)
    return SourceRead(data, bytes_fingerprint(data), record)


class CorpusManifest:
    """In-memory view of one corpus manifest (see the module docstring).

    ``documents`` maps name -> ``{"fingerprint", "generation",
    "updated", "stat"}`` (``stat`` is the source's trusted
    :func:`source_record` or ``None``; an entry written before records
    has no ``stat``, which reads as ``None``); ``retired`` is a list of
    ``{"bundle", "name", "generation", "retired"}`` (``bundle`` is the
    hidden directory name); ``history`` is the bounded operation log,
    newest last.
    """

    def __init__(
        self,
        generation: int = 0,
        documents: Optional[Dict[str, dict]] = None,
        retired: Optional[List[dict]] = None,
        history: Optional[List[dict]] = None,
    ) -> None:
        self.generation = generation
        self.documents: Dict[str, dict] = documents or {}
        self.retired: List[dict] = retired or []
        self.history: List[dict] = history or []

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "documents": self.documents,
            "retired": self.retired,
            "history": self.history[-HISTORY_LIMIT:],
        }

    @classmethod
    def from_dict(cls, payload: dict, root: str) -> "CorpusManifest":
        if payload.get("format") != MANIFEST_FORMAT:
            raise StoreError(
                f"{root!r}: unknown manifest format {payload.get('format')!r}"
            )
        if payload.get("version") != MANIFEST_VERSION:
            raise StoreError(
                f"{root!r}: manifest version {payload.get('version')!r} "
                f"(this reader understands {MANIFEST_VERSION})"
            )
        generation = payload.get("generation")
        if not isinstance(generation, int) or generation < 0:
            raise StoreCorruptionError(
                root, None, f"manifest generation {generation!r} invalid"
            )
        return cls(
            generation=generation,
            documents=dict(payload.get("documents") or {}),
            retired=list(payload.get("retired") or []),
            history=list(payload.get("history") or []),
        )

    # -- mutation bookkeeping ------------------------------------------------

    def record(self, op: str, name: Optional[str] = None, **detail) -> None:
        """Bump the generation and append a history entry (the written
        history keeps the last ``HISTORY_LIMIT``)."""
        self.generation += 1
        entry = {"generation": self.generation, "op": op, "time": _now()}
        if name is not None:
            entry["name"] = name
        entry.update(detail)
        self.history.append(entry)

    def set_document(
        self,
        name: str,
        fingerprint: Optional[str],
        record: Optional[List[int]] = None,
    ) -> None:
        self.documents[name] = {
            "fingerprint": fingerprint,
            "generation": self.generation,
            "updated": _now(),
            "stat": record,
        }

    def log(self, limit: Optional[int] = None) -> List[dict]:
        """The history, oldest first; the last ``limit`` when positive."""
        history = self.history
        if limit is not None and limit > 0:
            history = history[-limit:]
        return list(history)

    def retire(self, name: str, bundle: str) -> None:
        entry = self.documents.pop(name, None)
        self.retired.append(
            {
                "bundle": bundle,
                "name": name,
                "generation": entry["generation"] if entry else None,
                "retired": _now(),
            }
        )


def manifest_path(root: str) -> str:
    return os.path.join(root, MANIFEST_FILE)


def retired_dir_name(name: str, generation: object) -> str:
    """The hidden directory a superseded bundle is renamed into.

    Includes pid + a timestamp fragment so repeated retirements of the
    same (name, generation) -- e.g. after a crash-then-retry -- never
    collide.
    """
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S%f"
    )
    return f"{RETIRED_PREFIX}{name}.g{generation}.{os.getpid()}.{stamp}"


def write_manifest(root: str, manifest: CorpusManifest) -> None:
    """Atomically publish the manifest (temp file, fsync, rename)."""
    os.makedirs(root, exist_ok=True)
    path = manifest_path(root)
    tmp = f"{path}.tmp.{os.getpid()}"
    # No indent: with one, ``json`` falls back to its pure-Python
    # encoder, ~3x slower on a long history (``repro store log`` is the
    # human reader).
    text = json.dumps(manifest.to_dict(), sort_keys=True) + "\n"
    _write_synced(tmp, text.encode())
    os.replace(tmp, path)
    _fsync_path(root)


def load_manifest(root: str) -> Optional[CorpusManifest]:
    """The stored manifest, or ``None`` when the corpus has none yet."""
    path = manifest_path(root)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(
            root, None, f"unparseable {MANIFEST_FILE}: {exc}"
        ) from None
    return CorpusManifest.from_dict(payload, root)


def read_manifest(root: str) -> CorpusManifest:
    """Load the manifest and reconcile it with the disk.

    Reconciliation heals the crash window between a bundle publish and
    the manifest write, plus any out-of-band tampering: entries whose
    bundle vanished are dropped, bundles the manifest does not know are
    adopted at its generation (fingerprint from their ``source`` header;
    ``None``, always stale to a sync diff, when it has none) -- so a
    corpus that predates manifests starts at generation 0 -- retired
    directories nobody recorded are adopted into the garbage list, and
    recorded retirements whose directory is already gone are forgotten.
    Reconciliation is in-memory only -- read paths never write.
    """
    manifest = load_manifest(root) or CorpusManifest()
    on_disk = set(bundle_names(root))
    for name in set(manifest.documents) - on_disk:
        del manifest.documents[name]
    for name in sorted(on_disk - set(manifest.documents)):
        try:
            header = read_header(os.path.join(root, name))
        except StoreError:
            continue
        source = header.get("source") or {}
        manifest.documents[name] = {
            "fingerprint": source.get("fingerprint"),
            "generation": manifest.generation,
            "updated": header["created"],
        }
    recorded = {entry["bundle"] for entry in manifest.retired}
    manifest.retired = [
        entry
        for entry in manifest.retired
        if os.path.isdir(os.path.join(root, entry["bundle"]))
    ]
    if os.path.isdir(root):
        for entry in sorted(os.listdir(root)):
            if not entry.startswith(RETIRED_PREFIX) or entry in recorded:
                continue
            if not is_bundle(os.path.join(root, entry)):
                continue
            manifest.retired.append(
                {
                    "bundle": entry,
                    "name": entry[len(RETIRED_PREFIX):].split(".g", 1)[0],
                    "generation": None,
                    "retired": _now(),
                }
            )
    return manifest


def corpus_stamp(root: str) -> Optional[int]:
    """A cheap change stamp for reload polling: the manifest's
    ``st_mtime_ns`` when one exists, else the corpus directory's (bundle
    publishes rename into it, which bumps the directory mtime)."""
    for candidate in (manifest_path(root), root):
        try:
            return os.stat(candidate).st_mtime_ns
        except OSError:
            continue
    return None


def plan_sync(
    root: str, source_dir: str, *, delete: bool = True
) -> Dict[str, List[str]]:
    """Diff a directory of XML files against the corpus manifest.

    Documents are named by file stem (``auctions.xml`` -> ``auctions``).
    Returns ``{"add": [...], "replace": [...], "remove": [...],
    "unchanged": [...]}`` -- the minimal operation set.  A source whose
    ``os.stat`` equals its entry's trusted record costs that one stat;
    any other is read and hashed once, and its content fingerprint
    decides.  ``delete=False`` leaves corpus documents with no source
    file alone (they are listed under ``"keep"`` instead).
    """
    return _plan(read_manifest(root), source_dir, delete)


def _plan(
    manifest: CorpusManifest,
    source_dir: str,
    delete: bool,
    held: Optional[Dict[str, SourceRead]] = None,
) -> Dict[str, List[str]]:
    """:func:`plan_sync` against a manifest the caller already loaded.

    The stat records it learns for unchanged sources are set on
    ``manifest``'s entries.  ``held``, when given, receives the
    :class:`SourceRead` of each changed source until
    :data:`HELD_SOURCE_BYTES` are held, so those are not read again.
    """
    if not os.path.isdir(source_dir):
        raise StoreError(f"sync source {source_dir!r} is not a directory")
    sources: Dict[str, str] = {}
    for entry in sorted(os.listdir(source_dir)):
        if not entry.lower().endswith(".xml"):
            continue
        name = os.path.splitext(entry)[0]
        if not name or name.startswith("."):
            continue
        if name in sources:
            raise StoreError(
                f"sync source {source_dir!r} has duplicate document "
                f"name {name!r}"
            )
        sources[name] = os.path.join(source_dir, entry)
    plan: Dict[str, List[str]] = {
        op: [] for op in ("add", "replace", "remove", "unchanged", "keep")
    }
    held_bytes = 0
    for name, path in sources.items():
        entry = manifest.documents.get(name)
        if entry is None:
            plan["add"].append(name)
            continue
        record = entry.get("stat")
        if record is not None and record == stat_key(os.stat(path)):
            plan["unchanged"].append(name)
            continue
        read = read_source(path)
        if read.fingerprint == entry.get("fingerprint"):
            entry["stat"] = read.record
            plan["unchanged"].append(name)
            continue
        plan["replace"].append(name)
        if held is not None and held_bytes < HELD_SOURCE_BYTES:
            held[name] = read
            held_bytes += len(read.data)
    for name in sorted(set(manifest.documents) - set(sources)):
        plan["remove" if delete else "keep"].append(name)
    plan["sources"] = sources  # type: ignore[assignment]
    return plan
