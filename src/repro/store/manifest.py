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

    1. stage + publish the new bundle (write_bundle: staged rename,
       fsync'd; a superseded bundle is *retired* by rename into the
       hidden ``.retired.*`` namespace instead of deleted)
    2. write the updated manifest atomically (temp file + rename)

A crash between 1 and 2 leaves the bundle set valid and the manifest
one step stale; :func:`read_manifest`'s reconciliation (adopt unknown
bundles, drop entries whose bundle vanished, adopt orphaned retired
directories) heals the bookkeeping, and a later ``sync`` re-applies the
logically-lost op from the source fingerprints.  The manifest is
therefore a cache of corpus state, never the source of truth about
which arrays are served -- the published bundles are.

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
from typing import Dict, List, Optional

from repro.store.format import (
    HEADER_FILE,
    StoreCorruptionError,
    StoreError,
    _fsync_path,
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


class CorpusManifest:
    """In-memory view of one corpus manifest (see the module docstring).

    ``documents`` maps name -> ``{"fingerprint", "generation",
    "updated"}``; ``retired`` is a list of ``{"bundle", "name",
    "generation", "retired"}`` (``bundle`` is the hidden directory
    name); ``history`` is the bounded operation log, newest last.
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

    def record(self, op: str, name: Optional[str] = None, **detail) -> int:
        """Bump the generation and append a history entry; returns it."""
        self.generation += 1
        entry = {"generation": self.generation, "op": op, "time": _now()}
        if name is not None:
            entry["name"] = name
        entry.update(detail)
        self.history.append(entry)
        if len(self.history) > HISTORY_LIMIT:
            del self.history[: len(self.history) - HISTORY_LIMIT]
        return self.generation

    def set_document(self, name: str, fingerprint: Optional[str]) -> None:
        self.documents[name] = {
            "fingerprint": fingerprint,
            "generation": self.generation,
            "updated": _now(),
        }

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
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=1, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
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
    for name in list(manifest.documents):
        if name not in on_disk:
            manifest.documents.pop(name)
    for name in sorted(on_disk - set(manifest.documents)):
        try:
            header = read_header(os.path.join(root, name))
        except StoreError:
            continue
        source = header.get("source") or {}
        manifest.documents[name] = {
            "fingerprint": source.get("fingerprint"),
            "generation": manifest.generation,
            "updated": header.get("created", _now()),
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
    "unchanged": [...]}`` -- the minimal operation set, decided purely
    by content fingerprints, so an untouched file costs one hash and
    zero bundle writes.  ``delete=False`` leaves corpus documents with
    no source file alone (they are listed under ``"keep"`` instead).
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
    manifest = read_manifest(root)
    plan: Dict[str, List[str]] = {
        "add": [],
        "replace": [],
        "remove": [],
        "unchanged": [],
        "keep": [],
    }
    for name, path in sources.items():
        entry = manifest.documents.get(name)
        if entry is None:
            plan["add"].append(name)
        elif entry.get("fingerprint") != file_fingerprint(path):
            plan["replace"].append(name)
        else:
            plan["unchanged"].append(name)
    for name in sorted(set(manifest.documents) - set(sources)):
        plan["remove" if delete else "keep"].append(name)
    plan["sources"] = sources  # type: ignore[assignment]
    return plan
