"""Persistent compiled-document store: parse once, reopen in O(arrays).

:func:`save_document` compiles a document down to the flat arrays a
reader maps -- the three :class:`~repro.tree.binary.BinaryTree`
columns and the :class:`~repro.index.labels.LabelIndex`
per-label sorted id arrays -- and writes them as a versioned bundle
(:mod:`repro.store.format`).

:func:`open_document` is the O(1)-startup path: every array is
reopened as a read-only ``mmap`` of its ``.npy`` file (zero copy,
shared across processes by the page cache) once its header is
byte-exact (:func:`repro.store.format.load_array`), handed to the
readers as a plain ``ndarray`` view of its pages, and the three tree columns
*are* the :class:`~repro.tree.binary.BinaryTree` -- no XML parsing, no
label re-interning, no argsort, and no per-node Python object until an
automaton strategy asks the tree for a list mirror.  The resulting
:class:`StoredDocument` plugs into :class:`~repro.engine.api.Engine` /
`Workspace.add` directly and pickles as its path (cheap worker-pool
task descriptors).
"""

from __future__ import annotations

import datetime
import mmap
import os
import shutil
import threading
from typing import Dict, List, Optional, Tuple, Union

from repro.index.jumping import TreeIndex
from repro.index.labels import LabelIndex
from repro.store.format import (
    ARRAYS,
    HEADER_FILE,
    SourceEncodingError,
    StoreCorruptionError,
    StoreError,
    StoreFormatError,
    bundle_names,
    is_bundle,
    load_array,
    read_header,
    verify_bundle,
    write_bundle,
)
from repro.store.manifest import (
    CorpusManifest,
    SourceRead,
    _plan,
    read_manifest,
    read_source,
    retired_dir_name,
    write_manifest,
)
from repro.tree.binary import BinaryTree
from repro.tree.document import XMLDocument
from repro.tree.parser import XMLSyntaxError

Document = Union[str, XMLDocument, BinaryTree, TreeIndex]

# -- in-process reader registry ----------------------------------------------
#
# compact() must not delete a retired bundle a live StoredDocument still
# maps.  Bundles are identified by the (st_dev, st_ino) of their
# header.json -- stable across the retire rename -- and refcounted per
# open.  The registry is process-local; cross-process readers on POSIX
# survive even an early deletion (unlinked pages stay mapped), so this
# is a tidiness guarantee in-process and a safety one everywhere.

_READERS: Dict[Tuple[int, int], int] = {}
_READERS_LOCK = threading.Lock()


def bundle_identity(path: str) -> Optional[Tuple[int, int]]:
    """A rename-stable identity for a published bundle: the
    ``(st_dev, st_ino)`` of its header file, or ``None`` when the path
    holds no bundle.  Retiring a bundle renames its directory but keeps
    the inode, so the identity tracks the *publication*, not the path --
    the property both :func:`live_readers` and the daemon's reload
    change-detection rely on."""
    try:
        st = os.stat(os.path.join(path, HEADER_FILE))
    except OSError:
        return None
    return (st.st_dev, st.st_ino)


def _register_reader(key: Optional[Tuple[int, int]]) -> None:
    if key is None:
        return
    with _READERS_LOCK:
        _READERS[key] = _READERS.get(key, 0) + 1


def _unregister_reader(key: Optional[Tuple[int, int]]) -> None:
    if key is None:
        return
    with _READERS_LOCK:
        count = _READERS.get(key, 0) - 1
        if count > 0:
            _READERS[key] = count
        else:
            _READERS.pop(key, None)


def live_readers(path: str) -> int:
    """In-process open :class:`StoredDocument` count for a bundle path.

    Rename-stable: a reader that opened the bundle before it was
    retired still counts against the retired directory.
    """
    key = bundle_identity(path)
    if key is None:
        return 0
    with _READERS_LOCK:
        return _READERS.get(key, 0)


def _release_mapped(mapped: List[mmap.mmap]) -> None:
    """Close a list of ``mmap`` objects, emptying it.  One whose pages a
    live ndarray still exports stays open until its last view goes."""
    while mapped:
        pages = mapped.pop()
        try:
            pages.close()
        except BufferError:
            pass


class StoredDocument:
    """A compiled document reopened from a bundle.

    Exposes the same surface every engine entry point consumes: ``index``
    (a ready :class:`TreeIndex` over the mapped arrays) and ``tree``.
    Pickles as its bundle path, so shipping one to a pool worker costs
    a few bytes instead of the whole array payload.
    """

    def __init__(self, path: str, header: dict, index: TreeIndex) -> None:
        self.path = path
        self.header = header
        self.index = index
        self.closed = False
        # The mmap objects behind this document's arrays; close()
        # releases them (a long-lived daemon unmounting a corpus must
        # not leak map handles until garbage collection).
        self._mapped: List[mmap.mmap] = []
        # Registered reader identity (mmap opens only); compact() keeps
        # retired bundles alive while this is held.
        self._reader_key: Optional[Tuple[int, int]] = None

    def _ensure_open(self) -> None:
        if self.closed:
            raise StoreError(f"document {self.path!r} is closed")

    @property
    def tree(self) -> BinaryTree:
        self._ensure_open()
        return self.index.tree

    @property
    def n(self) -> int:
        self._ensure_open()
        return self.index.tree.n

    @property
    def labels(self) -> List[str]:
        self._ensure_open()
        return self.index.tree.labels

    def close(self) -> None:
        """Release the document's memory-mapped array handles (idempotent).

        Drops this object's reference to the index, then closes the
        ``mmap`` objects (:func:`_release_mapped`: one still exported by
        a live view, say an engine's, unmaps with its last view).
        After ``close()`` the document must not be used.
        """
        if self.closed:
            return
        self.closed = True
        mapped, self._mapped = self._mapped, []
        self.index = None
        key, self._reader_key = self._reader_key, None
        _unregister_reader(key)
        _release_mapped(mapped)

    def __enter__(self) -> "StoredDocument":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __reduce__(self):
        # Reopening by path keeps the pickle a few bytes; the original
        # mmap choice is preserved.  (Path-based pickling requires the
        # bundle to still exist wherever the unpickle happens.)
        return (_reopen, (self.path, self.header.get("_mmap", True)))

    def __repr__(self) -> str:
        return f"StoredDocument({self.path!r}, n={self.n})"


def _reopen(path: str, mmap: bool) -> "StoredDocument":
    return open_document(path, mmap=mmap)


def resolve_document(document, encode_attributes: bool, encode_text: bool):
    """Resolve any accepted document kind to a :class:`TreeIndex`.

    The single dispatch shared by :class:`~repro.engine.api.Engine` and
    :func:`save_document`, so both accept exactly the same inputs: raw
    XML text, an event source (``.events(sink)``), an
    :class:`XMLDocument`, a :class:`BinaryTree`, a :class:`TreeIndex`,
    or a :class:`StoredDocument` (anything carrying a ready ``.index``).
    String and event input go through
    :func:`~repro.tree.builder.build_tree`.  Encode flags are validated
    here: already-encoded trees/indexes reject them instead of silently
    ignoring them.
    """
    from repro.tree.builder import build_tree

    stored_index = getattr(document, "index", None)
    if isinstance(stored_index, TreeIndex) and not isinstance(
        document, (str, XMLDocument, BinaryTree, TreeIndex)
    ):
        document = stored_index
    if isinstance(document, (TreeIndex, BinaryTree)):
        if encode_attributes or encode_text:
            raise ValueError(
                "encode_attributes/encode_text apply while building the "
                "binary tree; the given "
                f"{type(document).__name__} is already encoded"
            )
        if isinstance(document, BinaryTree):
            return TreeIndex(document)
        return document
    if isinstance(document, XMLDocument):
        return TreeIndex(
            BinaryTree.from_document(
                document,
                encode_attributes=encode_attributes,
                encode_text=encode_text,
            )
        )
    if isinstance(document, str) or callable(getattr(document, "events", None)):
        return TreeIndex(
            build_tree(
                document,
                encode_attributes=encode_attributes,
                encode_text=encode_text,
            )
        )
    raise TypeError(
        f"cannot build a document index from {type(document).__name__}"
    )


def save_document(
    document: Document,
    path: str,
    *,
    encode_attributes: bool = False,
    encode_text: bool = False,
    source: Optional[dict] = None,
    retire_to: Optional[str] = None,
) -> str:
    """Compile ``document`` and persist it as a bundle at ``path``.

    ``document`` may be raw XML text, an event source (anything with an
    ``events(sink)`` method, e.g. an
    :class:`~repro.xmark.generator.XMarkGenerator`), an
    :class:`XMLDocument`, a :class:`BinaryTree`, or a prebuilt
    :class:`TreeIndex` (whose label index is reused as-is).  The encode
    flags apply when the binary tree is built here (string / event /
    XMLDocument input), exactly as in :class:`~repro.engine.api.Engine`;
    an already-encoded tree or index rejects them rather than silently
    ignoring them.

    ``retire_to`` (generational corpora) renames a superseded bundle to
    that hidden path inside the atomic publish instead of deleting it;
    see :func:`repro.store.format.write_bundle`.
    """
    index = resolve_document(document, encode_attributes, encode_text)
    tree = index.tree
    if not isinstance(tree, BinaryTree):
        raise TypeError("store bundles require a BinaryTree-backed index")
    label_ids, label_bounds = index.labels.state()
    arrays = {
        **tree._columns,  # the three columns, as the tree holds them
        "label_ids": label_ids,
        "label_bounds": label_bounds,
    }
    header = {
        "n": tree.n,
        "labels": list(tree.labels),
        "encoded_attributes": any(l.startswith("@") for l in tree.labels),
        "encoded_text": "#text" in tree.labels,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "source": source or {},
        # Document statistics ``store ls`` prints: computed once at
        # build time, so listing a corpus reads headers only.
        "stats": {"height": tree.height()},
    }
    write_bundle(path, header, arrays, retire_to=retire_to)
    return path


def verify_document(path: str, *, deep: bool = False) -> dict:
    """Integrity-check one bundle; see :func:`repro.store.format.verify_bundle`.

    ``fast`` (default) checks header/manifest/file sizes/``.npy``
    metadata without reading array data; ``deep=True`` additionally
    recomputes every file's CRC32 against the manifest digests.  Raises
    :class:`~repro.store.format.StoreCorruptionError` on damage,
    returns the JSON-ready verification report otherwise.
    """
    return verify_bundle(path, deep=deep)


def open_document(path: str, *, mmap: bool = True) -> StoredDocument:
    """Reopen a bundle with zero re-parsing (see the module docstring).

    ``mmap=False`` reads the arrays into memory instead of mapping them
    (useful when the bundle lives on storage slated for deletion).
    """
    header = read_header(path)
    manifest = header["arrays"]
    # Capture the bundle's identity before mapping anything, so the
    # reader registration below binds to the files actually mapped even
    # if the bundle is concurrently replaced.
    reader_key = bundle_identity(path) if mmap else None
    labels = list(header["labels"])
    mapped = []
    arrays = {}
    # A failure partway through (a corrupt array after several mapped
    # fine) must not leak the handles already opened: the views go
    # first, so each mapping closes at once.
    try:
        for name in ARRAYS:
            arrays[name] = load_array(
                path, name, manifest, mapped if mmap else None
            )
        label_ids = arrays.pop("label_ids")
        label_bounds = arrays.pop("label_bounds")
        # The three columns left are the tree: nothing is copied or
        # converted, whatever the document's size.
        tree = BinaryTree._from_columns(labels, arrays)
        label_index = LabelIndex.from_state(tree, label_ids, label_bounds)
        index = TreeIndex(tree, labels=label_index)
    except BaseException:
        arrays.clear()
        _release_mapped(mapped)
        raise
    if mmap:
        # Advertise the bundle for cheap worker-pool task descriptors
        # (workers reopen the mapped file).  An mmap=False open is for bundles
        # whose storage may go away, so its payloads ship the arrays
        # themselves instead of a path that may no longer resolve.
        index.store_path = os.path.abspath(path)
    header["_mmap"] = mmap
    document = StoredDocument(os.path.abspath(path), header, index)
    document._mapped.extend(mapped)
    document._reader_key = reader_key
    _register_reader(reader_key)
    return document


class DocumentStore:
    """A corpus directory of named bundles (one subdirectory per document).

    The corpus is *mutable without rebuilds*: :meth:`add`,
    :meth:`replace` and :meth:`remove` publish or retire one bundle at
    a time under a generational ``manifest.json``
    (:mod:`repro.store.manifest`), :meth:`sync` applies the minimal
    add/replace/remove set to mirror a directory of XML sources, and
    :meth:`compact` deletes retired bundles once no in-process reader
    still maps them.  Readers that opened a document before it was
    superseded keep serving the old generation until they close.

    >>> import tempfile
    >>> root = tempfile.mkdtemp()
    >>> store = DocumentStore(root)
    >>> _ = store.save("tiny", "<r><a><b/></a></r>")
    >>> store.names()
    ['tiny']
    >>> store.open("tiny").n
    3
    >>> _ = store.replace("tiny", "<r><a/><a/></r>")
    >>> store.generation()
    2
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path_for(self, name: str) -> str:
        # Both separator styles are rejected regardless of platform
        # (os.path.join treats either on Windows), as are relative
        # segments -- a name must stay a single path component under
        # the store root.
        # Leading dots are additionally reserved for the atomic-publish
        # staging/retire namespace (repro.store.format.write_bundle).
        if (
            not name
            or name.startswith(".")
            or "/" in name
            or "\\" in name
            or os.sep in name
        ):
            raise ValueError(f"invalid document name {name!r}")
        return os.path.join(self.root, name)

    # -- mutation (generational) ---------------------------------------------

    def manifest(self) -> CorpusManifest:
        """The corpus manifest, reconciled with the bundles on disk.

        Corpora that predate manifests get an in-memory bootstrap at
        generation 0; nothing is written until the first mutation.
        """
        return read_manifest(self.root)

    def generation(self) -> int:
        """The corpus's current generation (0 for a fresh/legacy one)."""
        return self.manifest().generation

    def log(self, limit: Optional[int] = None) -> List[dict]:
        """Generation history, oldest first (``repro store log``)."""
        return self.manifest().log(limit)

    def _commit(
        self,
        manifest: CorpusManifest,
        op: str,
        name: str,
        document: Optional[Document] = None,
        *,
        fingerprint: Optional[str] = None,
        record: Optional[List[int]] = None,
        **kwargs,
    ) -> str:
        """One mutating op (``add``, ``replace`` or ``remove``) of ``name``
        on a manifest the caller loaded: one generation, one bundle
        publish (or retire rename), then the manifest written.
        ``record`` is the source's stat record (a sync's ingest only)."""
        path = self.path_for(name)
        if is_bundle(path) == (op == "add"):
            raise StoreError(
                f"document {name!r} already exists in {self.root!r}; "
                "use replace()"
                if op == "add"
                else f"no document {name!r} in {self.root!r} to {op}; "
                f"present: {self.names()}"
            )
        if op != "add":
            old = manifest.documents.get(name) or {}
            retired = retired_dir_name(name, old.get("generation", 0))
        retire_to = os.path.join(self.root, retired) if op != "add" else None
        if op == "remove":
            manifest.record(op, name)
            os.rename(path, retire_to)
        else:
            # Thread a content fingerprint into the bundle's source header.
            kwargs["source"] = source = dict(kwargs.get("source") or {})
            if fingerprint is not None:
                source["fingerprint"] = fingerprint
            fingerprint = source.get("fingerprint")
            manifest.record(op, name, fingerprint=fingerprint)
            save_document(document, path, retire_to=retire_to, **kwargs)
        if op != "add":
            manifest.retire(name, retired)
        if op != "remove":
            manifest.set_document(name, fingerprint, record)
        write_manifest(self.root, manifest)
        return path

    def add(
        self,
        name: str,
        document: Document,
        *,
        fingerprint: Optional[str] = None,
        **kwargs,
    ) -> str:
        """Publish a *new* document; one generation, one bundle write.

        Fails if ``name`` already exists (use :meth:`replace`, or
        :meth:`save` for upsert semantics).  ``fingerprint`` (or
        ``source={"fingerprint": ...}``) records the source content
        hash that :meth:`sync` diffs against.
        """
        return self._commit(
            self.manifest(), "add", name, document,
            fingerprint=fingerprint, **kwargs,
        )

    def replace(
        self,
        name: str,
        document: Document,
        *,
        fingerprint: Optional[str] = None,
        **kwargs,
    ) -> str:
        """Atomically supersede an existing document.

        The new bundle is staged and rename-published
        (:func:`repro.store.format.write_bundle`); the old bundle is
        *retired* into the hidden garbage namespace in the same
        crash-safe window, where open readers keep it alive until
        :meth:`compact` collects it.
        """
        return self._commit(
            self.manifest(), "replace", name, document,
            fingerprint=fingerprint, **kwargs,
        )

    def remove(self, name: str) -> None:
        """Retire a document out of the corpus (bundle kept as garbage).

        The bundle directory is renamed into the hidden retired
        namespace -- still readable by anyone who opened it -- and the
        manifest drops the name; :meth:`compact` deletes it once no
        in-process reader remains.
        """
        self._commit(self.manifest(), "remove", name)

    def compact(self) -> dict:
        """Delete retired bundles whose readers are gone.

        A retired bundle with a live in-process reader
        (:func:`live_readers`) is kept for a later pass.  Returns
        ``{"deleted": [...], "kept": [...], "generation": g}``; the
        manifest is written only when a retired entry went away.
        """
        manifest = self.manifest()
        deleted: List[str] = []
        kept: List[dict] = []
        for entry in manifest.retired:
            full = os.path.join(self.root, entry["bundle"])
            if not os.path.isdir(full):
                continue  # already gone; forget the entry
            if live_readers(full) > 0:
                kept.append(entry)
                continue
            shutil.rmtree(full, ignore_errors=True)
            deleted.append(entry["bundle"])
        if len(kept) < len(manifest.retired):
            manifest.retired = kept
            if deleted:
                manifest.record("compact", deleted=len(deleted))
            write_manifest(self.root, manifest)
        return {
            "deleted": deleted,
            "kept": [entry["bundle"] for entry in kept],
            "generation": manifest.generation,
        }

    def sync(
        self,
        source_dir: str,
        *,
        delete: bool = True,
        compact: bool = False,
        dry_run: bool = False,
        encode_attributes: bool = False,
        encode_text: bool = False,
    ) -> dict:
        """Mirror a directory of XML files with the minimal change set.

        Each ``<stem>.xml`` under ``source_dir`` names document
        ``<stem>``.  A file whose ``os.stat`` equals its entry's trusted
        stat record costs that one stat and is never opened; any other
        is read and hashed once, diffed by content fingerprint, and --
        if new or changed -- ingested from those same bytes.  Unchanged
        documents cost **zero** bundle writes; only genuinely
        new/changed/vanished documents are added/replaced/removed (one
        generation each), and stat records learned on the way are
        written by the first of those.
        ``delete=False`` keeps corpus documents with no source file;
        ``compact=True`` runs :meth:`compact` afterwards;
        ``dry_run=True`` reports the plan without touching anything.
        """
        manifest = self.manifest()
        held: Dict[str, SourceRead] = {}
        plan = _plan(manifest, source_dir, delete, held)
        sources: Dict[str, str] = plan.pop("sources")  # type: ignore[assignment]
        before = manifest.generation
        report = {
            "source_dir": os.path.abspath(source_dir),
            "added": list(plan["add"]),
            "replaced": list(plan["replace"]),
            "removed": list(plan["remove"]),
            "unchanged": list(plan["unchanged"]),
            "kept": list(plan["keep"]),
            "dry_run": dry_run,
        }
        if dry_run:
            report["generation"] = {"before": before, "after": before}
            return report
        for op in ("add", "replace"):
            for name in plan[op]:
                source = os.path.abspath(sources[name])
                read = held.pop(name, None) or read_source(source)
                # A file that cannot be ingested stops the sync where it
                # stands -- everything published before it stays -- and
                # the error says which of the N sources it was.
                try:
                    text = read.data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SourceEncodingError(
                        source, exc.start, exc.reason
                    ) from exc
                try:
                    self._commit(
                        manifest, op, name, text,
                        fingerprint=read.fingerprint,
                        record=read.record,
                        source={"kind": "xml", "file": source},
                        encode_attributes=encode_attributes,
                        encode_text=encode_text,
                    )
                except XMLSyntaxError as exc:
                    raise XMLSyntaxError(
                        f"{source}: {exc.message}", exc.position
                    ) from exc
        for name in plan["remove"]:
            self._commit(manifest, "remove", name)
        report["generation"] = {"before": before, "after": manifest.generation}
        if compact:
            report["compacted"] = self.compact()
        return report

    def save(self, name: str, document: Document, **kwargs) -> str:
        """Compile and persist ``document`` under ``name`` (upsert).

        An existing document is :meth:`replace`\\ d (old bundle retired
        for compaction), a new one :meth:`add`\\ ed -- either way the
        manifest generation advances by one.
        """
        op = "replace" if name in self else "add"
        return self._commit(self.manifest(), op, name, document, **kwargs)

    def open(self, name: str, *, mmap: bool = True) -> StoredDocument:
        """Reopen the named bundle."""
        path = self.path_for(name)
        if not is_bundle(path):
            raise StoreError(
                f"no document {name!r} in {self.root!r}; "
                f"present: {self.names()}"
            )
        return open_document(path, mmap=mmap)

    def verify(self, name: Optional[str] = None, *, deep: bool = False):
        """Integrity-check one named bundle, or the whole corpus.

        With ``name`` given, returns that bundle's verification report
        (raising :class:`~repro.store.format.StoreCorruptionError` on
        damage).  Without it, checks every bundle and returns
        ``{name: report}`` where a failed bundle's report is
        ``{"ok": False, "error": <structured detail>}`` instead of
        raising -- one rotten document must not mask the health of the
        rest of the corpus.
        """
        if name is not None:
            return verify_document(self.path_for(name), deep=deep)
        reports: Dict[str, dict] = {}
        for entry in self.names():
            try:
                reports[entry] = verify_document(
                    self.path_for(entry), deep=deep
                )
            except StoreFormatError as exc:
                detail = (
                    exc.to_dict()
                    if isinstance(exc, StoreCorruptionError)
                    else {"reason": str(exc)}
                )
                reports[entry] = {
                    "path": self.path_for(entry),
                    "ok": False,
                    "mode": "deep" if deep else "fast",
                    "error": detail,
                }
        return reports

    def names(self) -> List[str]:
        """Sorted names of the documents in this store."""
        return bundle_names(self.root)

    def headers(self) -> Dict[str, dict]:
        """Validated header of every bundle (for ``repro store ls``)."""
        return {name: read_header(self.path_for(name)) for name in self.names()}

    def __contains__(self, name: str) -> bool:
        # Routed through path_for so names the store would never
        # create -- path separators, relative segments, the hidden
        # staging/retire namespace -- answer False instead of probing
        # outside the corpus root.
        if not isinstance(name, str):
            return False
        try:
            path = self.path_for(name)
        except ValueError:
            return False
        return is_bundle(path)

    def __len__(self) -> int:
        return len(self.names())
