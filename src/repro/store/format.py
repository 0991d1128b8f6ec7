"""On-disk layout of a compiled document bundle.

A *bundle* is a directory holding one versioned JSON header plus one
flat ``.npy`` file per compiled array::

    <bundle>/
      header.json            format, version, label table, manifest
      label_of.npy           int32[n]   interned label per node
      parent.npy             int32[n]   XML parent
      xml_end.npy            int32[n]   exclusive subtree end
      label_ids.npy          int32[n]   per-label sorted node ids, concatenated
      label_bounds.npy       int32[L+1] label_ids slice boundaries per label

These are exactly the arrays :func:`repro.store.store.open_document`
maps: the three columns are the tree, the last two the label index, 16
bytes per node in all.  Nothing derived on demand (the fcns links, a
postorder rank, the path summary) is persisted.  Every
array is ``int32``, the width of every node-id array in memory, so a
document holds at most :data:`repro.tree.binary.MAX_NODES` nodes: a
header whose ``n`` exceeds it is refused.

Flat ``.npy`` files (rather than one ``.npz``) are deliberate: a plain
file maps with one ``mmap`` call.  They are byte for byte what
``numpy.save`` writes, but the store writes and reads them itself: a
reader compares a header with :func:`npy_header` of the manifest's
shape instead of parsing it, and any other header is corruption.

Integrity
---------
The header manifest records, per array, not just dtype/shape but the
exact **file byte size** and a **CRC32 digest** of the ``.npy`` file.
:func:`verify_bundle` checks them in two modes: ``fast`` (header parses,
manifest complete and well-formed, ``n`` the length of ``label_of`` and
``labels`` one string per label, every file present with its
recorded byte size and the byte-exact ``.npy`` header of its
dtype/shape -- no data read) and ``deep`` (``fast`` plus a full CRC32
pass over every file, catching bit rot that leaves sizes intact).  Any
mismatch raises :class:`StoreCorruptionError` carrying the bundle path,
the array, and the expected/actual value.  Digests are *off the hot
path*: :func:`load_array` (the serving path) adds one ``fstat`` and one
``pread`` of the header per array.

Atomic publication
------------------
:func:`write_bundle` never mutates the destination in place.  Arrays
and header are written to a hidden sibling temp directory
(``.<name>.tmp.<pid>.<seq>``), fsync'd, and the whole directory is then
renamed into place (retiring any previous bundle first).  A crash at
any point leaves either the old bundle, the new bundle, or hidden temp
debris that :func:`bundle_names` never lists and :func:`is_bundle`
callers never open -- never a half-written bundle.  Within the temp
directory the header is still written last, so even debris is
recognizably incomplete.

Invalidation rules
------------------
``version`` is bumped on **any** change to the array set, an array's
dtype/meaning, or the id scheme; a reader opens ``FORMAT_VERSION`` and
hard-fails on any other (no silent migration -- rebuilding from source
XML is always safe and cheap relative to serving).
"""

from __future__ import annotations

import json
import math
import mmap
import os
import shutil
import struct
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import faults
from repro.tree.binary import DocumentTooLarge, check_size

FORMAT_NAME = "repro-document-store"
FORMAT_VERSION = 5
HEADER_FILE = "header.json"

#: Every array a bundle must contain: the three tree columns, then the
#: label index.
ARRAYS = ("label_of", "parent", "xml_end", "label_ids", "label_bounds")

#: The header keys ``store ls`` prints, with the type each must have.
LISTED = dict(created=str, encoded_attributes=bool, encoded_text=bool,
              stats=dict)

#: Every array is stored as little-endian ``int32``, numpy's ``'<i4'``;
#: the manifest names it ``NPY_DTYPE.name`` (``"int32"``).
NPY_DTYPE = np.dtype("<i4")

_PUBLISH_SEQ = 0


class StoreError(Exception):
    """Base class for document-store failures."""


class SourceEncodingError(StoreError):
    """A source file handed to ``sync`` is not valid UTF-8.

    Structured: ``path`` is the source file, ``offset`` the first byte
    that does not decode, ``reason`` the codec's own words.
    """

    def __init__(self, path: str, offset: int, reason: str) -> None:
        super().__init__(
            f"{path}: not valid UTF-8 ({reason} at byte {offset})"
        )
        self.path = path
        self.offset = offset
        self.reason = reason


class StoreFormatError(StoreError):
    """The bundle on disk does not match the expected format/version."""


class StoreCorruptionError(StoreFormatError):
    """A bundle failed an integrity check (size, digest, or unreadable data).

    Structured: ``path`` is the bundle, ``array`` the offending array
    (``None`` for header-level damage), ``expected``/``actual`` the
    mismatched value (a byte size, a CRC32 hex digest, a dtype/shape).
    """

    def __init__(
        self,
        path: str,
        array: Optional[str],
        message: str,
        *,
        expected=None,
        actual=None,
    ) -> None:
        where = f"{path!r}" + (f" array {array!r}" if array else "")
        detail = ""
        if expected is not None or actual is not None:
            detail = f" (expected {expected!r}, got {actual!r})"
        super().__init__(f"corrupt bundle {where}: {message}{detail}")
        self.path = path
        self.array = array
        self.reason = message
        self.expected = expected
        self.actual = actual

    def to_dict(self) -> dict:
        """JSON-ready detail (the CLI/daemon error payloads use this)."""
        out = {"path": self.path, "reason": self.reason}
        if self.array is not None:
            out["array"] = self.array
        if self.expected is not None:
            out["expected"] = self.expected
        if self.actual is not None:
            out["actual"] = self.actual
        return out


def array_path(bundle: str, name: str) -> str:
    return os.path.join(bundle, f"{name}.npy")


def file_crc32(path: str, chunk: int = 1 << 20) -> str:
    """CRC32 of a whole file as an 8-digit hex string."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            crc = zlib.crc32(block, crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def npy_header(shape: Sequence[int]) -> bytes:
    """The ``.npy`` v1.0 header ``numpy.save`` writes for a C-order
    :data:`NPY_DTYPE` array of ``shape``: magic, ``<H`` length, the dict
    literal, spaces for the first axis to grow to 21 digits, and padding
    to a 64-byte boundary ended by a newline."""
    shape = tuple(shape)
    text = (
        f"{{'descr': '{NPY_DTYPE.str}', 'fortran_order': False, "
        f"'shape': {shape!r}, }}"
    )
    if shape:
        text += " " * (21 - len(repr(shape[0])))
    pad = 64 - (len(text) + 11) % 64
    return (
        b"\x93NUMPY\x01\x00"
        + struct.pack("<H", len(text) + pad + 1)
        + text.encode("latin1")
        + b" " * pad
        + b"\n"
    )


def _write_synced(path: str, *chunks) -> None:
    """Write ``chunks`` (bytes-like) to a new file and fsync it."""
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_path(path: str) -> None:
    """Best-effort fsync of a directory."""
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _temp_dir_for(bundle: str) -> str:
    """A hidden, per-process sibling staging directory for ``bundle``."""
    global _PUBLISH_SEQ
    _PUBLISH_SEQ += 1
    parent, name = os.path.split(os.path.abspath(bundle))
    return os.path.join(parent, f".{name}.tmp.{os.getpid()}.{_PUBLISH_SEQ}")


def write_bundle(
    bundle: str,
    header: dict,
    arrays: Dict[str, np.ndarray],
    *,
    retire_to: Optional[str] = None,
) -> None:
    """Write header + arrays and publish the bundle atomically.

    Everything is staged in a hidden temp directory next to the
    destination (same filesystem, so the final rename is atomic), with
    the digest-bearing header written last and every file fsync'd.  On
    success the staged directory replaces the destination in one
    rename (a previous bundle is retired first, then removed); on any
    failure the staging debris is deleted and the destination is
    untouched -- a crash mid-build can never leave a half-bundle that
    :func:`read_header` accepts.

    ``retire_to`` keeps a superseded bundle instead of deleting it: the
    old directory is renamed to that (hidden, same-filesystem) path in
    the same crash-safe window, so generational corpora can hold it for
    still-open readers until a later compaction pass
    (:meth:`repro.store.store.DocumentStore.compact`).
    """
    if set(arrays) != set(ARRAYS):
        raise StoreError(f"array set {sorted(arrays)} is not {list(ARRAYS)}")
    bundle = os.path.abspath(bundle)
    staging = _temp_dir_for(bundle)
    try:
        os.makedirs(staging)
        manifest = {}
        for name, arr in arrays.items():
            faults.check("store.write_array", array=name, bundle=bundle)
            arr = np.ascontiguousarray(arr, dtype=NPY_DTYPE)
            head = npy_header(arr.shape)
            _write_synced(array_path(staging, name), head, memoryview(arr))
            crc = zlib.crc32(memoryview(arr), zlib.crc32(head))
            manifest[name] = {
                "dtype": NPY_DTYPE.name,
                "shape": list(arr.shape),
                "bytes": len(head) + arr.nbytes,
                "crc32": f"{crc & 0xFFFFFFFF:08x}",
            }
        header = dict(
            header, format=FORMAT_NAME, version=FORMAT_VERSION, arrays=manifest
        )
        text = json.dumps(header, indent=1, sort_keys=True) + "\n"
        _write_synced(os.path.join(staging, HEADER_FILE), text.encode())
        _fsync_path(staging)
        faults.check("store.publish", bundle=bundle)
        _publish(staging, bundle, retire_to=retire_to)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _fsync_path(os.path.dirname(bundle))


def _publish(
    staging: str, bundle: str, *, retire_to: Optional[str] = None
) -> None:
    """Atomically move the staged directory into place.

    A fresh build is a single rename.  A rebuild retires the existing
    bundle with a rename first (also atomic), then renames the staged
    one in and deletes the retired copy -- or, with ``retire_to``,
    keeps it there for a later compaction.  The only crash windows
    leave either the old or the new bundle valid at ``bundle`` -- or,
    between the two renames, no bundle plus hidden debris -- never a
    mixture.
    """
    if os.path.isdir(bundle):
        retired = retire_to if retire_to is not None else staging + ".old"
        os.rename(bundle, retired)
        try:
            os.rename(staging, bundle)
        except BaseException:
            # Put the old bundle back rather than leave nothing.
            os.rename(retired, bundle)
            raise
        if retire_to is None:
            shutil.rmtree(retired, ignore_errors=True)
    else:
        if os.path.exists(bundle):
            raise StoreError(
                f"bundle destination {bundle!r} exists and is not a directory"
            )
        os.rename(staging, bundle)


def read_header(bundle: str) -> dict:
    """Read and validate a bundle's header: format, version, manifest,
    the ``n`` and ``labels`` a reader builds the tree from, and the
    :data:`LISTED` keys ``store ls`` prints."""
    path = os.path.join(bundle, HEADER_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = json.load(handle)
    except FileNotFoundError:
        raise StoreFormatError(f"{bundle!r} is not a document bundle "
                               f"(no {HEADER_FILE})") from None
    except json.JSONDecodeError as exc:
        raise StoreCorruptionError(
            bundle, None, f"unparseable {HEADER_FILE}: {exc}"
        ) from None
    if header.get("format") != FORMAT_NAME:
        raise StoreFormatError(
            f"{bundle!r}: unknown format {header.get('format')!r}"
        )
    if header.get("version") != FORMAT_VERSION:
        raise StoreFormatError(
            f"{bundle!r}: format version {header.get('version')!r} "
            f"(this reader understands version {FORMAT_VERSION}; rebuild "
            "the bundle from its source document)"
        )
    manifest = header.get("arrays")
    if not isinstance(manifest, dict) or set(manifest) != set(ARRAYS):
        raise StoreFormatError(f"{bundle!r}: array manifest mismatch")
    for name, meta in manifest.items():
        if not _well_formed(meta):
            raise StoreCorruptionError(
                bundle, name, f"malformed manifest entry {json.dumps(meta)}"
            )
    n, labels = header.get("n"), header.get("labels")
    if type(n) is not int or manifest["label_of"]["shape"] != [n]:
        raise StoreCorruptionError(
            bundle,
            None,
            "header 'n' is not label_of's length",
            expected=manifest["label_of"]["shape"],
            actual=n,
        )
    try:
        check_size(n)
    except DocumentTooLarge as exc:
        raise StoreCorruptionError(
            bundle,
            None,
            "header 'n' exceeds the nodes int32 ids can number",
            expected=f"<= {exc.limit}",
            actual=n,
        ) from None
    if (
        not isinstance(labels, list)
        or not all(isinstance(label, str) for label in labels)
        or manifest["label_bounds"]["shape"] != [len(labels) + 1]
    ):
        raise StoreCorruptionError(
            bundle, None, "header 'labels' is not one string per label"
        )
    for key, kind in LISTED.items():
        if type(header.get(key)) is not kind:
            raise StoreCorruptionError(
                bundle, None, f"header {key!r} is not a {kind.__name__}"
            )
    return header


def _well_formed(meta) -> bool:
    """Is ``meta`` an ``int32`` array whose ``bytes`` fit its ``shape``?"""
    shape = meta.get("shape") if isinstance(meta, dict) else None
    if not isinstance(shape, list) or meta.get("dtype") != NPY_DTYPE.name:
        return False
    if not all(type(dim) is int and dim >= 0 for dim in shape):
        return False
    data = NPY_DTYPE.itemsize * math.prod(shape)
    return meta.get("bytes") == len(npy_header(shape)) + data


def load_array(
    bundle: str, name: str, manifest: dict, mapped: Optional[list]
) -> np.ndarray:
    """Load one manifest array once its file checks out byte for byte:
    the ``fstat`` size of the descriptor then mapped is the manifest's,
    and the header is :func:`npy_header` of the manifest's shape.  With
    a ``mapped`` list, a read-only view of the file's pages whose
    ``mmap`` joins ``mapped``; with ``None``, an owned copy.  Every
    failure, an unreadable file included, is a
    :class:`StoreCorruptionError` naming the array."""
    meta = manifest[name]
    path = array_path(bundle, name)
    faults.check("store.load_array", array=name, bundle=bundle, path=path)
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size != meta["bytes"]:
                raise StoreCorruptionError(
                    bundle,
                    name,
                    "file size mismatch (truncated or overwritten)",
                    expected=meta["bytes"],
                    actual=size,
                )
            head = npy_header(meta["shape"])
            actual = os.pread(fd, len(head), 0)
            if actual != head:
                at = len(os.path.commonprefix([actual, head]))
                raise StoreCorruptionError(
                    bundle,
                    name,
                    ".npy header is not the canonical one for its shape "
                    f"(byte {at} differs)",
                    expected=head.decode("latin1"),
                    actual=actual.decode("latin1"),
                )
            pages = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise StoreCorruptionError(bundle, name, "array file missing") from None
    except OSError as exc:
        # A file the manifest lists but this process cannot read is
        # corruption of this bundle, not a failure of the whole caller.
        raise StoreCorruptionError(
            bundle, name, f"unreadable .npy file: {type(exc).__name__}: {exc}"
        ) from None
    count = math.prod(meta["shape"])
    arr = np.frombuffer(pages, NPY_DTYPE, count, len(head))
    arr = arr.reshape(meta["shape"])
    if mapped is None:
        arr = arr.copy()
        pages.close()
    else:
        mapped.append(pages)
    return arr


def verify_bundle(bundle: str, *, deep: bool = False) -> dict:
    """Check a bundle's integrity; raise :class:`StoreCorruptionError`.

    ``fast`` mode (the default) validates the header, then every
    array's presence, recorded byte size, and byte-exact ``.npy``
    header -- metadata only, no array data is read.  ``deep`` mode
    additionally recomputes each file's CRC32 against the manifest
    digest, catching size-preserving damage (bit flips) with certainty;
    a manifest entry without a digest is itself corruption.

    Returns a JSON-ready report::

        {"path", "version", "mode", "n",
         "arrays": {name: {"bytes", "crc32"?}}, "ok": True}

    On the first failure a :class:`StoreCorruptionError` (or
    :class:`StoreFormatError` for header-level trouble) is raised
    instead of a report.
    """
    header = read_header(bundle)
    manifest = header["arrays"]
    report = {
        "path": os.path.abspath(bundle),
        "version": header["version"],
        "mode": "deep" if deep else "fast",
        "n": header["n"],
        "arrays": {},
        "ok": True,
    }
    for name in sorted(manifest):
        meta = manifest[name]
        load_array(bundle, name, manifest, [])  # checks; the map dies here
        entry = {"bytes": meta["bytes"]}
        if deep:
            if "crc32" not in meta:
                raise StoreCorruptionError(
                    bundle, name, "manifest records no crc32 digest"
                )
            actual = file_crc32(array_path(bundle, name))
            if actual != meta["crc32"]:
                raise StoreCorruptionError(
                    bundle,
                    name,
                    "checksum mismatch",
                    expected=meta["crc32"],
                    actual=actual,
                )
            entry["crc32"] = actual
        report["arrays"][name] = entry
    return report


def is_bundle(path: str) -> bool:
    """Cheap test: does ``path`` look like a document bundle?"""
    return os.path.isfile(os.path.join(path, HEADER_FILE))


def bundle_names(root: str) -> List[str]:
    """Sorted names of the bundles directly under a corpus directory.

    Hidden entries (``.``-prefixed) are never bundles: that namespace
    is reserved for :func:`write_bundle` staging/retire debris, so a
    crashed build can never surface in a corpus listing.
    """
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if not name.startswith(".") and is_bundle(os.path.join(root, name))
    )
