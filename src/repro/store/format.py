"""On-disk layout of a compiled document bundle.

A *bundle* is a directory holding one versioned JSON header plus one
flat ``.npy`` file per compiled array::

    <bundle>/
      header.json            format, version, label table, manifest
      label_of.npy           int64[n]   interned label per node
      left.npy               int64[n]   first child  (fcns left)
      right.npy              int64[n]   next sibling (fcns right)
      parent.npy             int64[n]   XML parent
      bparent.npy            int64[n]   binary parent
      xml_end.npy            int64[n]   exclusive subtree end
      label_ids.npy          int64[n]   per-label sorted node ids, concatenated
      label_bounds.npy       int64[L+1] label_ids slice boundaries per label

These are exactly the arrays :func:`repro.store.store.open_document`
maps: the six columns are the tree, the last two the label index.
Nothing derived on demand (a postorder rank, a balanced-parentheses
directory, the path summary) is persisted.

Flat ``.npy`` files (rather than one ``.npz``) are deliberate:
``np.load(..., mmap_mode="r")`` only memory-maps plain files, and
zero-copy reopening is the whole point of the store.

Integrity
---------
The header manifest records, per array, not just dtype/shape but the
exact **file byte size** and a **CRC32 digest** of the ``.npy`` file.
:func:`verify_bundle` checks them in two modes: ``fast`` (header parses,
manifest complete, every file present with its recorded byte size and a
parseable ``.npy`` header of the right dtype/shape -- no data read) and
``deep`` (``fast`` plus a full CRC32 pass over every file, catching
bit rot that leaves sizes intact).  Any mismatch raises
:class:`StoreCorruptionError` carrying the bundle path, the array, and
the expected/actual value -- numpy internals never surface.  Digests
are *off the hot path*: :func:`load_array` (the serving path) only adds
an ``os.path.getsize`` check per array.

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
import os
import shutil
import zlib
from typing import Dict, List, Optional

import numpy as np

from repro import faults

FORMAT_NAME = "repro-document-store"
FORMAT_VERSION = 3
HEADER_FILE = "header.json"

#: Every array a bundle must contain, with its expected dtype.
ARRAY_DTYPES: Dict[str, str] = {
    "label_of": "int64",
    "left": "int64",
    "right": "int64",
    "parent": "int64",
    "bparent": "int64",
    "xml_end": "int64",
    "label_ids": "int64",
    "label_bounds": "int64",
}

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


def _fsync_path(path: str) -> None:
    """Best-effort fsync of a file or directory."""
    flags = os.O_RDONLY
    if hasattr(os, "O_DIRECTORY") and os.path.isdir(path):
        flags |= os.O_DIRECTORY
    try:
        fd = os.open(path, flags)
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
    missing = set(ARRAY_DTYPES) - set(arrays)
    extra = set(arrays) - set(ARRAY_DTYPES)
    if missing or extra:
        raise StoreError(
            f"array set mismatch: missing={sorted(missing)}, "
            f"extra={sorted(extra)}"
        )
    bundle = os.path.abspath(bundle)
    staging = _temp_dir_for(bundle)
    try:
        os.makedirs(staging)
        manifest = {}
        for name, arr in arrays.items():
            faults.check("store.write_array", array=name, bundle=bundle)
            arr = np.ascontiguousarray(arr, dtype=ARRAY_DTYPES[name])
            path = array_path(staging, name)
            np.save(path, arr)
            _fsync_path(path)
            manifest[name] = {
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "bytes": os.path.getsize(path),
                "crc32": file_crc32(path),
            }
        header = dict(
            header, format=FORMAT_NAME, version=FORMAT_VERSION, arrays=manifest
        )
        header_path = os.path.join(staging, HEADER_FILE)
        with open(header_path, "w", encoding="utf-8") as handle:
            json.dump(header, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
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
    """Read and validate a bundle's header (format, version, manifest)."""
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
    if not isinstance(manifest, dict):
        raise StoreFormatError(f"{bundle!r}: array manifest mismatch")
    if set(manifest) != set(ARRAY_DTYPES):
        raise StoreFormatError(f"{bundle!r}: array manifest mismatch")
    return header


def load_array(bundle: str, name: str, manifest: dict, mmap: bool) -> np.ndarray:
    """Load one manifest array, checking it against the header.

    Serving-path integrity is deliberately cheap: a byte-size check
    plus the dtype/shape check
    against the parsed ``.npy`` header.  Damage that preserves sizes is
    :func:`verify_bundle`'s ``deep`` job.  Every failure mode --
    missing file, size mismatch, an ``.npy`` numpy refuses to parse --
    surfaces as a structured :class:`StoreCorruptionError`, never a raw
    numpy exception.
    """
    path = array_path(bundle, name)
    meta = manifest[name]
    faults.check("store.load_array", array=name, bundle=bundle, path=path)
    expected_bytes = meta.get("bytes")
    if expected_bytes is not None:
        try:
            actual_bytes = os.path.getsize(path)
        except OSError:
            raise StoreCorruptionError(
                bundle, name, "array file missing"
            ) from None
        if actual_bytes != expected_bytes:
            raise StoreCorruptionError(
                bundle,
                name,
                "file size mismatch (truncated or overwritten)",
                expected=expected_bytes,
                actual=actual_bytes,
            )
    try:
        arr = np.load(path, mmap_mode="r" if mmap else None)
    except FileNotFoundError:
        raise StoreCorruptionError(bundle, name, "array file missing") from None
    except Exception as exc:
        # numpy's .npy header parser leaks SyntaxError/TokenError/... on
        # mangled bytes; a manifest-listed file that fails to load is by
        # definition corruption, whatever the parser tripped on.
        raise StoreCorruptionError(
            bundle, name, f"unreadable .npy file: {type(exc).__name__}: {exc}"
        ) from None
    if str(arr.dtype) != meta["dtype"] or list(arr.shape) != meta["shape"]:
        raise StoreCorruptionError(
            bundle,
            name,
            "dtype/shape mismatch against header",
            expected=f"{meta['dtype']}{meta['shape']}",
            actual=f"{arr.dtype}{list(arr.shape)}",
        )
    return arr


def verify_bundle(bundle: str, *, deep: bool = False) -> dict:
    """Check a bundle's integrity; raise :class:`StoreCorruptionError`.

    ``fast`` mode (the default) validates the header, then every
    array's presence, recorded byte size, and ``.npy`` dtype/shape --
    metadata only, no array data is read.  ``deep`` mode additionally
    recomputes each file's CRC32 against the manifest digest, catching
    size-preserving damage (bit flips) with certainty; a manifest entry
    without a digest is itself corruption.

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
        "n": header.get("n"),
        "arrays": {},
        "ok": True,
    }
    for name in sorted(manifest):
        meta = manifest[name]
        arr = load_array(bundle, name, manifest, True)
        del arr  # header checks only; drop the mapping immediately
        entry = {"bytes": os.path.getsize(array_path(bundle, name))}
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
