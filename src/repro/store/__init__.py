"""Persistent document store: compiled-array bundles, reopened zero-copy.

The SXSI-style evaluation model assumes documents *are* index
structures.  This package makes that lifetime explicit: parse once
(:func:`save_document`), then every subsequent open
(:func:`open_document`) memory-maps the compiled arrays instead of
re-parsing XML.  See :mod:`repro.store.format` for the on-disk layout
and versioning/invalidation rules, and DESIGN.md ("Ingestion and the
document store") for how the pieces compose.
"""

from repro.store.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    SourceEncodingError,
    StoreCorruptionError,
    StoreError,
    StoreFormatError,
    bundle_names,
    is_bundle,
    read_header,
    verify_bundle,
)
from repro.store.manifest import (
    MANIFEST_FILE,
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    RETIRED_PREFIX,
    CorpusManifest,
    bytes_fingerprint,
    corpus_stamp,
    file_fingerprint,
    plan_sync,
    read_manifest,
    text_fingerprint,
    write_manifest,
)
from repro.store.store import (
    DocumentStore,
    StoredDocument,
    bundle_identity,
    live_readers,
    open_document,
    save_document,
    verify_document,
)

__all__ = [
    "DocumentStore",
    "StoredDocument",
    "bundle_identity",
    "live_readers",
    "open_document",
    "save_document",
    "verify_document",
    "CorpusManifest",
    "read_manifest",
    "write_manifest",
    "plan_sync",
    "corpus_stamp",
    "bytes_fingerprint",
    "file_fingerprint",
    "text_fingerprint",
    "MANIFEST_FILE",
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "RETIRED_PREFIX",
    "verify_bundle",
    "read_header",
    "bundle_names",
    "is_bundle",
    "StoreError",
    "SourceEncodingError",
    "StoreFormatError",
    "StoreCorruptionError",
    "FORMAT_NAME",
    "FORMAT_VERSION",
]
