"""The store's own ``.npy`` codec (``repro.store.format.npy_header``).

A bundle array file is ``npy_header(shape)`` followed by the data, byte
for byte what ``np.save`` writes, and a reader accepts nothing else:
every header it maps is compared with the codec's bytes, never parsed.
"""

import hashlib
import io
import json
import mmap
import os

import numpy as np
import pytest

from repro.cli import main
from repro.engine.api import Engine
from repro.serve import DaemonThread, QueryDaemon, ServeClient
from repro.store import (
    DocumentStore,
    StoreCorruptionError,
    open_document,
    save_document,
    verify_document,
)
from repro.store.format import (
    ARRAYS,
    HEADER_FILE,
    array_path,
    file_crc32,
    npy_header,
)

XML = "<r><a><b/></a><a/><c><a/></c></r>"

#: A fixed document, and what the writer of format version 5 writes for
#: it: a 16-hex sha256 prefix per file and the manifest entry.  The
#: codec must reproduce both exactly.  Version 5's files are version 4's
#: less the three fcns links; version 4's arrays hold the values of
#: version 3's, which ``np.save`` wrote as ``<i8``, at ``<i4``.
GOLDEN_XML = "<r>" + "".join(
    f"<s{i % 5}><a><b/></a><c/></s{i % 5}>" for i in range(300)
) + "</r>"
GOLDEN = {
    "label_bounds": ("9b3fd3ae1e943304", 168, "8d356bfe", [10]),
    "label_ids": ("8f87cf3ca3982546", 4932, "4bd98bf3", [1201]),
    "label_of": ("7d0e97fb61212461", 4932, "a0eb969a", [1201]),
    "parent": ("0cb76904e6ecac40", 4932, "fd9776f1", [1201]),
    "xml_end": ("545dee5e01db883d", 4932, "eeb56511", [1201]),
}

SHAPES = (
    [(), (0,), (1,), (7,), (2**31,), (2**40,), (2**63 - 1,), (0, 5), (3, 4)]
    + [(10**k,) for k in range(19)]
    + [(1,) * k for k in range(2, 70)]  # every residue of the padding
)


def numpy_header(shape):
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": "<i4", "fortran_order": False, "shape": shape}
    )
    return out.getvalue()


def manifest(bundle):
    with open(os.path.join(bundle, HEADER_FILE)) as handle:
        return json.load(handle)["arrays"]


def rewrite_header(bundle, edit):
    path = os.path.join(bundle, HEADER_FILE)
    with open(path) as handle:
        header = json.load(handle)
    edit(header)
    with open(path, "w") as handle:
        json.dump(header, handle)


def rewrite_manifest(bundle, edit):
    rewrite_header(bundle, lambda header: edit(header["arrays"]))


@pytest.fixture()
def bundle(tmp_path):
    return save_document(XML, str(tmp_path / "doc"))


class TestGolden:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_codec_is_numpys_header(self, shape):
        assert npy_header(shape) == numpy_header(shape)
        assert len(npy_header(shape)) % 64 == 0

    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_codec_is_what_np_save_writes(self, n):
        out = io.BytesIO()
        np.save(out, np.arange(n, dtype=np.int32))
        head = npy_header([n])
        assert out.getvalue() == head + np.arange(n, dtype="<i4").tobytes()

    def test_bundle_matches_the_np_save_writer(self, tmp_path):
        bundle = save_document(GOLDEN_XML, str(tmp_path / "doc"))
        entries = manifest(bundle)
        for name, (digest, size, crc, shape) in GOLDEN.items():
            with open(array_path(bundle, name), "rb") as handle:
                data = handle.read()
            assert hashlib.sha256(data).hexdigest()[:16] == digest, name
            assert entries[name] == {
                "bytes": size, "crc32": crc, "dtype": "int32", "shape": shape
            }
            assert file_crc32(array_path(bundle, name)) == crc

    def test_np_save_bundle_opens_and_np_load_reads_ours(self, tmp_path):
        """Both directions between the codec and numpy's own reader and
        writer: numpy loads every file the store writes, and a bundle
        whose files numpy rewrote is unchanged and opens."""
        bundle = save_document(GOLDEN_XML, str(tmp_path / "doc"))
        before = {}
        with open_document(bundle) as stored:
            expected = Engine(stored).select("//s3//b")
            for name in ARRAYS:
                path = array_path(bundle, name)
                with open(path, "rb") as handle:
                    before[name] = handle.read()
                loaded = np.load(path, mmap_mode="r")
                assert loaded.dtype == np.int32
                assert list(loaded.shape) == manifest(bundle)[name]["shape"]
                del loaded
        for name in ARRAYS:
            path = array_path(bundle, name)
            np.save(path, np.load(path))
            with open(path, "rb") as handle:
                assert handle.read() == before[name], name
        assert verify_document(bundle, deep=True)["ok"] is True
        with open_document(bundle) as stored:
            assert Engine(stored).select("//s3//b") == expected


class TestHeaderDamage:
    def test_every_header_bit_flip_is_refused(self, bundle):
        """2,048 single-bit flips: each of the 8 bits of each of the 128
        header bytes of two arrays.  ``np.load`` took a flip of the
        header-length byte as a shorter header and answered wrongly;
        the byte-exact check refuses every one by array."""
        with open_document(bundle) as stored:
            assert Engine(stored).count("//a") == 3
        for name in ("label_of", "label_bounds"):
            path = array_path(bundle, name)
            with open(path, "rb") as handle:
                pristine = handle.read()
            shape = manifest(bundle)[name]["shape"]
            assert pristine[:128] == npy_header(shape)
            for offset in range(128):
                for bit in range(8):
                    damaged = bytearray(pristine)
                    damaged[offset] ^= 1 << bit
                    with open(path, "wb") as handle:
                        handle.write(damaged)
                    for check in (open_document, verify_document):
                        with pytest.raises(StoreCorruptionError) as exc:
                            check(bundle)
                        assert exc.value.array == name, (offset, bit)
            with open(path, "wb") as handle:
                handle.write(pristine)
        assert verify_document(bundle, deep=True)["ok"] is True

    @pytest.mark.parametrize(
        "text",
        [
            # The same dict with its keys reordered, at the same length.
            "{'shape': (6,), 'fortran_order': False, 'descr': '<i4', }",
            # The same dict with one space moved into the padding.
            "{'descr':'<i4', 'fortran_order': False, 'shape': (6,), } ",
        ],
    )
    def test_a_header_numpy_accepts_is_still_refused(self, bundle, text):
        path = array_path(bundle, "label_of")
        body = b"{'descr': '<i4', 'fortran_order': False, 'shape': (6,), }"
        assert len(text) == len(body) and body in npy_header([6])
        with open(path, "rb") as handle:
            data = handle.read()
        damaged = data.replace(body, text.encode(), 1)
        assert damaged != data
        with open(path, "wb") as handle:
            handle.write(damaged)
        # numpy parses it as the same array ...
        assert np.load(path).tolist() == np.load(io.BytesIO(data)).tolist()
        for check in (open_document, verify_document):
            with pytest.raises(StoreCorruptionError) as exc:
                check(bundle)
            assert exc.value.array == "label_of"
            assert json.dumps(exc.value.to_dict())  # JSON-safe detail

MALFORMED = {
    "no shape": lambda entry: entry.pop("shape"),
    "no bytes": lambda entry: entry.pop("bytes"),
    "dtype not a str": lambda entry: entry.update(dtype=8),
    "dtype not int32": lambda entry: entry.update(dtype="int64"),
    "shape not a list": lambda entry: entry.update(shape="7"),
    "negative dim": lambda entry: entry.update(shape=[-1]),
    "bool dim": lambda entry: entry.update(shape=[True]),
    "bytes not an int": lambda entry: entry.update(bytes="176"),
    "bytes not its shape's": lambda entry: entry.update(shape=[5]),
}


class TestMalformedManifest:
    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_entry_is_refused_by_name(self, bundle, damage):
        rewrite_manifest(
            bundle, lambda arrays: MALFORMED[damage](arrays["xml_end"])
        )
        for check in (open_document, verify_document):
            with pytest.raises(StoreCorruptionError) as exc:
                check(bundle)
            assert exc.value.array == "xml_end"
            assert exc.value.reason.startswith("malformed manifest entry")

    def test_entry_that_is_not_a_dict(self, bundle):
        rewrite_manifest(bundle, lambda arrays: arrays.update(parent=[1, 2]))
        for check in (open_document, verify_document):
            with pytest.raises(StoreCorruptionError) as exc:
                check(bundle)
            assert exc.value.array == "parent"

    def test_corpus_verify_reports_it(self, tmp_path):
        store = DocumentStore(str(tmp_path))
        store.save("good", XML)
        store.save("bad", XML)
        rewrite_manifest(
            store.path_for("bad"), lambda arrays: arrays["xml_end"].pop("shape")
        )
        reports = store.verify()
        assert reports["good"]["ok"] is True
        assert reports["bad"]["ok"] is False
        assert reports["bad"]["error"]["array"] == "xml_end"



#: Damage to the top-level keys a reader builds the tree from (``XML``
#: has six nodes and four labels), and to those ``store ls`` prints.
BAD_KEYS = {
    "n missing": lambda header: header.pop("n"),
    "n a string": lambda header: header.update(n="6"),
    "n a bool": lambda header: header.update(n=True),
    "n not label_of's length": lambda header: header.update(n=7),
    "labels missing": lambda header: header.pop("labels"),
    "labels null": lambda header: header.update(labels=None),
    "labels a string": lambda header: header.update(labels="racb"),
    "labels not strings": lambda header: header.update(labels=[0, 1, 2, 3]),
    "labels one short": lambda header: header["labels"].pop(),
    "created missing": lambda header: header.pop("created"),
    "created a number": lambda header: header.update(created=0),
    "encoded_attributes missing": lambda header: header.pop(
        "encoded_attributes"
    ),
    "encoded_text a string": lambda header: header.update(encoded_text="no"),
    "stats a list": lambda header: header.update(stats=[]),
}


class TestMalformedHeader:
    """``header.json``'s ``n`` and ``labels`` are checked where the rest
    of the header is (``read_header``): a bad one is a corrupt bundle,
    never a bare ``KeyError`` or ``TypeError`` out of a reader."""

    @pytest.mark.parametrize("damage", sorted(BAD_KEYS))
    def test_is_refused(self, bundle, damage):
        rewrite_header(bundle, BAD_KEYS[damage])
        key = damage.split()[0]
        for check in (open_document, verify_document):
            with pytest.raises(StoreCorruptionError) as exc:
                check(bundle)
            assert f"{key!r}" in exc.value.reason, damage

    def test_the_rest_of_the_corpus_serves(self, tmp_path, capsys):
        """One bundle without ``n``: fast verify names it, ``store ls``
        warns and lists the others, and the daemon mounts the others."""
        store = DocumentStore(str(tmp_path))
        store.save("good", XML)
        store.save("bad", XML)
        rewrite_header(store.path_for("bad"), lambda header: header.pop("n"))
        reports = store.verify()
        assert reports["good"]["ok"] is True and reports["bad"]["ok"] is False
        assert "'n'" in reports["bad"]["error"]["reason"]
        out = io.StringIO()
        assert main(["store", "ls", str(tmp_path)], out=out) == 0
        assert [entry["name"] for entry in json.loads(out.getvalue())] == [
            "good"
        ]
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: skipping") and "bad" in warning
        with DaemonThread(QueryDaemon(str(tmp_path))) as handle:
            with ServeClient(port=handle.port) as client:
                health = client.healthz()
                assert health["documents"] == ["good"]
                assert list(health["skipped"]) == ["bad"]
                assert client.query("//a", count=True)["count"] == 3
                assert client.reload()["skipped"].keys() == {"bad"}

    @pytest.mark.parametrize("damage", ["created missing", "created a number"])
    def test_store_ls_warns_once_and_lists_the_rest(
        self, tmp_path, capsys, damage
    ):
        store = DocumentStore(str(tmp_path))
        store.save("good", XML)
        store.save("bad", XML)
        rewrite_header(store.path_for("bad"), BAD_KEYS[damage])
        out = io.StringIO()
        assert main(["store", "ls", str(tmp_path)], out=out) == 0
        assert [entry["name"] for entry in json.loads(out.getvalue())] == [
            "good"
        ]
        (warning,) = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: skipping")
        assert "'created'" in warning
        assert main(["store", "verify", str(tmp_path)], out=io.StringIO()) == 1


class TestUnreadableFile:
    """An array file the process cannot read is that bundle's
    corruption: an ``OSError`` from any step of the open never escapes
    to the caller, so one such file cannot stop a corpus verify."""

    @pytest.mark.parametrize("step", ["open", "fstat", "pread", "mmap"])
    def test_corpus_verify_reports_it(self, tmp_path, monkeypatch, step):
        store = DocumentStore(str(tmp_path))
        store.save("bad", XML)
        store.save("good", XML)
        target = array_path(store.path_for("bad"), "xml_end")
        fds = set()

        def failing(real, hit):
            def call(first, *args, **kwargs):
                if hit(first):
                    raise PermissionError(13, "Permission denied")
                return real(first, *args, **kwargs)
            return call

        def tracked_open(path, *args, **kwargs):
            fd = real_open(path, *args, **kwargs)
            if path == target:
                fds.add(fd)
            return fd

        def hit_fd(fd):
            # Once: the descriptor is closed after the failure, and a
            # later file may reuse its number.
            if fd in fds:
                fds.discard(fd)
                return True
            return False

        real_open = os.open
        monkeypatch.setattr(os, "open", tracked_open)
        if step == "open":
            monkeypatch.setattr(
                os, "open", failing(real_open, lambda path: path == target)
            )
        elif step == "mmap":
            monkeypatch.setattr(mmap, "mmap", failing(mmap.mmap, hit_fd))
        else:
            monkeypatch.setattr(os, step, failing(getattr(os, step), hit_fd))

        reports = store.verify()
        assert reports["good"]["ok"] is True
        assert reports["bad"]["ok"] is False
        assert reports["bad"]["error"]["array"] == "xml_end"
        assert reports["bad"]["error"]["reason"].startswith(
            "unreadable .npy file: PermissionError"
        )
        with pytest.raises(StoreCorruptionError) as exc:
            open_document(store.path_for("bad"))
        assert exc.value.array == "xml_end"
