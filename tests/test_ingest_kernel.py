"""The ingest kernel (regex tokenizer + slim array builder) against things
that do not share its code: bundle digests pinned before it existed, the
stdlib's expat, and a clock."""

import io
import os
import subprocess
import sys
import time
import zlib
from xml.parsers import expat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import (
    DocumentStore,
    SourceEncodingError,
    open_document,
    save_document,
)
from repro.tree import parser
from repro.tree.binary import BinaryTree
from repro.tree.builder import LateTextChild, TreeBuilder, build_tree
from repro.tree.parser import XMLSyntaxError, parse_events, parse_xml
from repro.xmark.generator import XMarkGenerator

# -- (a) golden digests ------------------------------------------------------
#
# CRC32 of every array file of the bundle of each document, written by
# commit 6e122fb (the character-at-a-time scanner and the frame-list
# builder, both since deleted) as ``np.save`` of ``<i8`` arrays.  The new
# pipeline must stay byte-identical: its ``<i4`` arrays (format v5), and
# the ``left`` / ``right`` mirrors the reopened tree derives in place of
# v4's link files, widened and written that way again,
# must give the same digests.


def mixed_document() -> str:
    """Attributes in both quote styles, entities, CDATA, comments, PIs, a
    DOCTYPE, prefixed names, and the late-text shape that cannot stream."""
    parts = [
        '<?xml version="1.0"?>\n<!DOCTYPE lib [<!ELEMENT lib ANY>]>\n'
        '<!-- head -->\n<lib xmlns:x="urn:x">'
    ]
    for i in range(300):
        parts.append(
            f'\n  <x:book id="b{i}" lang=\'en&amp;{i % 7}\''
            ' note="a &lt; b > c">'
            f"<title>T&#{65 + i % 26};<![CDATA[ <raw {i}> ]]></title>"
            f"<!-- c{i} --><?pi {i}?>"
            + ("  <empty/>late &amp; mixed" if i % 11 == 0 else "")
            + "".join(f"<p n='{j}'>w{j}<b/>tail</p>" for j in range(i % 4))
            + "</x:book>"
        )
    parts.append("\n</lib>\n<!-- tail -->\n")
    return "".join(parts)


ENCODED = {"encode_attributes": True, "encode_text": True}
GOLDEN = {
    ("xmark", False): {
        "label_bounds": "428a60b1",
        "label_ids": "8bdfc9b6", "label_of": "f07eb013",
        "left": "9d16c893", "parent": "3a3b9689",
        "right": "8f00e516", "xml_end": "6cf9be1b",
    },
    ("xmark", True): {
        "label_bounds": "07b85b93",
        "label_ids": "dcf3c87f", "label_of": "09201c35",
        "left": "adf37500", "parent": "ac84c890",
        "right": "ddbeaee0", "xml_end": "87972739",
    },
}
GOLDEN_MIXED = {
    False: {
        "label_bounds": "872c00d5",
        "label_ids": "f4986d14", "label_of": "1a1d35af",
        "left": "b7f87c4c", "parent": "dd0d23ee",
        "right": "28b02ebd", "xml_end": "feeae149",
    },
    True: {
        "label_bounds": "00e39623",
        "label_ids": "ff5903c8", "label_of": "4a82fdd0",
        "left": "feb70081", "parent": "da025f92",
        "right": "2718f6ca", "xml_end": "f3d825e8",
    },
}


def bundle_digests(xml: str, path: str, **encode) -> dict:
    save_document(xml, path, **encode)
    arrays = {
        name[:-4]: np.load(os.path.join(path, name))
        for name in os.listdir(path)
        if name.endswith(".npy")
    }
    with open_document(path) as stored:
        for name in ("left", "right"):
            arrays[name] = np.array(getattr(stored.tree, name))
    digests = {}
    for name, array in arrays.items():
        wide = io.BytesIO()
        np.save(wide, array.astype("<i8"))
        crc = zlib.crc32(wide.getvalue())
        digests[name] = f"{crc & 0xFFFFFFFF:08x}"
    return digests


class TestGoldenBundles:
    @pytest.mark.parametrize("encoded", [False, True])
    def test_xmark_bundle_is_byte_identical(self, tmp_path, encoded):
        xml = XMarkGenerator(scale=0.5, seed=42, text_content=True).xml()
        got = bundle_digests(
            xml, str(tmp_path / "b"), **(ENCODED if encoded else {})
        )
        assert got == GOLDEN["xmark", encoded]

    @pytest.mark.parametrize("encoded", [False, True])
    def test_mixed_bundle_is_byte_identical(self, tmp_path, encoded):
        got = bundle_digests(
            mixed_document(),
            str(tmp_path / "b"),
            **(ENCODED if encoded else {}),
        )
        assert got == GOLDEN_MIXED[encoded]


# -- (b) independent event oracle: expat --------------------------------------

ELEMENT_NAMES = ("a", "b", "item", "p:item", "x:y.z", "_u-1")
ATTRIBUTE_NAMES = ("id", "x", "xmlns:p", "p:k", "data-v", "_")
ENTITIES = ("&lt;", "&gt;", "&amp;", "&apos;", "&quot;", "&#65;", "&#x42;",
            "&#10;", "&#x20AC;")
# No "<" "&" (markup), "]" "-" "?" (section terminators), "\r" (expat
# normalises line ends; this parser, like the one before it, does not).
TEXT = "ab Z9>\"'\n\t.;#=/\u00e9\u20ac"
SPACE = st.sampled_from(["", " ", "\n ", "\t"])


def runs(alphabet, max_size=6):
    return st.text(alphabet=alphabet, max_size=max_size)


@st.composite
def attribute(draw, name):
    quote = draw(st.sampled_from("\"'"))
    # Literal tabs and newlines in a value are normalised to spaces by a
    # conforming parser; only the character reference survives as written.
    plain = runs(TEXT.replace(quote, "").replace("\n", "").replace("\t", ""))
    pieces = draw(
        st.lists(st.one_of(plain, st.sampled_from(ENTITIES)), max_size=4)
    )
    eq = draw(SPACE) + "=" + draw(SPACE)
    return f"{name}{eq}{quote}{''.join(pieces)}{quote}"


@st.composite
def element(draw, depth=0):
    name = draw(st.sampled_from(ELEMENT_NAMES))
    names = draw(
        st.lists(st.sampled_from(ATTRIBUTE_NAMES), unique=True, max_size=4)
    )
    tag = name + "".join(
        draw(st.sampled_from([" ", "\n", "  "])) + draw(attribute(attr))
        for attr in names
    ) + draw(SPACE)
    if draw(st.booleans()):
        return f"<{tag}/>"
    content = draw(st.lists(node(depth + 1), max_size=4 if depth < 3 else 0))
    return f"<{tag}>{''.join(content)}</{name}{draw(SPACE)}>"


def node(depth):
    return st.one_of(
        runs(TEXT, 8),
        st.sampled_from(ENTITIES),
        runs(TEXT + "<&", 8).map(lambda body: f"<![CDATA[{body}]]>"),
        runs(TEXT + "<&?", 8).map(lambda body: f"<!--{body}-->"),
        runs(TEXT + "<&-", 8).map(lambda body: f"<?pi {body}?>"),
        st.deferred(lambda: element(depth)),
    )


@st.composite
def documents(draw):
    misc = st.lists(
        st.sampled_from(["<!-- c -->", "<?pi d?>", "\n", " "]), max_size=3
    ).map("".join)
    prolog = draw(st.sampled_from(["", '<?xml version="1.0"?>']))
    doctype = draw(st.sampled_from(["", "<!DOCTYPE a [<!ELEMENT a ANY>]>"]))
    body = doctype + draw(misc) + draw(element()) + draw(misc)
    return prolog + draw(misc) + body


class Recorder:
    """Start / characters / end as tuples, adjacent character data joined
    (expat may hand one run over in pieces)."""

    def __init__(self):
        self.events = []

    def start_element(self, name, attrs):
        self.events.append(("start", name, dict(attrs or {})))

    def characters(self, data):
        if self.events[-1][0] == "chars":
            self.events[-1] = ("chars", self.events[-1][1] + data)
        elif data:
            self.events.append(("chars", data))

    def end_element(self, name):
        self.events.append(("end", name))


def expat_events(text):
    recorder = Recorder()
    parser = expat.ParserCreate()
    parser.StartElementHandler = recorder.start_element
    parser.CharacterDataHandler = recorder.characters
    parser.EndElementHandler = recorder.end_element
    parser.Parse(text, True)
    return recorder.events


class TestExpatOracle:
    @settings(max_examples=300, deadline=None)
    @given(documents())
    def test_same_event_stream_as_expat(self, text):
        recorder = Recorder()
        parse_events(text, recorder)
        assert recorder.events == expat_events(text)

    def test_one_document_with_every_construct(self):
        text = (
            '<?xml version="1.0"?><!-- c --><!DOCTYPE a [<!ELEMENT a ANY>]>\n'
            "<p:item xmlns:p = 'u\"&lt;>' id=\"&#10;'\">t&amp;<![CDATA[<&]]>"
            "<!--<&?--><?pi <&-?><b/>tail</p:item >\n<?pi d?>"
        )
        recorder = Recorder()
        parse_events(text, recorder)
        assert recorder.events == expat_events(text) == [
            ("start", "p:item", {"xmlns:p": 'u"<>', "id": "\n'"}),
            ("chars", "t&<&"),
            ("start", "b", {}),
            ("end", "b"),
            ("chars", "tail"),
            ("end", "p:item"),
        ]


# -- (c) hostile inputs: an error or a parse, in linear time -----------------
#
# Each input is timed at a quarter of its size and at its size (doubled
# twice): linear work gives 4x, quadratic 16x.  The bound sits between, so
# a pattern that backtracks, or a finditer that searches ahead, cannot land.

def _attributes(n):
    return "<a " + " ".join(f'k{i}="v"' for i in range(n))


# name -> (size, well formed?, size -> text)
HOSTILE = {
    "attributes": (100_000, True, lambda n: _attributes(n) + "/>"),
    "attributes, tag never closed": (100_000, False, _attributes),
    "attribute value": (1 << 20, True, lambda n: '<a x="' + "v" * n + '"/>'),
    "attribute value, unterminated": (
        1 << 20, False, lambda n: '<a x="' + "v" * n
    ),
    "space in a tag": (1 << 20, True, lambda n: "<a" + " " * n + "/>"),
    "space in a tag, unterminated": (1 << 20, False, lambda n: "<a" + " " * n),
    "comment": (1 << 20, True, lambda n: "<a><!--" + "c" * n + "--></a>"),
    "comment, unterminated": (1 << 20, False, lambda n: "<a><!--" + "c" * n),
    "CDATA": (1 << 20, True, lambda n: "<a><![CDATA[" + "c" * n + "]]></a>"),
    "CDATA, unterminated": (
        1 << 20, False, lambda n: "<a><![CDATA[" + "c" * n
    ),
    "text, element never closed": (1 << 20, False, lambda n: "<a>" + "t" * n),
    "entities": (100_000, True, lambda n: "<a>" + "&amp;" * n + "</a>"),
    "nesting": (100_000, True, lambda n: "<d>" * n + "</d>" * n),
    "nesting, never closed": (100_000, False, lambda n: "<d>" * n),
    "siblings": (100_000, True, lambda n: "<r>" + "<s/>" * n + "</r>"),
    # The bulk scan classifies each *distinct* piece once and settles a
    # section whose body holds a "<" per occurrence: inputs where every
    # piece is distinct, or every section is cut by the split.
    "distinct tag names": (
        100_000, True,
        lambda n: "<r>" + "".join(f"<t{i}/>" for i in range(n)) + "</r>",
    ),
    "distinct attribute values": (
        100_000, True,
        lambda n: "<r>" + "".join(f'<t v="{i}"/>' for i in range(n)) + "</r>",
    ),
    "comments holding markup": (
        100_000, True, lambda n: "<r>" + "<!-- < > -->" * n + "</r>"
    ),
    "CDATA holding a tag": (
        100_000, True, lambda n: "<r>" + "<![CDATA[<a>]]>" * n + "</r>"
    ),
    "text holding >": (1 << 20, True, lambda n: "<r>" + ">" * n + "</r>"),
    "text runs with an entity": (
        100_000, True,
        lambda n: "<r>" + "".join(f"<t/>x{i}&amp;" for i in range(n)) + "</r>",
    ),
}


def seconds_to_settle(*texts):
    """Best of five per text, the texts timed in turn so that a change
    in host load falls on each alike: parse or reject each;
    ``[(seconds, parsed?), ...]``."""
    best, parsed = [float("inf")] * len(texts), [True] * len(texts)
    for _ in range(5):
        for i, text in enumerate(texts):
            start = time.perf_counter()
            try:
                BinaryTree.from_xml(text)
            except XMLSyntaxError:
                parsed[i] = False
            best[i] = min(best[i], time.perf_counter() - start)
    return list(zip(best, parsed))


class TestHostileInputs:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_linear_time(self, case):
        size, well_formed, make = HOSTILE[case]
        (small, parsed_small), (large, parsed_large) = seconds_to_settle(
            make(size // 4), make(size)
        )
        assert parsed_small == parsed_large == well_formed
        # Below a millisecond the clock and the interpreter, not the
        # input, set the time; quadratic work at these sizes takes minutes.
        assert large <= 9 * max(small, 1e-3), (case, small, large)


# -- satellites: BOM, duplicate attributes, sync errors -----------------------


class TestByteOrderMark:
    def test_sync_accepts_a_utf8_file_with_a_bom(self, tmp_path):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "doc.xml").write_bytes(
            b"\xef\xbb\xbf<?xml version='1.0'?><r><a/></r>"
        )
        store = DocumentStore(str(tmp_path / "corpus"))
        assert store.sync(str(src))["added"] == ["doc"]
        with store.open("doc") as stored:
            assert stored.n == 2 and stored.labels == ["r", "a"]

    def test_offsets_stay_relative_to_the_original_text(self):
        text = "\ufeff<a></b>"
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse_xml(text)
        assert excinfo.value.position == len("\ufeff<a></b")

    def test_only_one_leading_mark_is_skipped(self):
        for text in ("\ufeff\ufeff<a/>", "<a/>\ufeff", "<a>\ufeff</a>"):
            if text.startswith("<a>"):
                assert parse_xml(text).root.text == "\ufeff"
            else:
                with pytest.raises(XMLSyntaxError):
                    parse_xml(text)


class TestDuplicateAttributes:
    @pytest.mark.parametrize("encode_attributes", [False, True])
    @pytest.mark.parametrize(
        "text",
        ['<a x="1" x="2"/>', "<r><a y='0' x='1' z=\"\"\n x='1'>t</a></r>"],
    )
    def test_rejected_at_the_second_name(self, text, encode_attributes):
        with pytest.raises(XMLSyntaxError, match="duplicate") as excinfo:
            BinaryTree.from_xml(text, encode_attributes=encode_attributes)
        assert "'x'" in str(excinfo.value)
        assert excinfo.value.position == text.rindex("x=")


class TestSyncErrorsNameTheFile:
    def sources(self, tmp_path, bad: bytes):
        src = tmp_path / "xml"
        src.mkdir()
        (src / "a.xml").write_bytes(b"<r><a/></r>")
        (src / "b.xml").write_bytes(bad)
        (src / "c.xml").write_bytes(b"<r/>")
        return str(src), str(src / "b.xml")

    def assert_a_survived(self, store):
        assert store.names() == ["a"] and store.generation() == 1
        with store.open("a") as stored:
            assert stored.n == 2
        assert store.verify("a", deep=True)["ok"]

    def test_malformed_source(self, tmp_path):
        src, bad = self.sources(tmp_path, b"<r><a></r>")
        store = DocumentStore(str(tmp_path / "corpus"))
        with pytest.raises(XMLSyntaxError) as excinfo:
            store.sync(src)
        assert bad in str(excinfo.value)
        assert "mismatched end tag" in str(excinfo.value)
        assert excinfo.value.position == len("<r><a></r")
        self.assert_a_survived(store)

    def test_source_that_is_not_utf8(self, tmp_path):
        src, bad = self.sources(tmp_path, b"<r>caf\xe9</r>")
        store = DocumentStore(str(tmp_path / "corpus"))
        with pytest.raises(SourceEncodingError) as excinfo:
            store.sync(src)
        assert not isinstance(excinfo.value, UnicodeDecodeError)
        assert excinfo.value.path == bad and excinfo.value.offset == 6
        assert bad in str(excinfo.value)
        self.assert_a_survived(store)
        # Repairing the file lets the same sync finish the job.
        with open(bad, "wb") as handle:
            handle.write("<r>caf\u00e9</r>".encode("utf-8"))
        assert store.sync(src)["added"] == ["b", "c"]


# -- the bulk scan: slices, error order, memory, and no per-element Python ----

FLAGS = [
    {"encode_attributes": a, "encode_text": t}
    for a in (False, True)
    for t in (False, True)
]


def columns(tree):
    return tree.labels, {k: v.tolist() for k, v in tree._columns.items()}


def replayed_tree(text, **flags):
    """The tree ``TreeBuilder`` makes of the replayed events: the
    per-event reference for the arrays of the bulk scan."""
    builder = TreeBuilder(**flags)
    try:
        parse_events(text, builder)
    except LateTextChild:
        return BinaryTree.from_document(parse_xml(text), **flags)
    return builder.finish()


class TestBulkScanAgainstReplayedEvents:
    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_same_arrays_under_every_encoding(self, text):
        for flags in FLAGS:
            tree = build_tree(text, **flags)
            assert columns(tree) == columns(replayed_tree(text, **flags))

    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    def test_a_slice_may_end_at_any_markup(self, size, monkeypatch, tmp_path):
        whole = [columns(build_tree(mixed_document(), **f)) for f in FLAGS]
        recorder = Recorder()
        parse_events(mixed_document(), recorder)
        monkeypatch.setattr(parser, "_SLICE", size)
        for flags, expected in zip(FLAGS, whole):
            assert columns(build_tree(mixed_document(), **flags)) == expected
        sliced = Recorder()
        parse_events(mixed_document(), sliced)
        assert sliced.events == recorder.events
        for encoded in (False, True):
            got = bundle_digests(
                mixed_document(),
                str(tmp_path / f"b{encoded}"),
                **(ENCODED if encoded else {}),
            )
            assert got == GOLDEN_MIXED[encoded]

    @settings(max_examples=60, deadline=None)
    @given(documents(), st.sampled_from([1, 2, 7, 64]))
    def test_sliced_scan_of_generated_documents(self, text, size):
        whole = columns(BinaryTree.from_xml(text))
        events = Recorder()
        parse_events(text, events)
        old = parser._SLICE
        parser._SLICE = size
        try:
            assert columns(BinaryTree.from_xml(text)) == whole
            sliced = Recorder()
            parse_events(text, sliced)
        finally:
            parser._SLICE = old
        assert sliced.events == events.events

    def test_a_handler_may_keep_and_change_its_attrs(self):
        class Greedy(Recorder):
            def start_element(self, name, attrs):
                super().start_element(name, attrs)
                if attrs:
                    attrs.clear()

        text = "<r>" + "<a x='1' y='2'/>" * 3 + "<a x='1' y='2'>t</a></r>"
        greedy = Greedy()
        parse_events(text, greedy)
        starts = [e for e in greedy.events if e[:2] == ("start", "a")]
        assert starts == [("start", "a", {"x": "1", "y": "2"})] * 4


class TestLessThanInAttributeValue:
    @pytest.mark.parametrize(
        "text",
        [
            '<a x="<"/>',
            "<a x='<'/>",
            '<r><a x="1<2">t</a></r>',
            "<r><a y=\"ok\" x='a<b'/></r>",
        ],
    )
    def test_rejected_at_the_less_than_sign(self, text):
        for parse in (BinaryTree.from_xml, parse_xml):
            with pytest.raises(XMLSyntaxError, match="'<' in an attribute") as e:
                parse(text)
            assert e.value.position == text.index("<", text.index("=")), text
        with pytest.raises(expat.ExpatError):
            expat_events(text)


class TestFirstErrorInDocumentOrderWins:
    CASES = [
        # (text, message, offset of): the earlier of two errors is raised.
        ("<r><a></b><c x=1/></r>", "mismatched end tag </b> for <a>", "</b>"),
        ("<r><c x=1/><a></b></r>", "expected quoted attribute value", "1/>"),
        ("<r><a></b>&nope;</r>", "mismatched end tag", "</b>"),
        ("<r>&nope;<a></b></r>", "unknown entity &nope;", "&nope;"),
        ("<r/>junk&nope;", "content after document element", "junk"),
        ("<r><a></r>&nope;", "mismatched end tag </r> for <a>", "</r>"),
        ("<r><!-- < -->&nope;<a></b></r>", "unknown entity", "&nope;"),
        ("<r><a></b><!-- < --</r>", "mismatched end tag", "</b>"),
        ("<r><a>", "unexpected end of input inside element", None),
    ]

    @pytest.mark.parametrize("size", [1 << 18, 1, 5])
    @pytest.mark.parametrize("text, message, where", CASES)
    def test_message_and_offset(self, text, message, where, size, monkeypatch):
        monkeypatch.setattr(parser, "_SLICE", size)
        offset = len(text) if where is None else text.index(where)
        if message.startswith("mismatched"):
            offset += len(where) - 1  # just past the end tag's name
        for parse in (BinaryTree.from_xml, parse_xml):
            with pytest.raises(XMLSyntaxError, match=message) as excinfo:
                parse(text)
            assert excinfo.value.position == offset, (text, parse)

    def test_an_error_in_the_second_slice(self):
        good = "<r>" + "<a>text</a>" * (parser._SLICE // 8)
        assert len(good) > parser._SLICE + 100
        text = good + "<b></c></r>"
        with pytest.raises(XMLSyntaxError, match="mismatched") as excinfo:
            BinaryTree.from_xml(text)
        assert excinfo.value.position == len(good) + len("<b></c")
        text = good + "<b x=1/></r>"
        with pytest.raises(XMLSyntaxError, match="quoted") as excinfo:
            BinaryTree.from_xml(text)
        assert excinfo.value.position == len(good) + len("<b x=")
        # An earlier slice's structure error beats a later slice's bad tag.
        text = "<r><x></y>" + good[3:] + "<b x=1/></r>"
        with pytest.raises(XMLSyntaxError, match="mismatched") as excinfo:
            BinaryTree.from_xml(text)
        assert excinfo.value.position == len("<r><x></y")

    def test_a_byte_order_mark_and_an_error_past_a_slice(self):
        good = "\ufeff<?xml version='1.0'?><r>" + "<a/>" * (parser._SLICE // 3)
        assert len(good) > parser._SLICE + 100
        text = good + "&nope;</r>"
        with pytest.raises(XMLSyntaxError, match="unknown entity") as excinfo:
            parse_xml(text)
        assert excinfo.value.position == len(good)

    def test_a_section_may_straddle_slices(self, monkeypatch):
        text = "<r><a/><!-- <b> <c> --><![CDATA[<d>&]]>t<?p <e?></r>"
        whole = Recorder()
        parse_events(text, whole)
        assert whole.events == expat_events(text)
        for size in range(1, 30):
            monkeypatch.setattr(parser, "_SLICE", size)
            sliced = Recorder()
            parse_events(text, sliced)
            assert sliced.events == whole.events, size
            assert BinaryTree.from_xml(text).labels == ["r", "a"]


HIGH_WATER = """
import sys
from repro.tree.binary import BinaryTree
def high_water():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM"):
                return int(line.split()[1]) * 1024
with open(sys.argv[1], encoding="utf-8") as handle:
    text = handle.read()
before = high_water()
tree = BinaryTree.from_xml(text)
print(tree.n, high_water() - before)
"""


class TestTheScanIsBulkAndBounded:
    def test_fewer_python_calls_than_a_twentieth_of_the_nodes(self):
        """A count, not a clock: a per-element loop (two calls a node
        before the bulk scan) cannot come back unnoticed."""
        xml = XMarkGenerator(scale=0.5, seed=42, text_content=True).xml()
        BinaryTree.from_xml(xml)  # imports, caches
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        sys.setprofile(count)
        try:
            tree = BinaryTree.from_xml(xml)
        finally:
            sys.setprofile(None)
        assert tree.n > 10_000
        assert calls < 0.05 * tree.n, (calls, tree.n)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
    )
    def test_parse_high_water_mark_per_node(self, tmp_path):
        """The parse's own peak (VmHWM after less before, in a fresh
        process): slices, narrow per-event arrays, nothing kept per piece."""
        source = tmp_path / "xmark8.xml"
        source.write_text(
            XMarkGenerator(scale=8, seed=42, text_content=True).xml(),
            encoding="utf-8",
        )
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", HIGH_WATER, str(source)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        nodes, grown = int(out[0]), int(out[1])
        assert nodes > 200_000
        assert grown < 170 * nodes, grown / nodes
