"""Streaming array-native builder: equivalence, hot-path purity, events."""

import random
import tracemalloc

import pytest

from repro.index.succinct import SuccinctTree
from repro.tree.binary import BinaryTree
from repro.tree.builder import (
    LateTextChild,
    TreeBuilder,
    XMLNodeBuilder,
    build_tree,
)
from repro.tree.document import XMLNode
from repro.tree.parser import parse_events, parse_xml
from repro.xmark.generator import XMarkGenerator

from strategies import random_document


def _arrays(tree: BinaryTree):
    return (
        list(tree.labels),
        list(tree.label_of),
        list(tree.left),
        list(tree.right),
        list(tree.parent),
        list(tree.xml_end),
    )


HAND_DOCS = [
    "<a/>",
    "<a><b/></a>",
    "<a><b/><c x='1'>hi</c></a>",
    "<a>pre<b/>post</a>",
    "<r>" + "<a><b/></a>" * 40 + "</r>",
    "<a t='1' u='2'>x<b y='3'>z</b> tail</a>",
    "<a>" + "<b>" * 60 + "deep" + "</b>" * 60 + "</a>",
    "<a>  \n\t </a>",
    "<a><![CDATA[ <raw> ]]><b/></a>",
]


class TestBuilderEquivalence:
    @pytest.mark.parametrize("encode_attributes", [False, True])
    @pytest.mark.parametrize("encode_text", [False, True])
    def test_hand_docs_match_from_document(
        self, encode_attributes, encode_text
    ):
        for xml in HAND_DOCS:
            legacy = BinaryTree.from_document(
                parse_xml(xml),
                encode_attributes=encode_attributes,
                encode_text=encode_text,
            )
            streaming = build_tree(
                xml,
                encode_attributes=encode_attributes,
                encode_text=encode_text,
            )
            assert _arrays(legacy) == _arrays(streaming), xml

    def test_fuzz_docs_match_from_document(self):
        rng = random.Random(20260729)
        for _ in range(150):
            xml = random_document(rng, attributes=True, text=True)
            for ea in (False, True):
                for et in (False, True):
                    legacy = BinaryTree.from_document(
                        parse_xml(xml), encode_attributes=ea, encode_text=et
                    )
                    streaming = build_tree(
                        xml, encode_attributes=ea, encode_text=et
                    )
                    assert _arrays(legacy) == _arrays(streaming), (xml, ea, et)

    def test_late_mixed_text_falls_back_identically(self):
        # Leading whitespace-only text, then a child, then real text: the
        # streaming #text placement is undecidable online, so the builder
        # signals and from_xml falls back -- byte-identically.
        xml = "<a>  <b/>late words</a>"
        builder = TreeBuilder(encode_text=True)
        with pytest.raises(LateTextChild):
            parse_events(xml, builder)
        legacy = BinaryTree.from_document(parse_xml(xml), encode_text=True)
        assert _arrays(BinaryTree.from_xml(xml, encode_text=True)) == _arrays(
            legacy
        )


class TestHotPathPurity:
    def test_from_xml_allocates_no_xmlnode(self, monkeypatch):
        """Acceptance: the streaming path never materializes an XMLNode."""
        created = []
        original = XMLNode.__init__

        def counting(self, *args, **kwargs):
            created.append(type(self).__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(XMLNode, "__init__", counting)
        xml = "<r>" + "<a x='1'>t<b/></a>" * 25 + "</r>"
        tree = BinaryTree.from_xml(xml, encode_attributes=True, encode_text=True)
        assert tree.n > 100
        assert created == []
        # ...while the legacy pipeline allocates one per element.
        parse_xml(xml)
        assert len(created) == tree.n - 50  # minus @x and #text encodings

    def test_xmark_tree_allocates_no_xmlnode(self, monkeypatch):
        created = []
        original = XMLNode.__init__
        monkeypatch.setattr(
            XMLNode,
            "__init__",
            lambda self, *a, **k: created.append(1) or original(self, *a, **k),
        )
        tree = XMarkGenerator(scale=0.05, seed=7).tree()
        assert tree.n > 500
        assert created == []

    def test_from_xml_peaks_below_the_xmlnode_pipeline(self):
        """What allocating no XMLNode buys: the traced-allocation peak
        (deterministic, unlike RSS) of streaming into the arrays stays
        under that of parsing to a node tree and converting it."""

        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        xml = XMarkGenerator(scale=0.05, seed=11, text_content=True).xml()
        streaming = peak(lambda: BinaryTree.from_xml(xml))
        legacy = peak(lambda: BinaryTree.from_document(parse_xml(xml)))
        assert streaming < legacy


def loop_parens(tree: BinaryTree) -> list:
    """The DFS ``SuccinctTree.from_binary`` used to run, kept as the
    reference for its vectorised replacement."""
    parens = []
    stack = [(0, 0)]
    while stack:
        v, phase = stack.pop()
        if phase == 1:
            parens.append(0)
            continue
        parens.append(1)
        stack.append((v, 1))
        for c in reversed(list(tree.children(v))):
            stack.append((c, 0))
    return parens


def loop_columns(parens) -> dict:
    """The per-event wiring ``TreeBuilder`` used to do -- ``parent`` and
    the ``left`` / ``right`` link at every open,
    ``xml_end`` at every close -- replayed over a parenthesis sequence:
    the reference for the bulk derivation in ``tree/binary.py``."""
    left, right, parent, xml_end = [], [], [], []
    opened, closed, height = [], None, 0
    for bit in parens:
        if not bit:
            closed = opened.pop()
            xml_end[closed] = len(left)
            continue
        vid = len(left)
        if not opened:
            parent.append(-1)
        elif closed is None:
            left[opened[-1]] = vid
            parent.append(opened[-1])
        else:
            right[closed] = vid
            parent.append(opened[-1])
            closed = None
        left.append(-1)
        right.append(-1)
        xml_end.append(-1)
        opened.append(vid)
        height = max(height, len(opened) - 1)
    return {
        "left": left, "right": right, "parent": parent,
        "xml_end": xml_end, "height": height,
    }


class TestBuilderOutputs:
    def test_streamed_parens_match_from_binary(self):
        """The parentheses the builder streams, the ones from_binary
        derives from xml_end with numpy, and the reference loop agree --
        as do the height read off the BP excess and the tree's own."""
        rng = random.Random(20260928)
        documents = HAND_DOCS + [
            random_document(rng, attributes=True, text=True)
            for _ in range(100)
        ]
        documents.append(XMarkGenerator(scale=0.1, seed=5).xml())
        for xml in documents:
            for encode in (False, True):
                builder = TreeBuilder(
                    encode_attributes=encode, encode_text=False
                )
                parse_events(xml, builder)
                tree = builder.finish()
                streamed = builder.parens_array()
                assert streamed.tolist() == loop_parens(tree), xml
                direct = SuccinctTree(
                    streamed, list(tree.label_of), list(tree.labels)
                )
                rebuilt = SuccinctTree.from_binary(tree)
                assert direct.bv._bytes == rebuilt.bv._bytes, xml
                assert rebuilt.height() == tree.height(), xml

    def test_finish_requires_balanced_events(self):
        builder = TreeBuilder()
        builder.start_element("a", None)
        with pytest.raises(ValueError, match="open"):
            builder.finish()

    def test_end_without_start_rejected(self):
        with pytest.raises(ValueError, match="end_element"):
            TreeBuilder().end_element("a")

    def test_multiple_roots_rejected(self):
        builder = TreeBuilder()
        builder.start_element("a", None)
        builder.end_element("a")
        with pytest.raises(ValueError, match="root"):
            builder.start_element("b", None)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="document element"):
            TreeBuilder().finish()

    def test_finished_builder_is_sealed(self):
        builder = TreeBuilder()
        builder.start_element("a", None)
        builder.end_element("a")
        builder.finish()
        with pytest.raises(ValueError, match="finished"):
            builder.start_element("b", None)


class TestXMarkEventStream:
    def test_streaming_tree_matches_legacy_tree(self):
        for text_content in (False, True):
            streaming = XMarkGenerator(
                scale=0.05, seed=3, text_content=text_content
            ).tree()
            legacy = BinaryTree.from_document(
                XMarkGenerator(
                    scale=0.05, seed=3, text_content=text_content
                ).document()
            )
            assert _arrays(streaming) == _arrays(legacy)

    def test_document_view_matches_event_stream(self):
        generator = XMarkGenerator(scale=0.05, seed=5, text_content=True)
        doc = generator.document()
        sink = XMLNodeBuilder()
        generator.events(sink)
        replay = sink.document()
        a = [(n.label, n.text) for n in doc.preorder()]
        b = [(n.label, n.text) for n in replay.preorder()]
        assert a == b
