"""Serialization round-trip tests."""

import pytest
from hypothesis import given, settings

from repro.tree import serialize
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_events, parse_xml
from repro.tree.serialize import XMLWriter, to_xml

from strategies import tree_specs


class TestSerialize:
    def test_empty_element(self):
        assert to_xml(parse_xml("<a/>")) == "<a/>"

    def test_attributes_escaped(self):
        text = to_xml(parse_xml('<a x="&amp;&quot;1"/>'))
        assert text == '<a x="&amp;&quot;1"/>'

    def test_text_escaped(self):
        assert to_xml(parse_xml("<a>&lt;x&gt;&amp;</a>")) == "<a>&lt;x&gt;&amp;</a>"

    def test_nested(self):
        assert to_xml(parse_xml("<a><b/><c><d/></c></a>")) == "<a><b/><c><d/></c></a>"

    def test_pretty_print_indents(self):
        text = to_xml(parse_xml("<a><b/></a>"), indent=2)
        assert text == "<a>\n  <b/>\n</a>\n"

    def test_roundtrip_fixed(self):
        original = "<site><a x=\"1\"><b/>text</a><c/></site>"
        doc = parse_xml(original)
        again = parse_xml(to_xml(doc))
        assert to_xml(again) == to_xml(doc)

    def test_element_with_children_drops_its_text(self):
        doc = parse_xml("<a>pre<b>kept</b>mid<c/>post</a>")
        assert doc.root.text == "premidpost"
        assert to_xml(doc) == "<a><b>kept</b><c/></a>"

    def test_element_with_children_drops_its_text_indented(self):
        doc = parse_xml("<a>pre<b>kept</b></a>")
        assert to_xml(doc, indent=2) == "<a>\n  <b>kept</b>\n</a>\n"

    @pytest.mark.parametrize(
        "source, rendered",
        [
            ('<a x="&lt;&amp;&gt;" y=\'"q"\'/>', '<a x="&lt;&amp;&gt;" y="&quot;q&quot;"/>'),
            ("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>", "<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>"),
            ("<a>&#60;&#x3E;'\"</a>", "<a>&lt;&gt;'\"</a>"),
            ('<a k="v"><b k="&amp;">t</b>tail</a>', '<a k="v"><b k="&amp;">t</b></a>'),
            ("<a><b>x</b>y<c>z<d/></c></a>", "<a><b>x</b><c><d/></c></a>"),
            ("<a> </a>", "<a> </a>"),
        ],
    )
    def test_parse_round_trip(self, source, rendered):
        doc = parse_xml(source)
        assert to_xml(doc) == rendered
        again = parse_xml(rendered)
        assert to_xml(again) == rendered
        nodes = list(zip(doc.preorder(), again.preorder()))
        assert len(nodes) == len(list(doc.preorder()))
        for old, new in nodes:
            assert (new.label, new.attributes) == (old.label, old.attributes)
            if not old.children:
                assert new.text == old.text

    def test_writer_streams_parser_events(self):
        source = '<r a="1"><x>t &amp; u</x>drop<y/></r>'
        out = []
        writer = XMLWriter(out.append)
        parse_events(source, writer)
        writer.close()
        assert "".join(out) == to_xml(parse_xml(source))

    def test_writer_flushes_in_bounded_chunks(self, monkeypatch):
        monkeypatch.setattr(serialize, "BUFFER_CHARS", 16)
        doc = parse_xml("<r>" + "<item>word</item>" * 50 + "</r>")
        chunks = []
        writer = XMLWriter(chunks.append)
        serialize._replay(doc.root, writer)
        assert len(chunks) > 10
        assert all(len(chunk) < 16 + len("<item>word</item>") for chunk in chunks)
        writer.close()
        assert "".join(chunks) == to_xml(doc)

    @given(tree_specs())
    @settings(max_examples=50)
    def test_roundtrip_random_structure(self, spec):
        tree = BinaryTree.from_spec(spec)
        from repro.tree.document import XMLDocument, XMLNode

        def rebuild(v):
            node = XMLNode(tree.label(v))
            for c in tree.children(v):
                node.append(rebuild(c))
            return node

        doc = XMLDocument(rebuild(0))
        reparsed = BinaryTree.from_document(parse_xml(to_xml(doc)))
        assert [reparsed.label(v) for v in range(reparsed.n)] == [
            tree.label(v) for v in range(tree.n)
        ]
        assert reparsed.parent == tree.parent
