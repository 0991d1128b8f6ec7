"""Array-native document builders (the ingestion hot path).

XML text with no ``@attr`` / ``#text`` encoding never gets here event by
event: :func:`build_tree` hands it to the parser's bulk scan
(:func:`~repro.tree.parser.scan_arrays`), which returns label ids and
balanced parentheses directly.  :class:`TreeBuilder` is the event handler
(the :class:`~repro.tree.parser.EventHandler` protocol) that records the
same two things per event -- the interned label id of every opened node
and one parenthesis per open / close -- for event sources (the XMark
generator, ``BinaryTree.from_document``) and for the encodings.  Either
way :class:`~repro.tree.binary.BinaryTree` derives ``parent`` / ``left``
/ ``right`` / ``bparent`` / ``xml_end`` and the height in one numpy
pass, and no :class:`~repro.tree.document.XMLNode` graph is ever
materialized.

The attribute/text "straightforward encoding" of the paper is supported
streaming: ``@name`` children are emitted as soon as a start tag is
seen, and a ``#text`` child is emitted at the first non-whitespace
character data of an element.  One document shape cannot be encoded
online: when an element's leading character data is all whitespace but
*later* character data (after an element child) is not, the ``#text``
child would have to be inserted before already-numbered siblings.  The
builder then raises :class:`LateTextChild` and
:func:`build_tree` falls back to the materialized
:class:`XMLNode` path for that (rare, mixed-content) document, keeping
the two pipelines byte-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tree.binary import BinaryTree
from repro.tree.document import XMLDocument, XMLNode


class LateTextChild(Exception):
    """Streaming ``#text`` encoding impossible: non-whitespace text
    arrived after an element child while the element's leading text was
    whitespace-only (see the module docstring)."""


class TreeBuilder:
    """SAX-style event sink recording label ids and parentheses.

    An element costs one :meth:`start_element` and one
    :meth:`end_element`: a label-id append and a parenthesis each way.
    Only the ``#text`` encoding needs to know *where* in the tree an
    event falls (which element is innermost, whether a child closed
    since), so only ``encode_text`` keeps the stack of open elements;
    otherwise a depth counter polices balance.

    >>> b = TreeBuilder()
    >>> b.start_element("a", None); b.start_element("b", None)
    >>> b.end_element("b"); b.end_element("a")
    >>> t = b.finish()
    >>> t.label(0), t.label(1), t.n
    ('a', 'b', 2)
    """

    def __init__(
        self,
        encode_attributes: bool = False,
        encode_text: bool = False,
    ) -> None:
        self.encode_attributes = encode_attributes
        self.encode_text = encode_text
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self._label_of: list[int] = []
        self._parens = bytearray()
        self._depth = 0
        # encode_text only: ids of the open elements (outermost first),
        # the node closed since the last open, and the elements whose
        # #text child exists.
        self._open: list[int] = []
        self._closed: Optional[int] = None
        self._texted: set[int] = set()
        self._done = False

    # -- event protocol ----------------------------------------------------

    def start_element(self, name: str, attrs: Optional[dict]) -> None:
        if not self._depth:
            if self._done:
                raise ValueError("builder already finished")
            if self._label_of:
                raise ValueError("document has more than one root element")
        lab = self._label_ids.get(name)
        if lab is None:
            lab = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        if self.encode_text:
            self._open.append(len(self._label_of))
            self._closed = None
        self._label_of.append(lab)
        self._parens.append(1)
        self._depth += 1
        if attrs and self.encode_attributes:
            for attr in attrs:
                self._leaf("@" + attr)

    def characters(self, data: str) -> None:
        if not self.encode_text or not self._open:
            return
        element = self._open[-1]
        if element in self._texted or not data.strip():
            return
        child = self._closed  # the last child so far, if there is one
        if child is not None and self.labels[self._label_of[child]][0] != "@":
            raise LateTextChild(
                "non-whitespace text after an element child"
            )
        self._texted.add(element)
        self._leaf("#text")

    def end_element(self, name: Optional[str] = None) -> None:
        if not self._depth:
            raise ValueError("end_element without a matching start_element")
        self._depth -= 1
        if self.encode_text:
            self._closed = self._open.pop()
        self._parens.append(0)

    def _leaf(self, name: str) -> None:
        """An ``@attr`` / ``#text`` encoded child: open and close at once."""
        self.start_element(name, None)
        self.end_element()

    # -- outputs -----------------------------------------------------------

    def finish(self) -> BinaryTree:
        """Seal the builder and return the tree its events describe."""
        if self._depth:
            raise ValueError(
                f"{self._depth} element(s) still open at finish()"
            )
        if not self._label_of:
            raise ValueError("no document element")
        self._done = True
        return BinaryTree(self.labels, self._label_of, self.parens_array())

    def parens_array(self) -> np.ndarray:
        """The balanced-parentheses sequence as a ``uint8`` 0/1 array.

        Accumulated during streaming (one byte per parenthesis), packable
        with ``np.packbits`` and directly consumable by
        :class:`repro.index.bitvector.BitVector` /
        :class:`repro.index.succinct.SuccinctTree`.
        """
        return np.frombuffer(bytes(self._parens), dtype=np.uint8)


def build_tree(
    document,
    *,
    encode_attributes: bool = False,
    encode_text: bool = False,
) -> BinaryTree:
    """XML text or an event source -> :class:`BinaryTree`.

    The one spelling of the ingestion pipeline: plain XML text goes
    through the parser's bulk scan, everything else -- an encoding, or
    anything with an ``events(sink)`` method -- feeds a
    :class:`TreeBuilder`, so no per-element ``XMLNode`` is allocated.
    The only exception is the :class:`LateTextChild` mixed-content shape
    (see the module docstring), where XML text falls back to the
    materialized path to keep encodings byte-identical.  An event
    source cannot be replayed as text, so there the exception
    propagates.
    """
    from repro.tree.parser import parse_events, parse_xml, scan_arrays

    if isinstance(document, str) and not (encode_attributes or encode_text):
        labels, label_of, parens, matching = scan_arrays(document)
        return BinaryTree(labels, label_of, parens, matching)
    builder = TreeBuilder(
        encode_attributes=encode_attributes, encode_text=encode_text
    )
    try:
        if isinstance(document, str):
            parse_events(document, builder)
        else:
            document.events(builder)
    except LateTextChild:
        if not isinstance(document, str):
            raise
        return BinaryTree.from_document(
            parse_xml(document),
            encode_attributes=encode_attributes,
            encode_text=encode_text,
        )
    return builder.finish()


class XMLNodeBuilder:
    """Event sink materializing an :class:`XMLNode` tree.

    The optional pointer view of an event stream: :func:`parse_xml` is
    this sink behind the scanner, ``XMarkGenerator.document()``
    replays the generator's events here, and any
    code wanting a serializable document object instead of arrays can
    do the same.  Character data is gathered per open element and
    joined once at its close.
    """

    __slots__ = ("root", "_stack", "_text")

    def __init__(self) -> None:
        self.root: Optional[XMLNode] = None
        self._stack: list[XMLNode] = []
        self._text: list[list[str]] = []

    def start_element(self, name: str, attrs: Optional[dict]) -> None:
        node = XMLNode(name, attributes=dict(attrs) if attrs else None)
        if self._stack:
            self._stack[-1].append(node)
        elif self.root is None:
            self.root = node
        else:
            raise ValueError("document has more than one root element")
        self._stack.append(node)
        self._text.append([])

    def characters(self, data: str) -> None:
        if self._text:
            self._text[-1].append(data)

    def end_element(self, name: Optional[str] = None) -> None:
        node = self._stack.pop()
        parts = self._text.pop()
        if parts:
            node.text = "".join(parts)

    def document(self) -> XMLDocument:
        if self._stack or self.root is None:
            raise ValueError("event stream incomplete")
        return XMLDocument(self.root)
