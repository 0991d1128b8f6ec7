"""Streaming array-native document builder (the ingestion hot path).

:class:`TreeBuilder` is an event handler (the
:class:`~repro.tree.parser.EventHandler` protocol) that appends directly
into the flat parallel arrays a :class:`~repro.tree.binary.BinaryTree`
is made of -- element labels interned on the fly, ``parent`` /
first-child (``left``) / next-sibling (``right``) wired per event,
``xml_end`` folded at close time, and the balanced-parentheses bit of
every open/close accumulated for the succinct index.  No intermediate
:class:`~repro.tree.document.XMLNode` graph is ever materialized, which
removes the dominant memory and startup cost of the legacy
parse-then-convert pipeline (one Python object + dict + list per
element).

The attribute/text "straightforward encoding" of the paper is supported
streaming: ``@name`` children are emitted as soon as a start tag is
seen, and a ``#text`` child is emitted at the first non-whitespace
character data of an element.  One document shape cannot be encoded
online: when an element's leading character data is all whitespace but
*later* character data (after an element child) is not, the ``#text``
child would have to be inserted before already-numbered siblings.  The
builder then raises :class:`LateTextChild` and
:func:`build_tree_from_xml` falls back to the materialized
:class:`XMLNode` path for that (rare, mixed-content) document, keeping
the two pipelines byte-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tree.binary import NIL, BinaryTree
from repro.tree.document import XMLDocument, XMLNode


class LateTextChild(Exception):
    """Streaming ``#text`` encoding impossible: non-whitespace text
    arrived after an element child while the element's leading text was
    whitespace-only (see the module docstring)."""


class TreeBuilder:
    """SAX-style event sink producing :class:`BinaryTree` arrays directly.

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
        self.label_of: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.parent: list[int] = []
        self.bparent: list[int] = []
        self.xml_end: list[int] = []
        self._parens = bytearray()
        # Open-element frames: [node id, last child id, #text emitted?,
        # element child seen?].  The text flags are only consulted when
        # encode_text is on.
        self._frames: list[list] = []
        self._root: Optional[int] = None
        self._done = False

    # -- event protocol ----------------------------------------------------

    def start_element(self, name: str, attrs: Optional[dict]) -> None:
        if self._done:
            raise ValueError("builder already finished")
        if not self._frames and self._root is not None:
            raise ValueError("document has more than one root element")
        vid = self._emit(name)
        if self._root is None:
            self._root = vid
        if self._frames:
            self._frames[-1][3] = True
        self._frames.append([vid, NIL, False, False])
        if self.encode_attributes and attrs:
            for attr in attrs:
                self._emit_leaf("@" + attr)

    def characters(self, data: str) -> None:
        if not self.encode_text or not self._frames:
            return
        frame = self._frames[-1]
        if frame[2] or not data.strip():
            return
        if frame[3]:
            raise LateTextChild(
                "non-whitespace text after an element child"
            )
        self._emit_leaf("#text")
        frame[2] = True

    def end_element(self, name: Optional[str] = None) -> None:
        if not self._frames:
            raise ValueError("end_element without a matching start_element")
        vid = self._frames.pop()[0]
        self.xml_end[vid] = len(self.label_of)
        self._parens.append(0)

    # -- array plumbing ----------------------------------------------------

    def _intern(self, name: str) -> int:
        lab = self._label_ids.get(name)
        if lab is None:
            lab = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return lab

    def _emit(self, name: str) -> int:
        """Append one node: wire parent/first-child/next-sibling links."""
        vid = len(self.label_of)
        self.label_of.append(self._intern(name))
        self.left.append(NIL)
        self.right.append(NIL)
        self.xml_end.append(vid + 1)
        if self._frames:
            frame = self._frames[-1]
            par, last = frame[0], frame[1]
            self.parent.append(par)
            if last == NIL:
                self.left[par] = vid
                self.bparent.append(par)
            else:
                self.right[last] = vid
                self.bparent.append(last)
            frame[1] = vid
        else:
            self.parent.append(NIL)
            self.bparent.append(NIL)
        self._parens.append(1)
        return vid

    def _emit_leaf(self, name: str) -> None:
        """An ``@attr`` / ``#text`` encoded child: open and close at once."""
        self._emit(name)
        self._parens.append(0)

    # -- outputs -----------------------------------------------------------

    def finish(self) -> BinaryTree:
        """Seal the builder and return the array-backed tree."""
        if self._frames:
            raise ValueError(
                f"{len(self._frames)} element(s) still open at finish()"
            )
        if self._root is None:
            raise ValueError("no document element")
        self._done = True
        return BinaryTree(
            self.labels,
            self.label_of,
            self.left,
            self.right,
            self.parent,
            self.xml_end,
            bparent=self.bparent,
        )

    def parens_array(self) -> np.ndarray:
        """The balanced-parentheses sequence as a ``uint8`` 0/1 array.

        Accumulated during streaming (one byte per parenthesis), packable
        with ``np.packbits`` and directly consumable by
        :class:`repro.index.bitvector.BitVector` /
        :class:`repro.index.succinct.SuccinctTree`.
        """
        return np.frombuffer(bytes(self._parens), dtype=np.uint8)


def build_tree_from_xml(
    text: str,
    *,
    encode_attributes: bool = False,
    encode_text: bool = False,
) -> BinaryTree:
    """Parse an XML string straight into a :class:`BinaryTree`.

    This is the streaming pipeline: scanner events feed a
    :class:`TreeBuilder`, so no per-element ``XMLNode`` is allocated.
    The only exception is the :class:`LateTextChild` mixed-content shape
    (see the module docstring), which falls back to the materialized
    path to keep encodings byte-identical.
    """
    from repro.tree.parser import parse_events, parse_xml

    builder = TreeBuilder(
        encode_attributes=encode_attributes, encode_text=encode_text
    )
    try:
        parse_events(text, builder)
    except LateTextChild:
        return BinaryTree.from_document(
            parse_xml(text),
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
