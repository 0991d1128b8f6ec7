"""XML serialization: one event-driven writer behind every text output.

:class:`XMLWriter` implements the :class:`~repro.tree.parser.EventHandler`
protocol and renders the events it receives as XML text through a
bounded buffer to any ``write`` callable.  It holds only the open
element labels and the character data of the innermost element, so a
generator streaming into it (``XMarkGenerator.write``) needs memory for
the document's depth, not its size.  :func:`to_xml` replays an
:class:`~repro.tree.document.XMLDocument` into the same writer.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.tree.document import XMLDocument, XMLNode

_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_ESCAPES, '"': "&quot;"}

#: Characters the writer gathers before one ``write`` call.
BUFFER_CHARS = 1 << 13


def _escape(text: str, table: dict[str, str]) -> str:
    for raw, rep in table.items():
        if raw in text:
            text = text.replace(raw, rep)
    return text


class XMLWriter:
    """Event sink rendering XML text to ``write``.

    An element without children renders as ``<a/>`` or, when it holds
    character data, ``<a>text</a>``.  An element with child elements
    drops its own character data (the pointer tree keeps one ``text``
    per element, so mixed content has no position to render it at).
    ``indent > 0`` puts every tag on its own line, indented that many
    spaces per level.  Call :meth:`close` after the last event to flush.
    """

    __slots__ = (
        "_write", "_indent", "_nl", "_open", "_pending", "_text", "_out", "_size"
    )

    def __init__(self, write: Callable[[str], object], indent: int = 0) -> None:
        self._write = write
        self._indent = indent
        self._nl = "\n" if indent else ""
        self._open: List[str] = []  # labels of the started elements
        # The innermost element while it has no child yet: its start tag
        # (without the closing bracket) and its character data.
        self._pending: Optional[str] = None
        self._text: List[str] = []
        self._out: List[str] = []
        self._size = 0

    def _emit(self, piece: str) -> None:
        self._out.append(piece)
        self._size += len(piece)
        if self._size >= BUFFER_CHARS:
            self._flush()

    def _flush(self) -> None:
        if self._out:
            self._write("".join(self._out))
            self._out.clear()
            self._size = 0

    def _pad(self, level: int) -> str:
        return " " * (self._indent * level)

    def start_element(self, name: str, attrs: Optional[dict]) -> None:
        if self._pending is not None:
            # The parent gets a child: open it, dropping its text.
            self._emit(f"{self._pending}>{self._nl}")
            self._text.clear()
        tag = f"{self._pad(len(self._open))}<{name}"
        if attrs:
            tag += "".join(
                f' {k}="{_escape(v, _ATTR_ESCAPES)}"' for k, v in attrs.items()
            )
        self._pending = tag
        self._open.append(name)

    def characters(self, data: str) -> None:
        if self._pending is not None:
            self._text.append(data)

    def end_element(self, name: Optional[str] = None) -> None:
        label = self._open.pop()
        if self._pending is None:
            self._emit(f"{self._pad(len(self._open))}</{label}>{self._nl}")
            return
        text = "".join(self._text)
        self._text.clear()
        if text:
            text = _escape(text, _ESCAPES)
            self._emit(f"{self._pending}>{text}</{label}>{self._nl}")
        else:
            self._emit(f"{self._pending}/>{self._nl}")
        self._pending = None

    def close(self) -> None:
        """Flush what is buffered (the writer stays usable)."""
        self._flush()


def _replay(root: XMLNode, sink) -> None:
    """Feed the subtree of ``root`` to ``sink`` as events, in document
    order (iterative: subtrees can be deep)."""
    stack: list[tuple[XMLNode, bool]] = [(root, False)]
    while stack:
        node, closing = stack.pop()
        if closing:
            sink.end_element(node.label)
            continue
        sink.start_element(node.label, node.attributes)
        if node.text:
            sink.characters(node.text)
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


def to_xml(doc: XMLDocument, indent: int = 0) -> str:
    """Serialize a document to an XML string.

    ``indent > 0`` pretty-prints with that many spaces per level (only safe
    for element-only trees, which is all the paper's workloads use).
    """
    out: list[str] = []
    writer = XMLWriter(out.append, indent)
    _replay(doc.root, writer)
    writer.close()
    return "".join(out)


def subtree_to_xml(tree, v: int, indent: int = 0) -> str:
    """Serialize the XML subtree of node ``v`` of a BinaryTree.

    Encoded ``@attr`` / ``#text`` children are rendered back as real
    attributes / character data.
    """
    node = _rebuild(tree, v)
    return to_xml(XMLDocument(node), indent=indent)


def _rebuild(tree, v: int) -> XMLNode:
    # Iterative reconstruction (subtrees can be deep).  Children are
    # attached eagerly in document order; only the descent is deferred.
    root = XMLNode(tree.label(v))
    stack = [(v, root)]
    while stack:
        src, dst = stack.pop()
        for c in tree.children(src):
            label = tree.label(c)
            if label.startswith("@"):
                dst.attributes[label[1:]] = ""
                continue
            if label == "#text":
                dst.text += "…"
                continue
            stack.append((c, dst.new_child(label)))
    return root
