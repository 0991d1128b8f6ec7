"""XML tree substrate: document model, parser, binary encoding.

The paper evaluates automata over binary trees obtained from XML documents
via the first-child/next-sibling encoding (Section 2).  This package
provides:

- :class:`~repro.tree.document.XMLNode` / :class:`~repro.tree.document.XMLDocument`
  -- an ordered labelled tree with document-order numbering,
- :func:`~repro.tree.parser.parse_xml` / :func:`~repro.tree.parser.parse_events`
  -- a small dependency-free XML parser: one bulk scan, events on demand,
- :class:`~repro.tree.builder.TreeBuilder` -- the event sink that
  records events as label ids and parentheses,
- :class:`~repro.tree.binary.BinaryTree` -- the column-backed fcns encoding
  that all automata and kernels run over.
"""

from repro.tree.document import XMLDocument, XMLNode
from repro.tree.parser import XMLSyntaxError, parse_events, parse_xml
from repro.tree.builder import TreeBuilder, XMLNodeBuilder, build_tree
from repro.tree.binary import MAX_NODES, NIL, BinaryTree, DocumentTooLarge
from repro.tree.serialize import to_xml

__all__ = [
    "XMLDocument",
    "XMLNode",
    "XMLSyntaxError",
    "parse_xml",
    "parse_events",
    "TreeBuilder",
    "XMLNodeBuilder",
    "build_tree",
    "BinaryTree",
    "DocumentTooLarge",
    "MAX_NODES",
    "NIL",
    "to_xml",
]
