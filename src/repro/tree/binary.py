"""First-child/next-sibling binary encoding of XML trees (Section 2).

The automata of the paper run over binary trees: the left child of a node
is its first child in the XML tree, the right child is its next sibling.
``#`` leaves are virtual here -- a missing child is represented by the
sentinel :data:`NIL` and every run function treats it as the ``#`` leaf.

Node identifiers are preorder numbers of the binary tree, which coincide
with XML document order (the fcns preorder visits a node, then its first
child's subtree, then its next sibling's subtree -- exactly document
order).  This is what makes the paper's "result sets as lists with O(1)
concatenation" technique sound: results are produced sorted and
duplicate-free.

Key id-range facts used throughout the library:

- the *XML* subtree of node ``v`` is the contiguous range
  ``[v, xml_end[v])``;
- the *binary* subtree of ``v`` (its XML subtree plus all following
  siblings and their subtrees) is ``[v, bend(v))`` where ``bend(v)`` is
  ``xml_end[parent[v]]`` (or ``n`` at the root chain).
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional, Union

import numpy as np

from repro.tree.document import XMLDocument, XMLNode

NIL = -1
"""Sentinel node id standing for the virtual ``#`` leaf."""

ID_DTYPE = np.dtype(np.int32)
"""The one width of every node-id array: the tree's columns, the label
index, rank columns, the child CSR and the kernels' frontiers."""

#: The element-wise API, ``tree.<name>[v]``: three columns, two links.
MIRRORS = ("label_of", "left", "right", "parent", "xml_end")

MAX_NODES = 2**31 - 3
"""The most nodes a document may have: every id, and the ``n + 2``
slots of a rank column, must fit :data:`ID_DTYPE`."""


class DocumentTooLarge(ValueError):
    """A document with more nodes than :data:`MAX_NODES`.  Structured:
    ``n`` is its node count, ``limit`` the limit it exceeds."""

    def __init__(self, n: int, limit: int) -> None:
        super().__init__(
            f"document has {n} nodes; node ids are int32, so at most "
            f"{limit} fit"
        )
        self.n = n
        self.limit = limit


def check_size(n: int) -> None:
    """Raise :class:`DocumentTooLarge` unless ``n`` nodes fit."""
    if n > MAX_NODES:
        raise DocumentTooLarge(n, MAX_NODES)

TreeSpec = Union[str, tuple]
"""Lightweight literal tree syntax: ``"a"`` or ``("a", child, child...)``."""


def match_parens(parens: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(opened, order, height)`` of a parenthesis sequence (``1`` open,
    ``0`` close): the opens up to each position, a stable argsort by
    nesting level, the deepest level less one.  The *nesting level* is
    the excess after an open and before a close -- the opens up to a
    position less the closes before it -- so at one level opens
    and closes alternate and **in that order a close directly follows
    its open** -- how the parser checks end-tag names, even on an
    unbalanced prefix, before :func:`_derive_columns` reuses the sort.
    Counts are :data:`ID_DTYPE`: none exceeds the node count.
    """
    opened = np.cumsum(parens, dtype=ID_DTYPE)
    level = opened - np.cumsum(parens == 0, dtype=ID_DTYPE)
    level += 1
    level -= parens
    height = int(level.max()) - 1
    if height < 0xFFFF:
        level = level.astype(np.uint16)  # numpy radix-sorts 16-bit keys
    return opened, np.argsort(level, kind="stable"), height


def _derive_columns(parens: np.ndarray, matching=None) -> tuple[dict, int]:
    """The ``parent`` and ``xml_end`` columns and the height of the tree
    whose balanced parentheses (one pair per node in document order) are
    ``parens``, from :func:`match_parens` of them (``matching``, if the
    caller has it): one numpy pass, no per-node Python.

    Two identities carry it.  In the level sort of a balanced sequence
    **matching parentheses are consecutive**: its even entries are the
    opens -- the nodes in level-major order -- its odd entries their
    closes, and ``xml_end`` is the number of opens before the close.  In
    that order a level's nodes are grouped by parent and a group starts
    at a first child (a node whose open directly follows another open),
    so **the parent is the predecessor one level up**: ``v - 1`` for a
    first child, carried forward over the rest of its group.
    """
    n = parens.size // 2
    opened, order, height = matching or match_parens(parens)
    opens, closes = order[0::2], order[1::2]
    nodes = opened.take(opens)  # level-major
    nodes -= 1
    first = parens.take(opens - 1).view(bool)  # root: the last close, False
    at = nodes.astype(np.intp)  # scatters index fastest with intp
    xml_end = np.empty(n, dtype=ID_DTYPE)
    xml_end[at] = opened.take(closes)
    group = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    parent = np.empty(n, dtype=ID_DTYPE)
    parent[at] = (nodes - 1).take(group)
    return {"parent": parent, "xml_end": xml_end}, height


def column(columns: dict, name: str) -> np.ndarray:
    """Stored column ``name``, or the fcns link ``name`` derived from the
    preorder columns: ``left`` (first child) is ``v + 1`` if ``v``'s
    subtree holds it; ``right`` (next sibling) starts where ``v``'s
    subtree ends, unless its parent's does."""
    if name in columns:
        return columns[name]
    parent, xml_end = columns["parent"], columns["xml_end"]
    v = np.arange(parent.size, dtype=ID_DTYPE)
    if name == "left":
        return np.where(xml_end > v + 1, v + 1, NIL)
    # The root's parent NIL takes the last node's xml_end, n: no sibling.
    return np.where(xml_end < xml_end.take(parent), xml_end, NIL)


class _Mirror:
    """``tree.<column>``: the plain-``int`` list mirror of one column.

    A non-data descriptor: the first read builds the list and sets it
    as an instance attribute of the same name, which shadows the
    descriptor, so every later read is an ordinary attribute load.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, tree, owner=None):
        return self if tree is None else tree._publish(self.name)


class BinaryTree:
    """The fcns-encoded document tree: three ``int32`` numpy columns.

    ``label_of / parent / xml_end``, one entry per node id, are the tree
    -- the arrays a store bundle holds, and the memory-mapped bundle
    files themselves when reopened from one.  The set-at-a-time kernels
    and the index read the columns
    (:meth:`repro.index.jumping.TreeIndex.parent_array` and friends) and
    nothing else.

    ``tree.left[v]`` ... ``tree.xml_end[v]`` remain the element-wise API
    of the node-at-a-time code (the automaton strategies, the reference
    evaluator, the baselines): each attribute is a plain-``int`` list
    *mirror* of its :func:`column`, built the first time it is read and kept.
    Mirrors go through one shared pool of ``int`` objects
    (:meth:`ints`), so the same id is the same object in every column
    and in every list mirror of the label index (a ``.tolist()`` per
    column would allocate it up to five times).  A tree nobody indexes
    element-wise -- every document served by the kernels -- never holds
    one; :meth:`resident_mirrors` says which exist.  This is the pointer
    representation the paper contrasts with succinct trees (see
    :mod:`repro.index.succinct` for the succinct counterpart).

    Construct via :meth:`from_document`, :meth:`from_spec` or
    :meth:`from_xml`, or from label ids plus balanced parentheses.
    """

    def __init__(self, labels, label_of, parens, matching=None) -> None:
        """``label_of[v]`` indexes ``labels``; ``parens`` is the 0/1
        balanced-parentheses sequence of the document (``matching`` its
        :func:`match_parens`, if at hand), which :func:`_derive_columns`
        turns into the navigation columns."""
        label_of = np.asarray(label_of, dtype=ID_DTYPE)
        parens = np.asarray(parens, dtype=np.uint8)
        if parens.size != 2 * label_of.size or not label_of.size:
            raise ValueError("need one parenthesis pair per node, >= 1 node")
        check_size(label_of.size)
        columns, height = _derive_columns(parens, matching)
        self._adopt(labels, {"label_of": label_of, **columns}, height)

    @classmethod
    def _from_columns(
        cls, labels: list[str], columns: dict, height: Optional[int] = None
    ) -> "BinaryTree":
        """A tree over columns that already exist (a reopened bundle, an
        unpickled tree); ``height`` where the caller knows it."""
        self = cls.__new__(cls)
        self._adopt(labels, columns, height)
        return self

    def _adopt(self, labels, columns: dict, height: Optional[int]) -> None:
        self.labels = labels
        self.label_ids = {name: i for i, name in enumerate(labels)}
        self.n = len(columns["label_of"])
        self._columns = columns
        self._height = height
        # Which mirrors exist; kept beside the instance attributes so
        # nothing reads ``__dict__`` (that un-inlines the attributes and
        # slows every later load on the instance).
        self._mirrors: dict = {}
        self._pool = None
        self._lock = threading.RLock()  # _publish builds the pool in it

    label_of = _Mirror()
    left = _Mirror()
    right = _Mirror()
    parent = _Mirror()
    xml_end = _Mirror()

    def _publish(self, name: str) -> list[int]:
        """Build (once, whoever asks first) the list mirror of a column."""
        with self._lock:
            mirror = self._mirrors.get(name)  # published while we waited
            if mirror is None:
                mirror = self.ints(column(self._columns, name))
                self._mirrors[name] = mirror
                setattr(self, name, mirror)  # shadows the descriptor
        return mirror

    def ints(self, values: np.ndarray) -> list[int]:
        """``values.tolist()``, each ``int`` the tree's one shared object
        for that value: a gather from the pool of every value a column
        holds (``NIL``, node ids, ``n``, label ids), built on first use."""
        pool = self._pool
        if pool is None:
            with self._lock:
                pool = self._pool
                if pool is None:
                    top = max(self.n, len(self.labels))
                    pool = self._pool = np.arange(NIL, top + 1).astype(object)
        return pool.take(values + 1).tolist()

    def resident_mirrors(self) -> tuple:
        """Names of the list mirrors built, in :data:`MIRRORS` order."""
        return tuple(name for name in MIRRORS if name in self._mirrors)

    def __reduce__(self):
        # Columns travel, mirrors (and the lock) never do.
        return (
            BinaryTree._from_columns,
            (self.labels, self._columns, self._height),
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_document(
        cls,
        doc: XMLDocument,
        encode_attributes: bool = False,
        encode_text: bool = False,
    ) -> "BinaryTree":
        """Encode an :class:`XMLDocument`.

        By default only element nodes are encoded, as in the paper
        (Section 2).  The "straightforward encoding" of [1] the paper
        refers to is available as options:

        - ``encode_attributes``: each attribute becomes a leading child
          element labelled ``@name`` (enables the attribute axis);
        - ``encode_text``: non-whitespace character data becomes a
          ``#text`` child element (enables the ``text()`` node test).
        """
        from repro.tree.builder import TreeBuilder

        # The node's whole text is at hand, so the #text child is placed
        # here (no LateTextChild); the builder does the @name children.
        builder = TreeBuilder(encode_attributes=encode_attributes)
        stack: list[Optional[XMLNode]] = [doc.root]
        while stack:  # document order; None closes the node above
            node = stack.pop()
            if node is None:
                builder.end_element()
                continue
            builder.start_element(node.label, node.attributes)
            if encode_text and node.text.strip():
                builder.start_element("#text", None)
                builder.end_element()
            stack.append(None)
            stack.extend(reversed(node.children))
        return builder.finish()

    @classmethod
    def from_spec(cls, spec: TreeSpec) -> "BinaryTree":
        """Build from the literal tuple syntax.

        >>> t = BinaryTree.from_spec(("a", "b", ("c", "d")))
        >>> t.label(0), t.label(1), t.label(2), t.label(3)
        ('a', 'b', 'c', 'd')
        """
        return cls.from_document(XMLDocument(_spec_to_node(spec)))

    @classmethod
    def from_xml(
        cls,
        text: str,
        encode_attributes: bool = False,
        encode_text: bool = False,
    ) -> "BinaryTree":
        """Parse an XML string and encode it: the parser's bulk scan, or
        with an encoding its events into a
        :class:`repro.tree.builder.TreeBuilder`; either way label ids
        and parentheses only, no :class:`XMLNode` tree is materialized.
        """
        from repro.tree.builder import build_tree

        return build_tree(
            text,
            encode_attributes=encode_attributes,
            encode_text=encode_text,
        )

    # -- basic accessors ----------------------------------------------------

    def label(self, v: int) -> str:
        """Element name of node ``v``."""
        return self.labels[self.label_of[v]]

    def label_id(self, name: str) -> Optional[int]:
        """Intern id of an element name, or None if absent from the tree."""
        return self.label_ids.get(name)

    def first_child(self, v: int) -> int:
        """XML first child == binary left child (NIL if none)."""
        return self.left[v]

    def next_sibling(self, v: int) -> int:
        """XML next sibling == binary right child (NIL if none)."""
        return self.right[v]

    def children(self, v: int) -> Iterator[int]:
        """XML children of ``v`` in order."""
        c = self.left[v]
        while c != NIL:
            yield c
            c = self.right[c]

    def bend(self, v: int) -> int:
        """End (exclusive) of the *binary* subtree id range of ``v``."""
        p = self.parent[v]
        return self.n if p == NIL else self.xml_end[p]

    def is_binary_leaf(self, v: int) -> bool:
        """True when both binary children are the virtual ``#`` leaf."""
        return self.left[v] == NIL and self.right[v] == NIL

    def root(self) -> int:
        """Id of the document root (always 0)."""
        return 0

    # -- derived traversals --------------------------------------------------

    def xml_descendants(self, v: int) -> range:
        """Ids of strict XML descendants of ``v`` (contiguous range)."""
        return range(v + 1, self.xml_end[v])

    def ancestors(self, v: int) -> Iterator[int]:
        """Strict XML ancestors of ``v``, nearest first."""
        p = self.parent[v]
        while p != NIL:
            yield p
            p = self.parent[p]

    def depth(self, v: int) -> int:
        """XML depth of ``v`` (root has depth 0)."""
        d = 0
        p = self.parent[v]
        while p != NIL:
            d += 1
            p = self.parent[p]
        return d

    def height(self) -> int:
        """Maximum XML depth over all nodes.  The parentheses a tree is
        derived from give it outright; a tree adopted without it counts,
        per node, the subtrees that closed before it (its depth is its
        id less that count)."""
        if self._height is None:
            n = self.n
            ends = np.bincount(self._columns["xml_end"], minlength=n + 1)
            depth = np.arange(n) - np.cumsum(ends)[:n]
            self._height = int(depth.max())
        return self._height

    def label_histogram(self) -> dict[str, int]:
        """Element-name histogram (used by the hybrid engine's planner)."""
        counts = np.bincount(
            self._columns["label_of"], minlength=len(self.labels)
        )
        return dict(zip(self.labels, counts.tolist()))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BinaryTree(n={self.n}, labels={len(self.labels)})"


def _spec_to_node(spec: TreeSpec) -> XMLNode:
    if isinstance(spec, str):
        return XMLNode(spec)
    label, *children = spec
    node = XMLNode(label)
    for child in children:
        node.append(_spec_to_node(child))
    return node
