"""Deterministic XMark skeleton generator.

Generates the element structure of an XMark [19] auction document --
site / regions / people / open_auctions / closed_auctions / categories --
with the label distribution shaped so that Q01-Q15 have selectivities
comparable (relatively) to the paper's 116 MB instance.  Text nodes are
not generated by default: the paper's automata only see element labels
(Section 2), and all fifteen queries are purely structural.

The generator is *event-driven*: :meth:`XMarkGenerator.events` emits
SAX-style start/characters/end events to any sink implementing the
:class:`~repro.tree.parser.EventHandler` protocol, and the RNG draw
order is a pure function of ``(scale, seed)``, so every consumer sees
the identical document.  :meth:`XMarkGenerator.tree` feeds the events
straight into a :class:`~repro.tree.builder.TreeBuilder` -- benchmark
corpora are born as flat arrays, no per-element ``XMLNode`` is ever
allocated (:meth:`XMarkGenerator.document` is the pointer-tree view of
the same events).

``scale=1.0`` yields 26,217 element nodes, and node counts grow
linearly (``scale=4`` is 105,590).  The paper's document has ~5.7M
nodes; the paper-record drivers under ``benchmarks/`` run at scales
that preserve every relative effect the paper reports while staying
tractable for a pure-Python naive engine.  :meth:`XMarkGenerator.write`
streams a document of any scale to a file through the XML writer of
:mod:`repro.tree.serialize`, in memory bounded by the document's depth.
"""

from __future__ import annotations

import random

from repro.tree.binary import BinaryTree
from repro.tree.builder import TreeBuilder, XMLNodeBuilder
from repro.tree.document import XMLDocument
from repro.tree.serialize import XMLWriter

_CONTINENTS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


_WORDS = (
    "auction gold item rare vintage antique silver coin stamp art "
    "painting book first edition signed mint condition shipping world "
    "wide bid reserve buyer seller quality original certified"
).split()


class XMarkGenerator:
    """Seeded XMark-skeleton document factory.

    ``text_content=True`` additionally fills ``text``-family elements with
    pseudo-random character data (XMark uses Shakespeare; any word soup
    exercises the same code paths), so that serialization and the
    ``#text`` encoding can be tested on realistic documents.
    """

    def __init__(
        self, scale: float = 1.0, seed: int = 42, text_content: bool = False
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.text_content = text_content

    # -- public API -------------------------------------------------------------

    def events(self, sink) -> None:
        """Emit the whole document as events (fresh RNG: repeatable)."""
        self._rng = random.Random(self.seed)
        self._sink = sink
        self._start("site")
        self._regions()
        self._categories()
        self._catgraph()
        self._people()
        self._open_auctions()
        self._closed_auctions()
        self._end()
        self._sink = None  # a generator must not pin its last sink

    def document(self) -> XMLDocument:
        """Generate the materialized :class:`XMLNode` view of the events."""
        sink = XMLNodeBuilder()
        self.events(sink)
        return sink.document()

    def tree(self) -> BinaryTree:
        """Generate and binary-encode in one call: the events stream
        straight into the array builder."""
        builder = TreeBuilder()
        self.events(builder)
        return builder.finish()

    def xml(self, indent: int = 0) -> str:
        """Generate and serialize to an XML string: the events stream
        straight into the XML writer, no ``XMLDocument`` in between."""
        out: list[str] = []
        self._render(out.append, indent)
        return "".join(out)

    def write(self, path: str) -> None:
        """Stream the document to a UTF-8 file in O(depth) memory: the
        bytes of ``xml().encode()`` without ever holding them."""
        with open(path, "w", encoding="utf-8", newline="") as handle:
            self._render(handle.write)

    def _render(self, write, indent: int = 0) -> None:
        writer = XMLWriter(write, indent)
        self.events(writer)
        writer.close()

    # -- event helpers -----------------------------------------------------------

    def _start(self, label: str) -> None:
        self._sink.start_element(label, None)

    def _end(self) -> None:
        self._sink.end_element(None)

    def _leaf(self, label: str) -> None:
        self._sink.start_element(label, None)
        self._sink.end_element(None)

    def _chars(self, lo: int, hi: int) -> None:
        words = self._words(lo, hi)
        if words:
            self._sink.characters(words)

    def _words(self, lo: int, hi: int) -> str:
        if not self.text_content:
            return ""
        count = self._rng.randint(lo, hi)
        return " ".join(self._rng.choice(_WORDS) for _ in range(count))

    # -- scaling helpers ---------------------------------------------------------

    def _n(self, base: int) -> int:
        """A scaled deterministic count."""
        return max(1, round(base * self.scale))

    def _chance(self, p: float) -> bool:
        return self._rng.random() < p

    def _between(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    # -- sections ------------------------------------------------------------------

    def _regions(self) -> None:
        self._start("regions")
        for continent in _CONTINENTS:
            self._start(continent)
            # Europe is the biggest region, as in XMark.
            base = 100 if continent == "europe" else 55
            for _ in range(self._n(base)):
                self._item()
            self._end()
        self._end()

    def _item(self) -> None:
        self._start("item")
        self._leaf("location")
        self._leaf("quantity")
        self._leaf("name")
        self._leaf("payment")
        self._description(depth=0)
        self._leaf("shipping")
        for _ in range(self._between(1, 3)):
            self._leaf("incategory")
        if self._chance(0.8):
            self._start("mailbox")
            for _ in range(self._between(0, 3)):
                self._start("mail")
                self._leaf("from")
                self._leaf("to")
                self._leaf("date")
                self._text_elem()
                self._end()
            self._end()
        self._end()

    def _description(self, depth: int) -> None:
        self._start("description")
        if depth < 3 and self._chance(0.35):
            self._parlist(depth + 1)
        else:
            self._text_elem()
        self._end()

    def _parlist(self, depth: int) -> None:
        self._start("parlist")
        for _ in range(self._between(2, 4)):
            self._start("listitem")
            if depth < 3 and self._chance(0.25):
                self._parlist(depth + 1)
            else:
                self._text_elem()
            self._end()
        self._end()

    def _text_elem(self) -> None:
        """A <text> element with inline keyword/emph/bold children.

        XMark's mixed content nests inline markup; a small fraction of
        keywords contain an emph (this is what satisfies Q13's
        ``.//keyword/emph`` and Q14's ``.//keyword//emph`` predicates).
        """
        self._start("text")
        self._chars(3, 12)
        for _ in range(self._between(0, 2)):
            self._start("keyword")
            self._chars(1, 2)
            if self._chance(0.08):
                self._leaf("emph")
            self._end()
        for _ in range(self._between(0, 1)):
            self._leaf("emph")
        for _ in range(self._between(0, 1)):
            self._leaf("bold")
        self._end()

    def _categories(self) -> None:
        self._start("categories")
        for _ in range(self._n(60)):
            self._start("category")
            self._leaf("name")
            self._description(depth=2)
            self._end()
        self._end()

    def _catgraph(self) -> None:
        self._start("catgraph")
        for _ in range(self._n(120)):
            self._leaf("edge")
        self._end()

    def _people(self) -> None:
        self._start("people")
        for _ in range(self._n(500)):
            self._start("person")
            self._leaf("name")
            self._leaf("emailaddress")
            if self._chance(0.5):
                self._leaf("phone")
            if self._chance(0.6):
                self._start("address")
                self._leaf("street")
                self._leaf("city")
                self._leaf("country")
                self._leaf("zipcode")
                self._end()
            if self._chance(0.4):
                self._leaf("homepage")
            if self._chance(0.3):
                self._leaf("creditcard")
            if self._chance(0.5):
                self._start("profile")
                for _ in range(self._between(0, 3)):
                    self._leaf("interest")
                if self._chance(0.6):
                    self._leaf("education")
                if self._chance(0.7):
                    self._leaf("gender")
                self._leaf("business")
                if self._chance(0.7):
                    self._leaf("age")
                self._end()
            if self._chance(0.25):
                self._start("watches")
                for _ in range(self._between(1, 2)):
                    self._leaf("watch")
                self._end()
            self._end()
        self._end()

    def _open_auctions(self) -> None:
        self._start("open_auctions")
        for _ in range(self._n(150)):
            self._start("open_auction")
            self._leaf("initial")
            if self._chance(0.5):
                self._leaf("reserve")
            for _ in range(self._between(0, 4)):
                self._start("bidder")
                self._leaf("date")
                self._leaf("time")
                self._leaf("increase")
                self._end()
            self._leaf("current")
            self._leaf("itemref")
            self._leaf("seller")
            self._annotation()
            self._leaf("quantity")
            self._leaf("type")
            self._end()
        self._end()

    def _closed_auctions(self) -> None:
        self._start("closed_auctions")
        for _ in range(self._n(200)):
            self._start("closed_auction")
            self._leaf("seller")
            self._leaf("buyer")
            self._leaf("itemref")
            self._leaf("price")
            self._leaf("date")
            self._leaf("quantity")
            self._leaf("type")
            self._annotation(rich=True)
            self._end()
        self._end()

    def _annotation(self, rich: bool = False) -> None:
        self._start("annotation")
        self._leaf("author")
        self._start("description")
        if rich and self._chance(0.7):
            self._parlist(depth=1)
        else:
            self._text_elem()
        self._end()
        self._end()
