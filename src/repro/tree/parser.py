"""A small, dependency-free, event-driven XML parser.

Supports the subset of XML needed for the paper's workloads: elements,
attributes, character data, comments, CDATA, processing instructions, an
optional XML declaration and DOCTYPE (both skipped), and the five standard
entities.  Namespaces are treated textually (prefix kept in the label).

The tokenizer is one *bulk scan* (:class:`_Scan`): the text is cut at
``<`` with ``str.split``, a bounded slice at a time, each **distinct**
piece ``tag>text`` is classified once -- the tag by one precompiled
pattern, :data:`_TAG`, its attributes by :func:`_attributes`, the text by
:func:`_decode_entities` if it holds an ``&`` -- and every piece becomes
a small integer code through a C-level ``map``.  Balance, the single
root and matching end tags are checked on those codes with numpy, so an
element costs no Python call of its own.  Both consumers sit on it:

- :func:`scan_arrays` turns the codes into label ids and balanced
  parentheses, the arguments of :class:`repro.tree.binary.BinaryTree`
  -- the ingestion hot path, which never allocates an ``XMLNode``;
- :func:`parse_events` replays them as ``start_element`` /
  ``characters`` / ``end_element`` calls on a handler (the
  :class:`EventHandler` protocol) -- :func:`parse_xml`, which
  materializes an :class:`XMLNode` tree (the legacy pointer view, still
  used by tests and serialization), and
  :class:`repro.tree.builder.TreeBuilder` for the ``#text`` encoding.

Every ``<`` outside a comment, CDATA or PI body starts markup (it is
rejected in an attribute value), so only a section whose body holds one
is cut in the wrong place; it is resolved *at its offset in the text*
with the same pattern, never by a second scanner.  No quantifier of
:data:`_TAG` can re-split what it matched, section ends are found with
``str.find``, and a piece that is no tag is diagnosed once, by
:func:`_bad_markup`, so hostile input stays linear; nesting is an array
of levels, so depth is bounded by memory only.
"""

from __future__ import annotations

import re
from typing import Optional, Protocol

import numpy as np

from repro.tree.binary import ID_DTYPE, match_parens
from repro.tree.document import XMLDocument

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_S = r"[ \t\r\n]"
_VALUE = r"""(?:"[^"<]*"|'[^'<]*')"""
_TAG = re.compile(
    rf"""(?: ({_NAME})                                    # 1 start-tag name
             ((?:{_S}+{_NAME}{_S}*={_S}*{_VALUE})*)       # 2 attributes
             {_S}*(/?)>                                   # 3 empty-element /
           | /({_NAME}){_S}*>                             # 4 end-tag name
           | (!--|!\[CDATA\[|\?)                          # 5 section opener
         )""",
    re.VERBOSE,
)
_ATTRIBUTE = re.compile(
    rf"""{_S}+({_NAME}){_S}*={_S}*(?:"([^"]*)"|'([^']*)')"""
)
_NAME_AT = re.compile(_NAME).match
_SPACE_AT = re.compile(rf"{_S}*").match
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
# Section opener (group 5 of _TAG) -> (terminator, what to call it).
_SECTIONS = {
    "!--": ("-->", "comment"),
    "![CDATA[": ("]]>", "CDATA section"),
    "?": ("?>", "processing instruction"),
}


class XMLSyntaxError(ValueError):
    """Raised when the input is not well-formed XML."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


class EventHandler(Protocol):
    """What the tokenizer calls while walking a document."""

    def start_element(self, name: str, attrs: Optional[dict]) -> None: ...

    def characters(self, data: str) -> None: ...

    def end_element(self, name: str) -> None: ...


def _char_ref(name: str, position: int) -> str:
    """Decode ``#N`` / ``#xH`` character-reference payloads strictly.

    Malformed digits, out-of-range code points (> U+10FFFF or negative)
    and surrogates (U+D800..U+DFFF, not XML characters) are all reported
    as :class:`XMLSyntaxError` with the reference's offset rather than
    leaking a bare ``ValueError`` from ``int()`` / ``chr()``.
    """
    try:
        if name.startswith("#x") or name.startswith("#X"):
            code = int(name[2:], 16)
        else:
            code = int(name[1:])
    except ValueError:
        raise XMLSyntaxError(
            f"malformed character reference &{name};", position
        ) from None
    if code < 0 or code > 0x10FFFF:
        raise XMLSyntaxError(
            f"character reference &{name}; out of range", position
        )
    if 0xD800 <= code <= 0xDFFF:
        raise XMLSyntaxError(
            f"character reference &{name}; is a surrogate code point",
            position,
        )
    return chr(code)


def _decode_entities(text: str, base: int) -> str:
    """Replace &name; and &#N; references in ``text`` (which has some)."""
    head, *pieces = text.split("&")
    out = [head]
    position = base + len(head)  # of the "&" that starts the next piece
    for piece in pieces:
        name, semicolon, rest = piece.partition(";")
        if not semicolon:
            raise XMLSyntaxError("unterminated entity reference", position)
        if name.startswith("#"):
            out.append(_char_ref(name, position))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XMLSyntaxError(f"unknown entity &{name};", position)
        out.append(rest)
        position += len(piece) + 1
    return "".join(out)


def _section_end(text: str, body: int, opener: str) -> int:
    """Just past the terminator of the section whose body starts at
    ``body`` (right after ``<`` + ``opener``)."""
    terminator, what = _SECTIONS[opener]
    end = text.find(terminator, body)
    if end == -1:
        raise XMLSyntaxError(f"unterminated {what}", body - len(opener) - 1)
    return end + len(terminator)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments, PIs, declarations between nodes."""
    while True:
        pos = _SPACE_AT(text, pos).end()
        if text.startswith("<!--", pos):
            pos = _section_end(text, pos + 4, "!--")
        elif text.startswith("<?", pos):
            pos = _section_end(text, pos + 2, "?")
        elif text.startswith("<!DOCTYPE", pos):
            pos = _doctype_end(text, pos)
        else:
            return pos


def _doctype_end(text: str, pos: int) -> int:
    """Just past the ``>`` that closes the DOCTYPE at ``pos``: the first
    one outside the brackets of an internal subset."""
    depth = 0
    for mark in _DOCTYPE_MARK.finditer(text, pos):
        if mark[0] == "[":
            depth += 1
        elif mark[0] == "]":
            depth -= 1
        elif depth == 0:
            return mark.end()
    raise XMLSyntaxError("unterminated DOCTYPE", pos)


def _attributes(text: str, start: int, end: int) -> dict[str, str]:
    """The attributes of one start tag, from its blob ``text[start:end]``."""
    attrs: dict[str, str] = {}
    for match in _ATTRIBUTE.finditer(text, start, end):
        name = match[1]
        if name in attrs:
            raise XMLSyntaxError(
                f"duplicate attribute {name!r}", match.start(1)
            )
        quoted = match.lastindex  # 2: a "..." value matched, 3: '...'
        value = match[quoted]
        if "&" in value:
            value = _decode_entities(value, match.start(quoted))
        attrs[name] = value
    return attrs


def _bad_markup(text: str, pos: int) -> XMLSyntaxError:
    """Why the ``<`` just before ``pos`` starts no tag.

    Runs at most once per document (its result is raised): it walks the
    tag piece by piece to name the first thing that is wrong, and where.
    """
    closing = text.startswith("/", pos)
    name = _NAME_AT(text, pos + closing)
    if name is None:
        return XMLSyntaxError("expected a name", pos + closing)
    pos = name.end()
    while True:
        spaced = _SPACE_AT(text, pos).end()
        if closing or text.startswith("/", spaced):
            return XMLSyntaxError("expected '>'", spaced)
        if spaced == len(text):
            return XMLSyntaxError("unterminated start tag", spaced)
        name = _NAME_AT(text, spaced)
        if name is None:
            return XMLSyntaxError("expected a name", spaced)
        if spaced == pos:
            return XMLSyntaxError(
                "expected whitespace before an attribute", pos
            )
        pos = _SPACE_AT(text, name.end()).end()
        if not text.startswith("=", pos):
            return XMLSyntaxError("expected '='", pos)
        pos = _SPACE_AT(text, pos + 1).end()
        quote = text[pos : pos + 1]
        if quote not in ("'", '"'):
            return XMLSyntaxError("expected quoted attribute value", pos)
        end = text.find(quote, pos + 1)
        less = text.find("<", pos + 1, len(text) if end == -1 else end)
        if less != -1:
            return XMLSyntaxError("'<' in an attribute value", less)
        if end == -1:
            return XMLSyntaxError("unterminated attribute value", pos)
        pos = end + 1


_SLICE = 1 << 18  # characters cut into pieces at a time (see DESIGN.md)

# A piece's code is ``index << 4 | kind``, plus ``_BADTAIL`` for a good tag
# whose text run holds a bad reference.
_OPEN, _EMPTY, _CLOSE, _SKIP, _SECTION, _ERR, _GONE = range(7)
_BADTAIL = 8
_STEP = np.array((1, 0, -1, 0, 0, 0, 0, 0), dtype=np.int8)  # depth change
_SIZE = np.array((1, 2, 1, 0, 0, 0, 0, 0), dtype=np.int8)  # parentheses


class _Scan:
    """XML text -> one integer code per piece (DESIGN.md, "The tokenizer").

    Every *distinct* piece ``tag>text`` of a slice is classified once; its
    code holds its kind and the id of its name, or with ``replay`` the
    index of its payload ``(kind, name, attrs, text)``.  One leading
    U+FEFF (a decoded UTF-8 byte-order mark) is skipped; offsets stay
    relative to ``text``.
    """

    def __init__(self, text: str, replay: bool = False) -> None:
        self.text = text
        self.names: dict[str, int] = {}  # every tag name met -> its id
        self.tags: dict[str, int] = {}  # attribute-free tag -> its code
        # replay: (kind, name, attrs, text, name id); 0 is a swallowed piece
        self.payloads = [(_SKIP, None, None, "", 0)] if replay else None
        # (pieces before, start, end, after, where the last piece's markup
        # ends or None when the slice needed resolving)
        self.slices: list[tuple] = []
        self.codes: list[np.ndarray] = []
        self.error: Optional[XMLSyntaxError] = None  # the first lexical one
        pos = _skip_misc(text, 1 if text.startswith("\ufeff") else 0)
        if not text.startswith("<", pos) or text.startswith("</", pos):
            raise XMLSyntaxError("expected an element", pos)
        if _NAME_AT(text, pos + 1) is None:
            raise XMLSyntaxError("expected a name", pos + 1)
        self._run(pos)

    def _classify(self, source: str, start: int) -> tuple[int, int, int]:
        """The code of the markup at ``source[start:]`` (just past its
        ``<``) and the text run after it, where the markup ends and where
        the next ``<`` is.
        In a piece (``start`` 0) what is no tag is ``_ERR`` and a section
        cut short by the split ``_SECTION``; in the document both are
        settled or raised.  A bad reference in the text run is flagged
        ``_BADTAIL`` (and kept), not raised: the tag before it counts."""
        whole = source is self.text
        match = _TAG.match(source, start)
        if match is None:
            if whole:
                raise _bad_markup(source, start)
            return _ERR, 0, 0
        name, blob, empty, closed, section = match.groups()
        stop, attrs, lead, index = match.end(), None, "", 0
        if section is not None:
            kind, terminator = _SKIP, _SECTIONS[section][0]
            close = source.find(terminator, stop)
            if close == -1:
                if whole:
                    _section_end(source, stop, section)
                return _SECTION, 0, 0
            if section == "![CDATA[":
                lead = source[stop:close]
            stop = close + len(terminator)
        else:
            kind = _CLOSE if name is None else _EMPTY if empty else _OPEN
            if blob:
                attrs = _attributes(source, match.start(2), match.end(2))
            name = name or closed
            index = self.names.setdefault(name, len(self.names))
        following = source.find("<", stop) % (len(source) + 1)  # -1: the end
        tail = source[stop:following]
        if "&" in tail:
            try:
                tail = _decode_entities(tail, stop)
            except XMLSyntaxError as error:
                kind |= _BADTAIL
                if whole:
                    self.error = error
        if self.payloads is not None:
            self.payloads.append((kind, name, attrs, lead + tail, index))
            index = len(self.payloads) - 1
        return index << 4 | kind, stop, following

    def _run(self, pos: int) -> None:
        """Scan from the ``<`` at ``pos`` to the end of the text, or
        through the slice with the first lexical error."""
        text, tags, replay = self.text, self.tags, self.payloads is not None
        count = 0
        while pos < len(text) and self.error is None:
            end = len(text)
            if end - pos > _SLICE:
                end = text.rfind("<", pos + 1, pos + _SLICE + 1)
                if end == -1:  # no "<" in it: up to the next, or the end
                    end = text.find("<", pos + _SLICE) % (len(text) + 1)
            pieces = text[pos + 1 : end].split("<")
            local = dict.fromkeys(pieces)  # distinct, first occurrence first
            last = pieces[-1]
            mark = last.find(">") + 1  # right for a memoized tag (no "=")
            flagged = False
            for piece in local:
                tag, closed, tail = piece.partition(">")
                code = tags.get(tag) if closed and "&" not in tail else None
                if code is None:
                    try:
                        code, stop, _ = self._classify(piece, 0)
                    except XMLSyntaxError:  # diagnosed in _resolve
                        code, stop = _ERR, 0
                    if piece == last:
                        mark = stop
                    flagged |= code & 15 >= _SECTION
                    # No "=", no quoted ">": the tag is the piece's markup
                    # (a payload is the whole piece's, never shared).
                    if code & 15 <= _CLOSE and "=" not in tag and not replay:
                        tags[tag] = code
                local[piece] = code
            codes = np.fromiter(
                map(local.__getitem__, pieces), np.int32, len(pieces)
            )
            mark = None if flagged else end - len(last) + mark
            self.slices.append((count, pos + 1, end, count + len(pieces), mark))
            count += len(pieces)
            pos = end
            if flagged:
                codes, pos = self._resolve(pieces, codes, pos)
            self.codes.append(codes)
            del pieces, local, last  # before the next slice is cut, not after

    def _resolve(self, pieces: list, codes: np.ndarray, end: int):
        """Settle, in document order, what the split could not: each such
        piece is classified again *at its offset in the document*, where a
        section sees its whole body (the pieces it was cut into are
        ``_GONE``).  Returns the codes up to the first failure and where
        the next slice starts."""
        text = self.text
        sizes = np.fromiter(map(len, pieces), np.int64, len(pieces))
        starts = self.slices[-1][1] + np.cumsum(sizes + 1) - sizes - 1
        starts = starts.tolist()
        flagged = np.flatnonzero(codes & 15 >= _SECTION).tolist()
        codes = codes.tolist()
        covered = 0
        for i in flagged:
            if i < covered:
                continue
            try:
                codes[i], _, following = self._classify(text, starts[i])
            except XMLSyntaxError as error:
                self.error = error
                del codes[i:]
                break
            if self.error is not None:  # in the text run after a good tag
                del codes[i + 1 :]
                break
            covered = i + 1
            while covered < len(starts) and starts[covered] <= following:
                codes[covered] = _GONE
                covered += 1
            end = max(end, following)
        return np.array(codes, dtype=np.int32), end

    def _start(self, index: int) -> int:
        """Offset of piece ``index`` (just past its ``<``): none is kept,
        the slice is cut again unless the piece is its last."""
        before, start, end, after, _ = next(
            s for s in reversed(self.slices) if s[0] <= index
        )
        if index == after - 1:
            return self.text.rfind("<", start - 1, end) + 1
        pieces = self.text[start:end].split("<")[: index - before]
        return start + sum(map(len, pieces)) + len(pieces)

    def finish(self):
        """Raise the first error of the document, lexical or structural,
        or return ``(codes, parens, names, matching)``: the pieces of the
        document element, their parentheses, the name id of each and
        :func:`repro.tree.binary.match_parens` of them."""
        text = self.text
        codes = np.concatenate(self.codes)
        self.codes.clear()
        if not codes.size:  # the first tag is the first error
            raise self.error
        kind = codes & 7
        closed = np.flatnonzero(np.cumsum(_STEP[kind], dtype=np.int32) == 0)
        if closed.size:  # what follows the root is _skip_misc's
            codes, kind = codes[: closed[0] + 1], kind[: closed[0] + 1]
            self.error = None
        names, sizes = codes >> 4, _SIZE[kind]
        if self.payloads is not None:
            names = np.array([p[4] for p in self.payloads], np.int32)[names]
        ends = np.cumsum(sizes, dtype=np.int32)
        names = np.repeat(names, sizes)
        parens = np.ones(names.size, dtype=np.uint8)
        parens[ends[(kind == _EMPTY) | (kind == _CLOSE)] - 1] = 0
        matching = match_parens(parens)
        order = matching[1]
        at = np.flatnonzero(parens[order] == 0)  # a close follows its open
        shut, opener = order[at], order[at - 1]
        wrong = names[shut] != names[opener]
        if wrong.any():
            where = np.argmin(np.where(wrong, shut, parens.size))
            table = list(self.names)
            tag, name = table[names[shut[where]]], table[names[opener[where]]]
            index = np.searchsorted(ends, shut[where], side="right")
            raise XMLSyntaxError(
                f"mismatched end tag </{tag}> for <{name}>",
                self._start(index) + 1 + len(tag),
            )
        if self.error is not None:
            raise self.error
        # Where the markup of the last piece no section swallowed ends:
        # the root's end tag, or where the input ends inside an element.
        last = np.flatnonzero(codes != _GONE)[-1]
        *_, after, stop = self.slices[-1]
        if last != after - 1 or stop is None:
            match = _TAG.match(text, self._start(last))
            stop = match.end()
            if match[5]:
                stop = _section_end(text, stop, match[5])
        if not closed.size:
            raise XMLSyntaxError("unexpected end of input inside element", stop)
        tail = _skip_misc(text, stop)
        if tail != len(text):
            raise XMLSyntaxError("content after document element", tail)
        return codes, parens, names, matching


def scan_arrays(text: str):
    """XML text -> ``(labels, label_of, parens, matching)``, the arguments
    of :class:`~repro.tree.binary.BinaryTree`, with no per-element Python;
    the label table is the names in order of their first open tag."""
    scan = _Scan(text)
    _, parens, names, matching = scan.finish()
    table = list(scan.names)
    del scan
    opens = names[parens == 1]
    del names
    # Repeated indices keep the last write: reversed, the first occurrence.
    seen = np.full(len(table), -1, dtype=ID_DTYPE)
    seen[opens[::-1]] = np.arange(opens.size - 1, -1, -1)
    used = np.flatnonzero(seen >= 0)
    used = used[np.argsort(seen[used])]
    seen[used] = np.arange(used.size)
    return [table[i] for i in used.tolist()], seen[opens], parens, matching


def parse_events(text: str, handler: EventHandler) -> None:
    """Scan ``text``, then replay it as SAX-style events to ``handler``;
    a document that is not well formed raises before the first event."""
    scan = _Scan(text, replay=True)
    codes = scan.finish()[0]
    start_element = handler.start_element
    characters = handler.characters
    end_element = handler.end_element
    rows = list(map(scan.payloads.__getitem__, (codes >> 4).tolist()))
    rows[-1] = (*rows[-1][:3], "", 0)  # the root's end tag without its tail
    for kind, name, attrs, tail, _ in rows:
        if kind <= _EMPTY:
            # A copy: the payload is every occurrence of this piece.
            start_element(name, dict(attrs) if attrs else None)
            if kind == _EMPTY:
                end_element(name)
        elif kind == _CLOSE:
            end_element(name)
        if tail:
            characters(tail)


def parse_xml(text: str) -> XMLDocument:
    """Parse an XML string into an :class:`XMLDocument`.

    >>> doc = parse_xml("<a><b/><c x='1'>hi</c></a>")
    >>> [child.label for child in doc.root.children]
    ['b', 'c']
    """
    # Imported lazily: builder.py imports this module at load time.
    from repro.tree.builder import XMLNodeBuilder

    handler = XMLNodeBuilder()
    parse_events(text, handler)
    return handler.document()
