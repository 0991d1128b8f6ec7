"""A small, dependency-free, event-driven XML parser.

Supports the subset of XML needed for the paper's workloads: elements,
attributes, character data, comments, CDATA, processing instructions, an
optional XML declaration and DOCTYPE (both skipped), and the five standard
entities.  Namespaces are treated textually (prefix kept in the label).

The tokenizer is an *event emitter*: :func:`parse_events` walks the input
once and calls ``start_element`` / ``characters`` / ``end_element`` on a
handler object (the :class:`EventHandler` protocol).  Everything else is a
handler:

- :func:`parse_xml` materializes an :class:`XMLNode` tree (the legacy
  pointer view, still used by tests and serialization);
- :class:`repro.tree.builder.TreeBuilder` records the label id and the
  parenthesis of every event, from which
  :class:`repro.tree.binary.BinaryTree` derives its columns -- the
  streaming ingestion hot path, which never allocates an ``XMLNode``.

One precompiled pattern, :data:`_TOKEN`, matches *a text run and the
markup that ends it* per step, so an element costs one or two regex
matches and no per-character Python.  No quantifier in it can re-split
what it matched, and the pattern matches at every position -- a ``<``
that nothing else accepts takes the empty last alternative and is
diagnosed by :func:`_bad_markup`, the end of input takes ``\\Z`` -- so the
regex engine never searches ahead and hostile input stays linear.
Comment, CDATA and PI bodies are skipped with ``str.find``: their
terminators are multi-character, and a pattern for "anything up to
``-->``" either backtracks or walks the body twice.  Nesting is an
explicit stack, so depth is bounded by memory only.
"""

from __future__ import annotations

import re
from typing import Optional, Protocol

from repro.tree.document import XMLDocument

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_S = r"[ \t\r\n]"
_TOKEN = re.compile(
    rf"""([^<]*)                                          # 1 text run
    (?: < (?: ({_NAME})                                   # 2 start-tag name
              ((?:{_S}+{_NAME}{_S}*={_S}*(?:"[^"]*"|'[^']*'))*)  # 3 attributes
              {_S}*(/?)>                                  # 4 empty-element /
            | /({_NAME}){_S}*>                            # 5 end-tag name
            | (!--|!\[CDATA\[|\?)                         # 6 section opener
            | ()                                          # 7 not markup
          )
      | \Z )""",
    re.VERBOSE,
)
_ATTRIBUTE = re.compile(
    rf"""{_S}+({_NAME}){_S}*={_S}*(?:"([^"]*)"|'([^']*)')"""
)
_NAME_AT = re.compile(_NAME).match
_SPACE_AT = re.compile(rf"{_S}*").match
_DOCTYPE_MARK = re.compile(r"[\[\]>]")
# Section opener (group 6 of _TOKEN) -> (terminator, what to call it).
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
        if end == -1:
            return XMLSyntaxError("unterminated attribute value", pos)
        pos = end + 1


def _scan_element(text: str, pos: int, handler: EventHandler) -> int:
    """Emit the events of the element whose ``<`` is at ``pos``; return
    the offset just past its end tag."""
    start_element = handler.start_element
    characters = handler.characters
    end_element = handler.end_element
    stack: list[str] = []
    push, pop = stack.append, stack.pop
    while True:
        # _TOKEN matches at every offset (see the module docstring), so
        # the matches are contiguous and the loop is only ever left by
        # the break below, a return or a raise.
        for match in _TOKEN.finditer(text, pos):
            chars, name, blob, empty, closed, section, bad = match.groups()
            if chars:
                if "&" in chars:
                    chars = _decode_entities(chars, match.start())
                characters(chars)
            if name is not None:
                if blob:
                    start_element(
                        name, _attributes(text, match.start(3), match.end(3))
                    )
                else:
                    start_element(name, None)
                if not empty:
                    push(name)
                    continue
                end_element(name)
            elif closed is not None:
                name = pop()
                if closed != name:
                    raise XMLSyntaxError(
                        f"mismatched end tag </{closed}> for <{name}>",
                        match.end(5),
                    )
                end_element(closed)
            elif section is not None:
                break
            elif bad is not None:
                raise _bad_markup(text, match.end())
            else:
                raise XMLSyntaxError(
                    "unexpected end of input inside element", match.start()
                )
            if not stack:
                return match.end()
        body = match.end()
        if not stack:  # "<![CDATA[" where the document element should be
            raise XMLSyntaxError("expected a name", body - len(section))
        pos = _section_end(text, body, section)
        if section == "![CDATA[":
            characters(text[body : pos - 3])


def parse_events(text: str, handler: EventHandler) -> None:
    """Scan ``text`` once, emitting SAX-style events to ``handler``.

    One leading U+FEFF (what decoding a UTF-8 file that starts with a
    byte-order mark leaves behind) is skipped; reported offsets stay
    relative to ``text``.
    """
    pos = _skip_misc(text, 1 if text.startswith("\ufeff") else 0)
    if not text.startswith("<", pos) or text.startswith("</", pos):
        raise XMLSyntaxError("expected an element", pos)
    pos = _skip_misc(text, _scan_element(text, pos, handler))
    if pos != len(text):
        raise XMLSyntaxError("content after document element", pos)


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
