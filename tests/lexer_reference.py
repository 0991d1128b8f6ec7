"""The XPath lexer as a character loop: the reference the one-pattern
lexer of :mod:`repro.xpath.parser` is checked against
(``tests/test_xpath_parser.py::TestLexerEquivalence``)."""

from __future__ import annotations

from typing import List, Tuple

from repro.xpath.parser import XPathSyntaxError

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789-")
PUNCT = ["//", "/", "::", "[", "]", "(", ")", "*", "@", "..", "."]


def tokens(text: str) -> Tuple[List[str], List[int]]:
    """``(tokens, offsets)`` of ``text``: whitespace skipped, the first
    punctuation that matches taken, else a name; any other character is
    an :class:`XPathSyntaxError` at its offset."""
    out: List[str] = []
    offsets: List[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        for p in PUNCT:
            if text.startswith(p, i):
                out.append(p)
                offsets.append(i)
                i += len(p)
                break
        else:
            if ch not in _NAME_START:
                raise XPathSyntaxError(
                    f"unexpected character {ch!r}", offset=i, query=text
                )
            j = i + 1
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            out.append(text[i:j])
            offsets.append(i)
            i = j
    return out, offsets
