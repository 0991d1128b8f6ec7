"""Lexer and recursive-descent parser for the Core XPath fragment.

Accepts both the explicit syntax of Definition C.1
(``descendant::keyword``) and the standard abbreviations used by the
paper's queries (Figure 2):

- ``//x``   -> a descendant step,
- ``/x/y``  -> absolute child steps,
- ``x/y``   -> relative child steps (inside predicates),
- ``.//x``  -> descendant step relative to the context node,
- ``.``     -> the context node itself (only as a path prefix),
- ``@a``    -> attribute step,
- ``e1 and e2``, ``e1 or e2``, ``not(e)``, parentheses in predicates,
- multiple predicates ``s[p][q]`` (conjoined).
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import List, Optional

from repro.xpath.ast import Axis, Path, Pred, PredAnd, PredNot, PredOr, PredPath, Step


class XPathSyntaxError(ValueError):
    """Raised on malformed query strings.

    Structured: :attr:`offset` is the character position the parse
    failed at (``None`` only for errors with no single position) and
    :attr:`query` the offending query string, so callers -- the CLI and
    the ``repro serve`` daemon's 400 responses -- can point *into* the
    query instead of dumping a traceback.  :meth:`to_dict` is the one
    JSON shape both reuse.
    """

    def __init__(
        self,
        message: str,
        *,
        offset: Optional[int] = None,
        query: Optional[str] = None,
    ) -> None:
        self.message = message
        self.offset = offset
        self.query = query
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)

    def to_dict(self) -> dict:
        """The structured-error payload (shared by CLI and daemon)."""
        out = {"kind": "syntax", "message": self.message}
        if self.offset is not None:
            out["offset"] = self.offset
        if self.query is not None:
            out["query"] = self.query
        return out

    def describe(self) -> str:
        """Multi-line rendering with a caret under the failure offset::

            syntax error: expected ']', got '(' (offset 5)
              //a[b(
                   ^
        """
        head = f"syntax error: {self.message}"
        if self.offset is None:
            return head
        head = f"{head} (offset {self.offset})"
        if self.query is None:
            return head
        return f"{head}\n  {self.query}\n  {' ' * self.offset}^"


_AXES = {axis.value: axis for axis in Axis}

#: One token per match: the punctuation (a two-character token before
#: its one-character prefix), or a name -- captured -- else, uncaptured,
#: any other character but whitespace, which is an error.  ``findall``
#: skips whitespace between matches, and a bad character lists as ``""``.
_TOKEN = re.compile(
    r"(//|/|::|\.\.|[.\[\]()*@]|[A-Za-z_][A-Za-z0-9_-]*)|[^ \t\r\n]"
)

#: Deepest nesting of ``[`` and ``(`` the parser accepts.  Every stage
#: after it -- binding, the kernel's predicate masks, ``explain`` --
#: recurses once per level; at this depth each still runs under the
#: interpreter's default recursion limit with room to spare (DESIGN.md,
#: "The cold path").
MAX_NESTING = 64


class _Lexer:
    """Produces a token list: names, punctuation, keywords, from one
    ``findall`` of :data:`_TOKEN`.

    Each token's character offset into the query text is the parallel
    :attr:`offsets` list, found again by the same pattern when an error
    first needs one (a query that parses never does).
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: List[str] = _TOKEN.findall(text)
        if "" in self.tokens:
            at = self.offsets[self.tokens.index("")]
            raise XPathSyntaxError(
                f"unexpected character {text[at]!r}", offset=at, query=text
            )

    @cached_property
    def offsets(self) -> List[int]:
        return [m.start() for m in _TOKEN.finditer(self.text)]


class _Parser:
    def __init__(self, lexer: _Lexer) -> None:
        self.lexer = lexer
        self.text = lexer.text
        # Two sentinels: ``peek(1)`` at the last token reads ``None``.
        self.tokens = lexer.tokens + [None, None]
        self.end = len(lexer.tokens)
        self.pos = 0
        self.depth = 0  # brackets open: '[' and '('

    # -- token helpers --------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[str]:
        return self.tokens[self.pos + offset]

    def _at(self, pos: Optional[int] = None) -> int:
        """Character offset of the token at ``pos`` (default: current),
        or the end of the text once the tokens run out."""
        i = self.pos if pos is None else pos
        return self.lexer.offsets[i] if i < self.end else len(self.text)

    def error(self, message: str, *, at: Optional[int] = None) -> XPathSyntaxError:
        return XPathSyntaxError(
            message,
            offset=self._at() if at is None else at,
            query=self.text,
        )

    def take(self) -> str:
        if self.pos >= self.end:
            raise self.error("unexpected end of query")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise self.error(
                f"expected {tok!r}, got {got!r}", at=self._at(self.pos - 1)
            )

    def open(self) -> None:
        """Take the ``[`` or ``(`` at the current token, one level deeper."""
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} brackets")
        self.depth += 1
        self.pos += 1

    def close(self, tok: str) -> None:
        self.expect(tok)
        self.depth -= 1

    def at_end(self) -> bool:
        return self.pos >= self.end

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Path:
        path = self.parse_path()
        if not self.at_end():
            raise self.error(f"trailing tokens from {self.peek()!r}")
        return path

    def parse_path(self) -> Path:
        tokens = self.tokens
        tok = tokens[self.pos]
        absolute = tok == "/" or tok == "//"
        if tok == ".":
            # context-node prefix: './/x' or plain '.'
            self.pos += 1
            tok = tokens[self.pos]
            if tok != "/" and tok != "//":
                return Path(False, ())
        if tok == "/" or tok == "//":
            self.pos += 1
        steps = [self.parse_step(descendant=(tok == "//"))]
        tok = tokens[self.pos]
        while tok == "/" or tok == "//":
            self.pos += 1
            steps.append(self.parse_step(descendant=(tok == "//")))
            tok = tokens[self.pos]
        return Path(absolute, tuple(steps))

    def parse_step(self, descendant: bool) -> Step:
        axis = Axis.DESCENDANT if descendant else Axis.CHILD
        tok = self.tokens[self.pos]
        if tok == "..":
            if descendant:
                raise self.error("'..' cannot follow '//'")
            self.pos += 1
            return Step(Axis.PARENT, "node()", None)
        if tok == "@":
            self.pos += 1
            axis = Axis.ATTRIBUTE
        elif self.tokens[self.pos + 1] == "::":
            if tok not in _AXES:
                raise self.error(f"unsupported axis {tok!r}")
            if descendant:
                raise self.error(
                    "explicit axis cannot follow '//' (write /axis::test)"
                )
            self.pos += 2
            axis = _AXES[tok]
        test = self.parse_node_test()
        pred = None
        while self.tokens[self.pos] == "[":
            self.open()
            p = self.parse_pred()
            self.close("]")
            pred = p if pred is None else PredAnd(pred, p)
        return Step(axis, test, pred)

    def parse_node_test(self) -> str:
        tok = self.take()
        if tok == "*":
            return "*"
        if tok in ("node", "text") and self.peek() == "(":
            self.take()
            self.expect(")")
            return f"{tok}()"
        if tok in ("//", "/", "[", "]", "(", ")", "::", "@", "."):
            raise self.error(
                f"expected a node test, got {tok!r}", at=self._at(self.pos - 1)
            )
        return tok

    # predicates: 'or' < 'and' < unary
    def parse_pred(self) -> Pred:
        left = self.parse_pred_and()
        while self.peek() == "or":
            self.take()
            right = self.parse_pred_and()
            left = PredOr(left, right)
        return left

    def parse_pred_and(self) -> Pred:
        left = self.parse_pred_atom()
        while self.peek() == "and":
            self.take()
            right = self.parse_pred_atom()
            left = PredAnd(left, right)
        return left

    def parse_pred_atom(self) -> Pred:
        tok = self.peek()
        if tok == "not" and self.peek(1) == "(":
            self.take()
            self.open()
            inner = self.parse_pred()
            self.close(")")
            return PredNot(inner)
        if tok == "(":
            self.open()
            inner = self.parse_pred()
            self.close(")")
            return inner
        return PredPath(self.parse_path())


def parse_xpath(query: str) -> Path:
    """Parse a query string into a :class:`~repro.xpath.ast.Path`.

    Malformed queries raise :class:`XPathSyntaxError` carrying the
    failure offset and the query text (see its ``to_dict``/``describe``).

    >>> p = parse_xpath("//a//b[c]")
    >>> len(p.steps), p.absolute
    (2, True)
    """
    return _Parser(_Lexer(query)).parse_query()
