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


_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CHARS = _NAME_START | set("0123456789-")

_AXES = {axis.value: axis for axis in Axis}


class _Lexer:
    """Produces a token list: names, punctuation, keywords.

    Each token's character offset into the query text is recorded in
    the parallel :attr:`offsets` list, so parse errors can point at the
    exact position they arose from.
    """

    PUNCT = ["//", "/", "::", "[", "]", "(", ")", "*", "@", "..", "."]

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: List[str] = []
        self.offsets: List[int] = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                i += 1
                continue
            matched = False
            for p in self.PUNCT:
                if text.startswith(p, i):
                    # Avoid splitting names containing '.' is moot: names
                    # cannot contain '.', so '.' is always punctuation.
                    self.tokens.append(p)
                    self.offsets.append(i)
                    i += len(p)
                    matched = True
                    break
            if matched:
                continue
            if ch in _NAME_START:
                j = i + 1
                while j < n and text[j] in _NAME_CHARS:
                    j += 1
                self.tokens.append(text[i:j])
                self.offsets.append(i)
                i = j
                continue
            raise XPathSyntaxError(
                f"unexpected character {ch!r}", offset=i, query=text
            )


class _Parser:
    def __init__(self, lexer: _Lexer) -> None:
        self.text = lexer.text
        self.tokens = lexer.tokens
        self.offsets = lexer.offsets
        self.pos = 0

    # -- token helpers --------------------------------------------------------

    def peek(self, offset: int = 0) -> Optional[str]:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def _at(self, pos: Optional[int] = None) -> int:
        """Character offset of the token at ``pos`` (default: current),
        or the end of the text once the tokens run out."""
        i = self.pos if pos is None else pos
        return self.offsets[i] if i < len(self.offsets) else len(self.text)

    def error(self, message: str, *, at: Optional[int] = None) -> XPathSyntaxError:
        return XPathSyntaxError(
            message,
            offset=self._at() if at is None else at,
            query=self.text,
        )

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of query")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        at = self._at()
        got = self.take()
        if got != tok:
            raise self.error(f"expected {tok!r}, got {got!r}", at=at)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    # -- grammar ---------------------------------------------------------------

    def parse_query(self) -> Path:
        path = self.parse_path()
        if not self.at_end():
            raise self.error(f"trailing tokens from {self.peek()!r}")
        return path

    def parse_path(self) -> Path:
        absolute = False
        steps: List[Step] = []
        tok = self.peek()
        if tok == ".":
            # context-node prefix: './/x' or plain '.'
            self.take()
            if self.peek() in ("//", "/"):
                sep = self.take()
                steps.append(self.parse_step(descendant=(sep == "//")))
            else:
                return Path.of(False, [])
        elif tok == "//":
            self.take()
            absolute = True
            steps.append(self.parse_step(descendant=True))
        elif tok == "/":
            self.take()
            absolute = True
            steps.append(self.parse_step(descendant=False))
        else:
            steps.append(self.parse_step(descendant=False))
        while self.peek() in ("/", "//"):
            sep = self.take()
            steps.append(self.parse_step(descendant=(sep == "//")))
        return Path.of(absolute, steps)

    def parse_step(self, descendant: bool) -> Step:
        axis = Axis.DESCENDANT if descendant else Axis.CHILD
        tok = self.peek()
        if tok == "..":
            if descendant:
                raise self.error("'..' cannot follow '//'")
            self.take()
            return Step(Axis.PARENT, "node()", None)
        if tok == "@":
            self.take()
            axis = Axis.ATTRIBUTE
            test = self.parse_node_test()
        elif self.peek(1) == "::":
            if tok not in _AXES:
                raise self.error(f"unsupported axis {tok!r}")
            if descendant:
                raise self.error(
                    "explicit axis cannot follow '//' (write /axis::test)"
                )
            self.take()
            self.take()
            axis = _AXES[tok]
            test = self.parse_node_test()
        else:
            test = self.parse_node_test()
        pred = None
        while self.peek() == "[":
            self.take()
            p = self.parse_pred()
            self.expect("]")
            pred = p if pred is None else PredAnd(pred, p)
        return Step(axis, test, pred)

    def parse_node_test(self) -> str:
        at = self._at()
        tok = self.take()
        if tok == "*":
            return "*"
        if tok in ("node", "text") and self.peek() == "(":
            self.take()
            self.expect(")")
            return f"{tok}()"
        if tok in ("//", "/", "[", "]", "(", ")", "::", "@", "."):
            raise self.error(f"expected a node test, got {tok!r}", at=at)
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
            self.take()
            inner = self.parse_pred()
            self.expect(")")
            return PredNot(inner)
        if tok == "(":
            self.take()
            inner = self.parse_pred()
            self.expect(")")
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
