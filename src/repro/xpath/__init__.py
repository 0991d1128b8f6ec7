"""Forward Core XPath frontend (Definition C.1).

- :mod:`repro.xpath.ast` -- the abstract syntax,
- :mod:`repro.xpath.parser` -- lexer + recursive-descent parser with the
  usual abbreviations (``//x``, ``x/y``, ``.//x``, ``@a``),
- :mod:`repro.xpath.compiler` -- the XPath -> ASTA compilation scheme of
  Section 4.2.

The test suite checks every strategy's answers against
``tests/oracle_sqlite.py``, which shares nothing with the system but this
package's parser and syntax.
"""

from repro.xpath.ast import Axis, Path, Pred, PredAnd, PredNot, PredOr, PredPath, Step
from repro.xpath.parser import XPathSyntaxError, parse_xpath
from repro.xpath.compiler import compile_xpath

__all__ = [
    "Axis",
    "Path",
    "Step",
    "Pred",
    "PredAnd",
    "PredOr",
    "PredNot",
    "PredPath",
    "parse_xpath",
    "XPathSyntaxError",
    "compile_xpath",
]
