"""Abstract syntax of the forward Core XPath fragment (Definition C.1).

The grammar, with the abbreviations resolved by the parser:

    Core         ::= LocationPath | '/' LocationPath
    LocationPath ::= LocationStep ('/' LocationStep)*
    LocationStep ::= Axis '::' NodeTest ('[' Pred ']')*
    Pred         ::= Pred 'and' Pred | Pred 'or' Pred
                   | 'not' '(' Pred ')' | Core | '(' Pred ')'
    Axis         ::= descendant | child | following-sibling | attribute
    NodeTest     ::= tag | '*' | 'node()' | 'text()'

Multiple predicates on a step are conjoined (pure existence semantics --
there is no positional filtering in this fragment, so ``[p][q]`` ≡
``[p and q]``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Union


class Axis(Enum):
    CHILD = "child"
    DESCENDANT = "descendant"
    FOLLOWING_SIBLING = "following-sibling"
    ATTRIBUTE = "attribute"
    # Backward axes: outside Definition C.1's forward fragment, supported
    # by the mixed pipeline of repro.engine.mixed (the paper's prototype
    # handles backward axes outside the core theory too, Section 6).
    PARENT = "parent"
    ANCESTOR = "ancestor"

    @property
    def is_backward(self) -> bool:
        return self in (Axis.PARENT, Axis.ANCESTOR)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Pred:
    """Base class for predicate expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class PredAnd(Pred):
    left: Pred
    right: Pred

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class PredOr(Pred):
    left: Pred
    right: Pred

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class PredNot(Pred):
    inner: Pred

    def __str__(self) -> str:
        return f"not({self.inner})"


@dataclass(frozen=True)
class PredPath(Pred):
    """An existence test: a relative (or absolute) path."""

    path: "Path"

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class Step:
    """One location step ``axis::test[pred]``."""

    axis: Axis
    test: str  # tag name, "*", "node()" or "text()"
    predicate: Optional[Pred] = None

    def __str__(self) -> str:
        base = f"{self.axis.value}::{self.test}"
        if self.predicate is not None:
            base += f"[{self.predicate}]"
        return base

    def test_matches_any(self) -> bool:
        """True for the wildcard node tests ``*`` and ``node()``."""
        return self.test in ("*", "node()")


@dataclass(frozen=True)
class Path:
    """A location path; ``absolute`` paths start at the document node."""

    absolute: bool
    steps: tuple

    def __str__(self) -> str:
        prefix = "/" if self.absolute else ""
        return prefix + "/".join(str(s) for s in self.steps)

    @staticmethod
    def of(absolute: bool, steps: List[Step]) -> "Path":
        return Path(absolute, tuple(steps))

    def is_descendant_chain(self) -> bool:
        """True when every step is ``descendant::tag`` without predicates.

        These are the paths the hybrid evaluator of Section 4.4 plans for
        (e.g. ``//listitem//keyword//emph``).
        """
        return all(
            s.axis is Axis.DESCENDANT
            and s.predicate is None
            and not s.test_matches_any()
            for s in self.steps
        )

    def has_backward_axes(self) -> bool:
        """True when any step (or nested predicate path) moves upward."""
        return any(
            s.axis.is_backward or pred_has_backward(s.predicate)
            for s in self.steps
        )


def pred_has_backward(pred: Optional[Pred]) -> bool:
    """True when a path nested anywhere in ``pred`` moves upward
    (``None``, a step without a predicate, does not)."""
    if pred is None:
        return False
    if isinstance(pred, (PredAnd, PredOr)):
        return pred_has_backward(pred.left) or pred_has_backward(pred.right)
    if isinstance(pred, PredNot):
        return pred_has_backward(pred.inner)
    if isinstance(pred, PredPath):
        return pred.path.has_backward_axes()
    raise AssertionError(pred)
