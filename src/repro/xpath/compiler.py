"""Compilation of Core XPath into ASTAs (Section 4.2).

The scheme follows the paper exactly: one state per query step, at most
two kinds of transitions per state --

- a *progress* transition fired on the step's node test, whose formula
  conjoins the continuation into the next step with the step's predicate
  formula (and which is selecting, ⇒, on the final step);
- a *recursion* transition that keeps scanning: ``↓1 q ∨ ↓2 q`` for the
  descendant axis (whole subtree), ``↓2 q`` for child / attribute /
  following-sibling (sibling spine).

Running the compiler on ``//a//b[c]`` reproduces Example 4.1's automaton
verbatim (see ``tests/test_compiler.py``), and on
``//x[(a1 or a2) and ... ]`` the linear-size automaton of Example C.1.
"""

from __future__ import annotations

from typing import List

from repro.asta.automaton import ASTA, ASTATransition
from repro.asta.formula import Formula, TRUE, down, fand, fnot, for_
from repro.automata.labelset import ANY, LabelSet
from repro.xpath.ast import Axis, Path, Pred, PredAnd, PredNot, PredOr, PredPath, Step
from repro.xpath.parser import parse_xpath


class XPathCompileError(ValueError):
    """Raised for constructs outside the supported fragment."""


def require_absolute(path: Path) -> None:
    """The one refusal of a relative top-level path: no strategy
    evaluates one, so :meth:`repro.engine.api.Engine.prepare` raises it
    before resolving a strategy, and the compiler for direct callers."""
    if not path.absolute:
        raise XPathCompileError("top-level queries must be absolute (start with /)")


class _Compiler:
    def __init__(self, wildcard_labels=None) -> None:
        self.states: List[str] = []
        self.transitions: List[ASTATransition] = []
        self.wildcard = (
            ANY if wildcard_labels is None else LabelSet(wildcard_labels)
        )

    def fresh(self, hint: str) -> str:
        name = f"q{len(self.states)}_{hint}"
        self.states.append(name)
        return name

    def add(self, q: str, labels: LabelSet, selecting: bool, formula: Formula) -> None:
        self.transitions.append(ASTATransition(q, labels, selecting, formula))

    # -- steps -----------------------------------------------------------------

    def compile_steps(self, steps: tuple, idx: int, selecting: bool) -> str:
        """Scan state for ``steps[idx:]``; entered at each candidate node."""
        step = steps[idx]
        last = idx == len(steps) - 1
        q = self.fresh(_hint(step))
        # Recursion transition: how the scan continues past a candidate.
        if step.axis is Axis.DESCENDANT:
            self.add(q, ANY, False, for_(down(1, q), down(2, q)))
        else:
            self.add(q, ANY, False, down(2, q))
        # Progress transition: fired when the node test matches.
        phi = TRUE
        if not last:
            phi = self.entry(steps, idx + 1, selecting)
        if step.predicate is not None:
            phi = fand(self.compile_pred(step.predicate), phi)
        self.add(q, _test_labels(step, self.wildcard), selecting and last, phi)
        return q

    def entry(self, steps: tuple, idx: int, selecting: bool) -> Formula:
        """Formula entering ``steps[idx:]`` from a freshly matched node."""
        nxt = self.compile_steps(steps, idx, selecting)
        if steps[idx].axis is Axis.FOLLOWING_SIBLING:
            return down(2, nxt)
        # child, attribute and descendant all start below the first child.
        return down(1, nxt)

    # -- predicates --------------------------------------------------------------

    def compile_pred(self, pred: Pred) -> Formula:
        if isinstance(pred, PredAnd):
            return fand(self.compile_pred(pred.left), self.compile_pred(pred.right))
        if isinstance(pred, PredOr):
            return for_(self.compile_pred(pred.left), self.compile_pred(pred.right))
        if isinstance(pred, PredNot):
            return fnot(self.compile_pred(pred.inner))
        if isinstance(pred, PredPath):
            path = pred.path
            if path.absolute:
                raise XPathCompileError(
                    "absolute paths inside predicates are not supported"
                )
            if not path.steps:
                return TRUE  # '.' always exists
            return self.entry(path.steps, 0, selecting=False)
        raise AssertionError(pred)


def _hint(step: Step) -> str:
    test = step.test.replace("(", "").replace(")", "").replace("*", "star")
    return f"{step.axis.value[:4]}_{test}"


def _test_labels(step: Step, wildcard: LabelSet) -> LabelSet:
    test = step.test
    if step.axis is Axis.ATTRIBUTE:
        if test in ("*", "node()"):
            raise XPathCompileError("attribute::* is not supported")
        return LabelSet.of("@" + test)
    if test == "node()":
        return ANY
    if test == "*":
        return wildcard
    if test == "text()":
        return LabelSet.of("#text")
    return LabelSet.of(test)


def compile_xpath(query: "str | Path", wildcard_labels=None) -> ASTA:
    """Compile a query (string or parsed :class:`Path`) into an ASTA.

    ``wildcard_labels`` resolves the ``*`` node test: None (the default)
    compiles it to Σ, which is exact for element-only documents (the
    paper's setting).  When the document encodes attributes/text as
    ``@name`` / ``#text`` labels, pass its *element* label inventory so
    that ``*`` excludes them (the :class:`~repro.engine.api.Engine` does
    this automatically).

    >>> asta = compile_xpath("//a//b[c]")
    >>> len(asta.states), len(asta.transitions)
    (3, 6)
    """
    path = parse_xpath(query) if isinstance(query, str) else query
    require_absolute(path)
    if not path.steps:
        raise XPathCompileError("empty path")
    if path.has_backward_axes():
        raise XPathCompileError(
            "backward axes are outside the forward fragment; evaluate via "
            "Engine (mixed pipeline) instead of compiling directly"
        )
    first = path.steps[0]
    if first.axis in (Axis.FOLLOWING_SIBLING, Axis.ATTRIBUTE):
        raise XPathCompileError(
            f"axis {first.axis.value} cannot start an absolute path"
        )
    comp = _Compiler(wildcard_labels)
    top = comp.compile_steps(path.steps, 0, selecting=True)
    return ASTA(comp.states, [top], comp.transitions)
