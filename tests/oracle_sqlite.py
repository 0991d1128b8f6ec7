"""A query oracle that shares nothing with the system's tree layer.

The document is parsed by the stdlib (``xml.etree.ElementTree``), laid
out as one ``(pre, post, parent, label)`` row per node in an in-memory
``sqlite3`` table, and every Core XPath step is answered by SQL over the
pre/post plane: ``u`` is an ancestor of ``v`` iff ``pre(u) < pre(v)`` and
``post(u) > post(v)``.  Nothing of ``TreeBuilder``, ``BinaryTree`` or
``xpath/reference.py`` is imported -- only the XPath *parser*, whose AST
is the query -- so a bug in the columns every strategy and the reference
evaluator share shows up here as a disagreement.

The ``@attr`` / ``#text`` encoding mirrored from the system: per element
one ``@name`` child per attribute in source order, then one ``#text``
child iff the element has any non-whitespace character data directly
inside it (its ``.text`` or a child's ``.tail``), then its element
children.  ``pre`` is the node id the strategies answer with.
"""

from __future__ import annotations

import sqlite3
import xml.etree.ElementTree as ET
from itertools import count
from typing import List

from repro.xpath.ast import Axis, Path, PredAnd, PredNot, PredOr, PredPath
from repro.xpath.parser import parse_xpath

DOCUMENT = -1
"""``pre`` of the document node: parent of the root, ancestor of all."""

_AXIS_SQL = {
    Axis.CHILD: "{n}.parent = {c}.pre",
    Axis.ATTRIBUTE: "{n}.parent = {c}.pre AND substr({n}.label, 1, 1) = '@'",
    Axis.DESCENDANT: "{n}.pre > {c}.pre AND {n}.post < {c}.post",
    Axis.FOLLOWING_SIBLING: "{n}.parent = {c}.parent AND {n}.pre > {c}.pre",
    Axis.PARENT: "{n}.pre = {c}.parent",
    Axis.ANCESTOR: "{n}.pre < {c}.pre AND {n}.post > {c}.post",
}


def _rows(xml: str, encode_attributes: bool, encode_text: bool):
    """``(pre, post, parent, label)`` per node, from an ElementTree walk."""
    pre, post = count(), count()
    rows = []

    def leaf(label: str, parent: int) -> None:
        rows.append((next(pre), next(post), parent, label))

    def walk(element: ET.Element, parent: int) -> None:
        me = next(pre)
        if encode_attributes:
            for name in element.attrib:
                leaf("@" + name, me)
        data = (element.text or "") + "".join(c.tail or "" for c in element)
        if encode_text and data.strip():
            leaf("#text", me)
        for child in element:
            walk(child, me)
        rows.append((me, next(post), parent, element.tag))

    walk(ET.fromstring(xml), DOCUMENT)
    rows.append((DOCUMENT, len(rows), None, "#document"))
    return rows


class SqliteOracle:
    """One document in ``sqlite3``; :meth:`select` answers a query with
    the sorted ``pre`` numbers of the nodes it selects."""

    def __init__(
        self, xml: str, encode_attributes: bool = False, encode_text: bool = False
    ) -> None:
        self.db = sqlite3.connect(":memory:")
        self.db.execute(
            "CREATE TABLE node (pre INTEGER PRIMARY KEY, post INTEGER, "
            "parent INTEGER, label TEXT)"
        )
        self.db.executemany(
            "INSERT INTO node VALUES (?, ?, ?, ?)",
            _rows(xml, encode_attributes, encode_text),
        )
        self.db.execute("CREATE INDEX by_parent ON node (parent)")
        self.n = self.db.execute("SELECT count(*) - 1 FROM node").fetchone()[0]

    def labels(self) -> List[str]:
        """Node labels in ``pre`` order (the document node excluded)."""
        return [
            label
            for (label,) in self.db.execute(
                "SELECT label FROM node WHERE pre >= 0 ORDER BY pre"
            )
        ]

    def select(self, query: str) -> List[int]:
        path = parse_xpath(query)
        if not path.absolute:
            raise ValueError("the oracle answers absolute paths")
        aliases = count()
        params: list = []
        start = f"n{next(aliases)}"
        tables, conditions = [start], [f"{start}.pre = {DOCUMENT}"]
        current = start
        for step in path.steps:
            nxt = f"n{next(aliases)}"
            tables.append(nxt)
            conditions.append(_step_sql(step, nxt, current, aliases, params))
            current = nxt
        sql = (
            f"SELECT DISTINCT {current}.pre FROM "
            + ", ".join(f"node {t}" for t in tables)
            + " WHERE "
            + " AND ".join(conditions)
            + " ORDER BY 1"
        )
        return [pre for (pre,) in self.db.execute(sql, params)]


def _step_sql(step, n: str, c: str, aliases, params: list) -> str:
    """The condition under which row ``n`` is reached from row ``c``."""
    parts = [_AXIS_SQL[step.axis].format(n=n, c=c), f"{n}.pre >= 0"]
    test = step.test
    if step.axis is Axis.ATTRIBUTE:
        if test not in ("*", "node()"):
            parts.append(f"{n}.label = ?")
            params.append("@" + test)
    elif test == "*":
        parts.append(f"substr({n}.label, 1, 1) NOT IN ('@', '#')")
    elif test == "text()":
        parts.append(f"{n}.label = '#text'")
    elif test != "node()":
        parts.append(f"{n}.label = ?")
        params.append(test)
    if step.predicate is not None:
        parts.append(_pred_sql(step.predicate, n, aliases, params))
    return " AND ".join(parts)


def _pred_sql(pred, n: str, aliases, params: list) -> str:
    if isinstance(pred, (PredAnd, PredOr)):
        op = "AND" if isinstance(pred, PredAnd) else "OR"
        left = _pred_sql(pred.left, n, aliases, params)
        right = _pred_sql(pred.right, n, aliases, params)
        return f"({left} {op} {right})"
    if isinstance(pred, PredNot):
        return f"NOT {_pred_sql(pred.inner, n, aliases, params)}"
    if isinstance(pred, PredPath):
        return _exists_sql(pred.path, n, aliases, params)
    raise AssertionError(pred)


def _exists_sql(path: Path, n: str, aliases, params: list) -> str:
    """``EXISTS`` a match of ``path`` from row ``n`` (from the document
    node when absolute): one correlated subquery per step, nested."""
    steps = list(path.steps)
    if not steps:
        return "1"  # '.': the context node exists
    if path.absolute:
        doc = f"n{next(aliases)}"
        inner = _exists_sql(Path(False, tuple(steps)), doc, aliases, params)
        return (
            f"EXISTS (SELECT 1 FROM node {doc} WHERE {doc}.pre = {DOCUMENT} "
            f"AND {inner})"
        )
    nxt = f"n{next(aliases)}"
    here = _step_sql(steps[0], nxt, n, aliases, params)
    rest = _exists_sql(Path(False, tuple(steps[1:])), nxt, aliases, params)
    return f"EXISTS (SELECT 1 FROM node {nxt} WHERE {here} AND {rest})"
