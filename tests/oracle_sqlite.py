"""The test suite's one query oracle: it shares nothing with the system's
tree layer.

The document is parsed by the stdlib (``xml.etree.ElementTree``), laid
out as one ``(pre, last, parent, label)`` row per node in an in-memory
``sqlite3`` table, and every Core XPath step is answered by SQL over
those rows.  ``last`` is the ``pre`` of a node's last descendant (its
own ``pre`` for a leaf), so ``v`` is a descendant of ``u`` iff
``pre(u) < pre(v) <= last(u)``: a descendant step is a range of the
primary key.  Nothing of ``TreeBuilder``, ``BinaryTree`` or any strategy
is imported -- only the XPath *parser*, whose AST is the query -- so a
bug in the columns every strategy shares shows up as a disagreement.
``tests/test_oracle_sqlite.py`` keeps it that way.

The ``@attr`` / ``#text`` encoding mirrored from the system: per element
one ``@name`` child per attribute in source order, then one ``#text``
child iff the element has any non-whitespace character data directly
inside it (its ``.text`` or a child's ``.tail``), then its element
children.  ``pre`` is the node id the strategies answer with.

:func:`select` is the entry point; :func:`labels` lists the node labels
for the tests that compare a built tree's labels row by row.
"""

from __future__ import annotations

import sqlite3
import xml.etree.ElementTree as ET
from functools import lru_cache
from itertools import count
from typing import List, Tuple

from repro.xpath.ast import Axis, Path, PredAnd, PredNot, PredOr, PredPath
from repro.xpath.parser import parse_xpath

DOCUMENT = -1
"""``pre`` of the document node: parent of the root, ancestor of all."""

_AXIS_SQL = {
    Axis.CHILD: "{n}.parent = {c}.pre",
    Axis.ATTRIBUTE: "{n}.parent = {c}.pre AND substr({n}.label, 1, 1) = '@'",
    Axis.DESCENDANT: "{n}.pre > {c}.pre AND {n}.pre <= {c}.last",
    Axis.FOLLOWING_SIBLING: "{n}.parent = {c}.parent AND {n}.pre > {c}.pre",
    Axis.PARENT: "{n}.pre = {c}.parent",
    Axis.ANCESTOR: (
        "{n}.pre IN (WITH RECURSIVE up(pre) AS (SELECT {c}.parent UNION ALL "
        "SELECT node.parent FROM node, up WHERE node.pre = up.pre "
        "AND node.parent IS NOT NULL) SELECT pre FROM up)"
    ),
}


def select(
    xml: str, query: str, encode_attributes: bool = False, encode_text: bool = False
) -> List[int]:
    """The ids -- ``pre`` numbers, ascending -- of the nodes the absolute
    ``query`` selects in ``xml``; a relative query is a ``ValueError``."""
    return list(_answer(xml, query, encode_attributes, encode_text))


def labels(
    xml: str, encode_attributes: bool = False, encode_text: bool = False
) -> List[str]:
    """Node labels in ``pre`` order (the document node excluded)."""
    db = _database(xml, encode_attributes, encode_text)
    rows = db.execute("SELECT label FROM node WHERE pre >= 0 ORDER BY pre")
    return [label for (label,) in rows]


def _rows(xml: str, encode_attributes: bool, encode_text: bool):
    """``(pre, last, parent, label)`` per node, from an ElementTree walk;
    a node's ``pre`` is the index of its row."""
    rows = []

    def leaf(label: str, parent: int) -> None:
        rows.append((len(rows), len(rows), parent, label))

    def walk(element: ET.Element, parent: int) -> None:
        me = len(rows)
        rows.append(None)  # filled in once the subtree's last row is known
        if encode_attributes:
            for name in element.attrib:
                leaf("@" + name, me)
        data = (element.text or "") + "".join(c.tail or "" for c in element)
        if encode_text and data.strip():
            leaf("#text", me)
        for child in element:
            walk(child, me)
        rows[me] = (me, len(rows) - 1, parent, element.tag)

    walk(ET.fromstring(xml), DOCUMENT)
    rows.append((DOCUMENT, len(rows) - 1, None, "#document"))
    return rows


@lru_cache(maxsize=32)
def _database(xml: str, encode_attributes: bool, encode_text: bool):
    db = sqlite3.connect(":memory:")
    db.execute(
        "CREATE TABLE node (pre INTEGER PRIMARY KEY, last INTEGER, "
        "parent INTEGER, label TEXT)"
    )
    db.executemany(
        "INSERT INTO node VALUES (?, ?, ?, ?)",
        _rows(xml, encode_attributes, encode_text),
    )
    db.execute("CREATE INDEX by_parent ON node (parent)")
    return db


@lru_cache(maxsize=4096)
def _answer(
    xml: str, query: str, encode_attributes: bool, encode_text: bool
) -> Tuple[int, ...]:
    path = parse_xpath(query)
    if not path.absolute:
        raise ValueError("the oracle answers absolute paths")
    # One DISTINCT set per step, each joined to the next in path order:
    # left to sqlite's planner, a join of all steps at once can start
    # from the last step and scan ancestors per row (31 s for one query
    # at 13.7k nodes).  No label index either, so a step's candidates
    # come from the context's primary-key range or ``parent`` index.
    aliases = count()
    params: list = []
    sets = [f"s0 AS (SELECT * FROM node WHERE pre = {DOCUMENT})"]
    for i, step in enumerate(path.steps, 1):
        reached = _step_sql(step, "n", "c", aliases, params)
        sets.append(
            f"s{i} AS (SELECT DISTINCT n.* FROM s{i - 1} c CROSS JOIN node n "
            f"WHERE {reached})"
        )
    sql = f"WITH {', '.join(sets)} SELECT pre FROM s{len(sets) - 1} ORDER BY pre"
    db = _database(xml, encode_attributes, encode_text)
    return tuple(pre for (pre,) in db.execute(sql, params))


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
