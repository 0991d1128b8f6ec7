"""repro -- reproduction of "XPath Whole Query Optimization" (VLDB 2010).

Selecting tree automata, relevant-node jumping, and alternating-automaton
XPath evaluation over indexed XML trees, in pure Python.

Quickstart::

    from repro import parse_xml, Engine

    doc = parse_xml("<site><a><b/></a></site>")
    engine = Engine(doc)                  # strategy="auto": the kernel
    ids = engine.select("//a//b")
    print(engine.labels_of(ids))

Prepared queries (parse/compile once, execute many times, immutable
per-execution stats)::

    plan = engine.prepare("//a//b")
    result = plan.execute()
    print(result.nodes, result.stats.visited)

Multiple documents sharing one compiled-query cache::

    from repro import Workspace

    ws = Workspace()
    ws.add("d1", "<site><a><b/></a></site>")
    ws.add("d2", "<site><b/></site>")
    print(ws.select_all("//b"))           # {'d1': [...], 'd2': [...]}

Evaluation strategies are plugins -- see :mod:`repro.engine.registry`
and DESIGN.md for the system layers and the extension point; the
paper-vs-measured record lives in :mod:`repro.bench.experiments`.
"""

from repro.counters import EvalStats
from repro.engine.api import Engine, evaluate
from repro.engine.parallel import QueryService
from repro.engine.plan import ExecutionResult, PreparedQuery
from repro.engine.registry import Strategy, register_strategy, strategy_names
from repro.engine.workspace import Workspace
from repro.index.jumping import TreeIndex
from repro.store import DocumentStore, StoredDocument, open_document, save_document
from repro.tree.binary import BinaryTree
from repro.tree.document import XMLDocument, XMLNode
from repro.tree.parser import parse_xml
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath

__version__ = "1.1.0"

__all__ = [
    "Engine",
    "evaluate",
    "parse_xml",
    "parse_xpath",
    "compile_xpath",
    "BinaryTree",
    "TreeIndex",
    "XMLDocument",
    "XMLNode",
    "EvalStats",
    "ExecutionResult",
    "PreparedQuery",
    "Strategy",
    "register_strategy",
    "strategy_names",
    "Workspace",
    "QueryService",
    "DocumentStore",
    "StoredDocument",
    "open_document",
    "save_document",
    "__version__",
]
