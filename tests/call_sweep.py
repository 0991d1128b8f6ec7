"""Which ``src`` functions does anything a user can run reach?

Run from the repository root (30-50 s on a 2-core VM; nothing is
written outside a temporary directory)::

    PYTHONPATH=src python tests/call_sweep.py

This is a call sweep, not a test: pytest collects no file of this name
and the script defines no ``test_*`` function.  ``sys.setprofile`` and
``threading.setprofile`` record every Python function entered while it
drives what a user can run:

- every registered strategy on Q01-Q15 and on backward / sibling
  queries, on a fresh and on a store-reopened XMark document, plus the
  kernel strategies on a document large enough to reach the CSR and
  rank-column operators and the path summary;
- the CLI verbs in process: a query with ``--explain`` / ``--stats`` /
  ``--labels``, ``--list-strategies``, ``plan explain``, ``batch`` on the
  serial, thread and pool executors, every ``store`` verb, ``serve``,
  and every ``client`` verb against it;
- an in-process daemon (``DaemonThread``): queries (framed and plain
  JSON), batches, explains, stats, health, a reload, and one faulted
  evaluation that takes the fallback path;
- the figure drivers: ``repro.bench.experiments all`` and ``benchmarks/``
  under pytest with benchmarking disabled, both at a small scale;
- every example under ``examples/``.

It prints a Markdown table of every function defined under
``src/repro`` that none of this entered, with its length in lines, and
a per-module total.  DESIGN.md's "What runs" table gives each entry a
verdict.

Blind spots: a pool worker runs in its own process, so only the
parent's side of ``executor="pool"`` is seen; a daemon in its own
process is not driven; and the documents built here are too small for
the kernel's first-witness search and sibling CSR.
"""

from __future__ import annotations

import ast
import contextlib
import gc
import http.client
import io
import json
import os
import runpy
import sys
import tempfile
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

# The figure drivers read their scale at import: set it before anything
# imports them.
os.environ.setdefault("REPRO_BENCH_SCALE", "0.05")
os.environ.setdefault("REPRO_BENCH_FRACTION", "0.01")

BACKWARD = [
    "//keyword/parent::text",
    "//keyword/ancestor::listitem",
    "//listitem/following-sibling::listitem",
    "//bold[ancestor::description]",
    "/site/regions/*/item[parent::africa]",
]


def defined_functions() -> dict:
    """``(file, first line) -> (module, qualified name, lines)`` of every
    function and method under ``src/repro``; the first line is the one
    a code object reports (its first decorator's, if it has any)."""
    found = {}
    for base, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            module = os.path.relpath(path, SRC)
            with open(path) as handle:
                tree = ast.parse(handle.read())

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min(
                            [child.lineno]
                            + [d.lineno for d in child.decorator_list]
                        )
                        qualname = prefix + child.name
                        found[(path, first)] = (
                            module, qualname, child.end_lineno - first + 1
                        )
                        visit(child, qualname + ".")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return found


class Recorder:
    """Every code object entered while installed, on every thread."""

    def __init__(self) -> None:
        self.seen = {}

    def hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            self.seen[id(code)] = code  # kept alive: ids are never reused

    def __enter__(self):
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        threading.setprofile(None)

    def entered(self) -> set:
        return {
            (code.co_filename, code.co_firstlineno)
            for code in self.seen.values()
        }


def cli(*argv) -> None:
    from repro import cli as repro_cli

    sink = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        code = repro_cli.main([str(a) for a in argv], out=sink)
    if code not in (0, 1):
        raise RuntimeError(f"repro {' '.join(map(str, argv))} exited {code}")


def drive_strategies(work: str) -> None:
    from repro import Engine, open_document, save_document, strategy_names
    from repro.xmark.generator import XMarkGenerator
    from repro.xmark.queries import QUERIES

    queries = list(QUERIES.values()) + BACKWARD
    bundle = save_document(
        XMarkGenerator(scale=0.1, seed=3).xml(), os.path.join(work, "doc")
    )
    fresh = XMarkGenerator(scale=0.1, seed=3).xml()
    with open_document(bundle) as stored:
        for document in (fresh, stored):
            for name in strategy_names():
                engine = Engine(document, strategy=name)
                for query in queries:
                    engine.explain(query)
                    engine.select(query)
                    engine.select(query)  # warm
    large = XMarkGenerator(scale=2.0, seed=3).tree()
    for name in ("auto", "window", "vectorized"):
        engine = Engine(large, strategy=name)
        for _ in range(3):  # the path summary waits for booked touches
            for query in queries:
                engine.select(query)


def drive_cli(work: str) -> tuple:
    from repro.xmark.generator import XMarkGenerator
    from repro.xmark.queries import QUERIES

    queries = os.path.join(work, "queries.txt")
    with open(queries, "w") as handle:
        handle.write("\n".join(list(QUERIES.values())[:5]) + "\n")
    xml = os.path.join(work, "doc.xml")
    XMarkGenerator(scale=0.05, seed=5).write(xml)
    cli("--list-strategies")
    cli("//keyword", xml, "--explain")
    cli("//keyword", xml, "--count", "--stats")
    cli("//listitem//keyword", "--xmark", "0.05", "--labels")
    cli("//a/@id", xml, "--attributes", "--count")
    cli("//a[", xml)  # the caret diagnostic
    cli("plan", "explain", "//listitem//keyword", "--xmark", "0.05", "--json")
    cli("plan", "explain", "//keyword/parent::text", xml)
    for executor, jobs in (("thread", 1), ("thread", 2), ("pool", 2)):
        cli("batch", "--queries", queries, "--xmark", "0.05", "--count",
            "--jobs", jobs, "--executor", executor, "--stats")
    corpus = os.path.join(work, "corpus")
    source = os.path.join(work, "source")
    os.makedirs(source)
    for i in range(2):
        XMarkGenerator(scale=0.02, seed=i).write(
            os.path.join(source, f"d{i}.xml")
        )
    cli("store", "sync", source, corpus)
    XMarkGenerator(scale=0.02, seed=9).write(os.path.join(source, "d1.xml"))
    cli("store", "sync", source, corpus, "--compact")
    single = os.path.join(work, "single")
    cli("store", "build", single, xml, "--attributes", "--text")
    cli("store", "ls", corpus)
    cli("store", "ls", single)
    cli("store", "verify", corpus, "--deep", "--json")
    cli("store", "log", corpus, "--json")
    cli("store", "compact", corpus)
    cli("store", "query", "//keyword", single, "--count", "--stats")
    cli("store", "query", "//keyword", single, "--no-mmap", "--labels")
    return corpus, queries


def drive_daemon(corpus: str, queries: str) -> None:
    from repro import faults, strategy_names
    from repro.serve import DaemonThread, QueryDaemon, ServeClient
    from repro.serve.client import ServeError
    from repro.xmark.queries import QUERIES

    with DaemonThread(QueryDaemon(corpus, workers=2)) as handle:
        with ServeClient(port=handle.port) as client:
            for query in list(QUERIES.values()) + BACKWARD:
                for _ in range(3):  # cold, then warm, then inline
                    client.query(query, document="d0")
                client.query(query, document="d1", count=True, stats=True)
            for name in strategy_names():
                client.query("//keyword", document="d0", strategy=name)
            client.query("//keyword", document="d0", labels=True)
            client.batch(list(QUERIES.values()), document="d0")
            client.explain("//keyword", document="d0")
            client.stats()
            client.healthz()
            with contextlib.suppress(ServeError):
                client.query("//a/preceding::b", document="d0")
            with faults.inject(
                "serve.evaluate", "exception", match={"document": "d1"}
            ):
                with contextlib.suppress(ServeError):
                    client.query("//keyword", document="d1")
            client.reload()
        port = handle.port
        # A plain HTTP client gets its ids as JSON, not as the frame.
        raw = http.client.HTTPConnection("127.0.0.1", port)
        raw.request("POST", "/query", body=json.dumps(
            {"query": "//keyword", "document": "d0"}
        ))
        raw.getresponse().read()
        raw.close()
        cli("client", "--port", port, "query", "//keyword", "--document", "d0",
            "--format", "json")
        cli("client", "--port", port, "batch", "--queries", queries,
            "--document", "d0", "--count")
        cli("client", "--port", port, "explain", "//keyword", "--document", "d0")
        cli("client", "--port", port, "stats", "--format", "json")
        cli("client", "--port", port, "health")
        cli("client", "--port", port, "reload")
    drive_serve_verb(corpus)


def drive_serve_verb(corpus: str) -> None:
    """``repro serve`` itself, on a thread, stopped through its daemon."""
    from repro.serve import QueryDaemon, ServeClient

    before = {id(o) for o in gc.get_objects() if isinstance(o, QueryDaemon)}
    thread = threading.Thread(
        target=cli, args=("serve", "--store", corpus, "--port", "0"),
        daemon=True,
    )
    thread.start()
    daemon = None
    while daemon is None or not daemon.port:
        thread.join(0.05)
        if not thread.is_alive():
            raise RuntimeError("repro serve exited before it served")
        fresh = [
            o for o in gc.get_objects()
            if isinstance(o, QueryDaemon) and id(o) not in before
        ]
        daemon = fresh[0] if fresh else None
    with ServeClient(port=daemon.port, retries=20) as client:
        client.healthz()
        client.query("//keyword", document="d0")
    daemon.request_stop()
    thread.join()


def drive_figures() -> None:
    import pytest

    from repro.bench import experiments

    with contextlib.redirect_stdout(io.StringIO()):
        experiments.main(["all"])
        code = pytest.main([
            os.path.join(ROOT, "benchmarks"), "-q", "-p", "no:cacheprovider",
            "--benchmark-disable", "-o", "python_files=bench_*.py",
        ])
    if code != 0:
        raise RuntimeError(f"benchmarks/ exited {code}")


def drive_examples() -> None:
    arguments = {
        "xmark_analytics.py": ["0.05"],
        "hybrid_selectivity.py": ["0.01"],
        "parallel_batch.py": ["0.05"],
    }
    folder = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(folder, name)
        saved = sys.argv
        sys.argv = [path] + arguments.get(name, [])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = saved


def report(found: dict, entered: set) -> str:
    missed = defaultdict(list)
    for key, (module, qualname, lines) in sorted(found.items()):
        if key not in entered:
            missed[module].append((key[1], qualname, lines))
    rows = ["| module | function (line) | lines |", "|---|---|---:|"]
    totals = []
    for module in sorted(missed):
        entries = sorted(missed[module])
        for line, qualname, lines in entries:
            rows.append(f"| `{module}` | `{qualname}` ({line}) | {lines} |")
        totals.append((module, len(entries), sum(e[2] for e in entries)))
    rows += ["", "| module | functions never entered | their lines |",
             "|---|---:|---:|"]
    rows += [f"| `{m}` | {count} | {lines} |" for m, count, lines in totals]
    rows.append(
        f"| **all** | {sum(t[1] for t in totals)} | {sum(t[2] for t in totals)} |"
    )
    return "\n".join(rows)


def main() -> int:
    found = defined_functions()
    failures = []
    with tempfile.TemporaryDirectory() as work:
        with Recorder() as recorder:
            for name, drive in (
                ("strategies", lambda: drive_strategies(work)),
                ("cli and daemon", lambda: drive_daemon(*drive_cli(work))),
                ("figure drivers", drive_figures),
                ("examples", drive_examples),
            ):
                try:
                    drive()
                except Exception as exc:  # report, and sweep the rest
                    failures.append(f"{name}: {type(exc).__name__}: {exc}")
    print(report(found, recorder.entered()))
    for failure in failures:
        print(f"\ndriver failed -- {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
