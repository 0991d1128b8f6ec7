"""Command-line interface.

Examples::

    python -m repro.cli '//a//b' document.xml
    python -m repro.cli '//keyword' --xmark 0.5 --stats
    cat doc.xml | python -m repro.cli '/site/regions' --strategy hybrid
    python -m repro.cli '//a[b]' doc.xml --explain
    python -m repro.cli --list-strategies
    python -m repro.cli plan explain '//listitem//keyword' --xmark 0.5
    python -m repro.cli batch --queries queries.txt --jobs 4 --xmark 0.5
    python -m repro.cli store build /var/xml/auctions --xmark 1.0
    python -m repro.cli store ls /var/xml/auctions
    python -m repro.cli store query '//keyword' /var/xml/auctions --count
    python -m repro.cli serve --store /var/xml/corpus --port 8726
    python -m repro.cli client query '//keyword' --port 8726 --count
    python -m repro.cli client stats --format table

Every command says each thing once: options come from one table
(:func:`_options`), verbs from one table (:data:`VERBS`), expected
failures end in one place (:func:`main`: one ``error:`` line, exit 1),
and bundles and corpora are opened by one helper (:func:`_opened`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

from repro.engine import registry
from repro.engine.api import Engine
from repro.store import (
    DocumentStore,
    StoreCorruptionError,
    StoreError,
    bundle_names,
    is_bundle,
    open_document,
    read_header,
    save_document,
    verify_document,
)
from repro.xmark.generator import XMarkGenerator
from repro.xpath.parser import XPathSyntaxError


def _options() -> dict:
    """Every option of every verb, declared once: name -> ``add_argument``
    keywords.  Built per parse, so ``--strategy`` offers the strategies
    registered by then."""

    def flag(text):
        return dict(action="store_true", help=text)

    return {
        "query": dict(help="an XPath query"),
        "file": dict(
            nargs="?", help="XML document (default: stdin, unless --xmark is given)"
        ),
        "--xmark": dict(
            type=float,
            metavar="SCALE",
            help="use a generated XMark document of the given scale instead of a file",
        ),
        "--seed": dict(type=int, default=42, help="seed for --xmark (default 42)"),
        "--strategy": dict(
            choices=registry.strategy_names(),
            default="auto",
            help="evaluation strategy (default: auto, the set-at-a-time kernel)",
        ),
        "--list-strategies": flag("list the registered evaluation strategies and exit"),
        "--explain": flag(
            "print the plan instead of evaluating (and the compiled "
            "automaton, for an automaton strategy)"
        ),
        "--count": flag("print only the number of results, not node ids"),
        "--labels": flag("print element names next to node ids"),
        "--stats": flag("emit per-query evaluation statistics as JSON on stderr"),
        "--json": flag("emit the report as JSON"),
        "--attributes": flag(
            "encode attributes as @name children (enables the attribute axis)"
        ),
        "--text": flag("encode character data as #text children"),
        "--text-content": flag("fill --xmark text elements with character data"),
        "--no-mmap": flag("read the arrays into memory instead of mapping them"),
        "--queries": dict(
            required=True,
            metavar="FILE",
            help=(
                "query file: one query per line, optionally 'name<TAB>query'; "
                "blank lines and #-comments are skipped"
            ),
        ),
        "--jobs": dict(
            type=int, help="worker count (default: the machine's CPU count)"
        ),
        "--executor": dict(
            choices=("thread", "pool"),
            default="thread",
            help=(
                "worker pool flavour (default: thread; 'pool' is the "
                "persistent shared-memory worker pool)"
            ),
        ),
        "out": dict(help="bundle directory to create/overwrite"),
        "path": dict(help="a bundle, or a corpus directory of bundles"),
        "source": dict(help="directory of *.xml source files"),
        "corpus": dict(help="the corpus directory (store sync creates it if missing)"),
        "--deep": flag("recompute every array file's CRC32 against the manifest"),
        "--no-delete": flag("keep corpus documents whose source file is gone"),
        "--compact": flag("delete retired bundles with no live readers afterwards"),
        "--dry-run": flag("report the plan without changing anything"),
        "--limit": dict(
            type=int, metavar="N", help="show only the most recent N entries"
        ),
        "--store": dict(
            action="append",
            required=True,
            metavar="DIR",
            help="corpus directory of bundles (repeatable)",
        ),
        "--host": dict(default="127.0.0.1", help="daemon address (default 127.0.0.1)"),
        "--port": dict(
            type=int,
            default=8726,
            help="daemon port (default 8726; serve --port 0 picks a free one)",
        ),
        "--workers": dict(
            type=int, help="evaluation worker threads (default: CPU count)"
        ),
        "--queue-depth": dict(
            type=int,
            help=(
                "requests allowed to wait beyond the busy workers before "
                "429 (default %(default)s)"
            ),
        ),
        "--timeout": dict(
            type=float, help="per-request budget in seconds (default %(default)g)"
        ),
        "--fail-threshold": dict(
            type=int,
            metavar="N",
            help=(
                "quarantine a document after N consecutive failed "
                "evaluations, 0 disables (default %(default)s)"
            ),
        ),
        "--reload-poll": dict(
            type=float,
            metavar="SECONDS",
            help=(
                "poll each corpus' change stamp every SECONDS and hot-"
                "reload when it moves; 0 disables polling (default "
                "%(default)g; POST /reload always works)"
            ),
        ),
        "--retries": dict(
            type=int,
            default=2,
            help=(
                "retry budget for connection errors and 429/503 responses "
                "(default 2; 0 fails fast)"
            ),
        ),
        "--backoff": dict(
            type=float,
            default=0.05,
            metavar="SECONDS",
            help=(
                "base retry backoff, doubled per attempt with seeded "
                "jitter (default 0.05)"
            ),
        ),
        "--document": dict(help="mounted document name"),
        "--format": dict(
            choices=("table", "csv", "json"),
            default="table",
            help="output rendering (default: table)",
        ),
    }


#: ``[file] | stdin | --xmark SCALE [--seed N]``: the one way every
#: command that reads a document names it (see :func:`_load_document`).
DOCUMENT = ("file", "--xmark", "--seed")


def _build(verb: Optional[str]) -> argparse.ArgumentParser:
    """The parser of one :data:`VERBS` entry.  An option name ending in
    ``?`` is taken as optional (``nargs="?"``)."""
    description, options, commands = VERBS[verb]
    table = _options()

    def add(parser, names):
        for name in names:
            kwargs = dict(table[name.rstrip("?")])
            if name.endswith("?"):
                kwargs["nargs"] = "?"
            parser.add_argument(name.rstrip("?"), **kwargs)
        return parser

    prog = "repro" if verb is None else f"repro {verb}"
    parser = add(argparse.ArgumentParser(prog=prog, description=description), options)
    if callable(commands):
        parser.set_defaults(run=commands)
    else:
        sub = parser.add_subparsers(dest="cmd", required=True)
        for name, (help_text, more, run) in commands.items():
            add(sub.add_parser(name, help=help_text), more).set_defaults(run=run)
    if verb == "serve":  # these defaults belong to the daemon, imported only here
        from repro.serve import daemon

        parser.set_defaults(
            queue_depth=daemon.QUEUE_DEPTH,
            timeout=daemon.TIMEOUT_S,
            fail_threshold=daemon.FAIL_THRESHOLD,
            reload_poll=daemon.RELOAD_POLL_S,
        )
    return parser


def _load_document(args):
    """The document ``args`` names, in a form :class:`Engine` and
    ``save_document`` stream straight into the arrays: an
    :class:`XMarkGenerator` (an event source) or the XML text.  A file
    that is missing, unreadable or not UTF-8 raises ``OSError`` /
    ``ValueError``."""
    if args.xmark is not None:
        return XMarkGenerator(
            scale=args.xmark,
            seed=args.seed,
            text_content=getattr(args, "text_content", False),
        )
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _read_queries(path: str) -> List[tuple]:
    """Parse a batch query file into (name, query) pairs.

    Raises ``ValueError`` on a file without queries and on duplicate
    names -- silently overwriting a result under a reused key would drop
    a query from the report.
    """
    out: List[tuple] = []
    seen = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, rest = line.partition("\t")
            if sep and rest.strip():
                name, query = name.strip(), rest.strip()
            else:
                name, query = f"q{lineno}", line
            if name in seen:
                raise ValueError(
                    f"duplicate query name {name!r} on line {lineno} of "
                    f"{path} (first used on line {seen[name]})"
                )
            seen[name] = lineno
            out.append((name, query))
    if not out:
        raise ValueError(f"no queries in {path}")
    return out


def _print_json(payload, out, **kwargs) -> None:
    print(json.dumps(payload, sort_keys=True), file=out, **kwargs)


@contextlib.contextmanager
def _opened(path: str, *, corpus: bool = False, create: bool = False, mmap=True):
    """The bundle at ``path`` -- or with ``corpus=True`` the
    :class:`DocumentStore` -- closed again on exit.  A corpus must be an
    existing directory unless ``create`` (``store sync``) lets the first
    write make it, so a mistyped path is an error, not a new corpus."""
    if not corpus:
        with open_document(path, mmap=mmap) as stored:
            yield stored
    elif create or os.path.isdir(path):
        yield DocumentStore(path)
    else:
        raise StoreError(f"no corpus directory {path!r}")


def _bundles(path: str) -> List[tuple]:
    """``(name, bundle path)`` for the bundle ``path`` is (name ``""``)
    or for every bundle of the corpus it names; none is an error."""
    if is_bundle(path):
        return [("", path)]
    found = [(name, os.path.join(path, name)) for name in bundle_names(path)]
    if not found:
        raise StoreError(f"no bundles in {path!r}")
    return found


def _bundle_summary(path: str, header: dict) -> dict:
    size = 0
    for entry in os.listdir(path):
        full = os.path.join(path, entry)
        if os.path.isfile(full):
            size += os.path.getsize(full)
    summary = {
        "path": path,
        "version": header["version"],
        "nodes": header["n"],
        "labels": len(header["labels"]),
        "encoded_attributes": header["encoded_attributes"],
        "encoded_text": header["encoded_text"],
        "created": header["created"],
        "bytes": size,
    }
    # Build-time document statistics (absent from the oldest bundles).
    stats = header.get("stats")
    if isinstance(stats, dict):
        for key, value in sorted(stats.items()):
            summary.setdefault(key, value)
    return summary


def _run_query(engine: Engine, args, out, **snapshot) -> None:
    """Prepare and execute ``args.query``, print the answer (``--count``
    without materialising an id) and, with ``--stats``, the run's
    counters as JSON on stderr, extended by ``snapshot``."""
    plan = engine.prepare(args.query)
    result = plan.execute()
    if args.count:
        print(len(result), file=out)
    elif args.labels:
        ids = result.nodes
        for v, label in zip(ids, engine.labels_of(ids)):
            print(f"{v}\t{label}", file=out)
    else:
        print(" ".join(map(str, result.nodes)), file=out)
    if args.stats:
        snapshot.update(
            result.stats.snapshot(),
            query=args.query,
            strategy=plan.strategy.name,
            nodes=len(engine.tree),
            caches=engine.cache_info(),
        )
        _print_json(snapshot, sys.stderr)


# -- the verbs ------------------------------------------------------------------


def _query(args, out) -> None:
    if args.list_strategies:
        for name, summary in registry.describe_strategies():
            print(f"{name:14s} {summary}", file=out)
        return
    engine = Engine(
        _load_document(args),
        strategy=args.strategy,
        encode_attributes=args.attributes,
    )
    if args.explain:
        print(engine.explain(args.query), file=out)
        return
    _run_query(engine, args, out)


def _batch(args, out) -> None:
    from repro.engine.workspace import Workspace

    named = _read_queries(args.queries)
    with Workspace(strategy=args.strategy) as workspace:
        workspace.add("doc", _load_document(args))
        service = workspace.service(jobs=args.jobs, executor=args.executor)
        batch = service.run_batch(["doc"], [query for _, query in named])["doc"]
        results = {}
        stats = {}
        for name, query in named:
            result = batch[query]
            results[name] = len(result) if args.count else result.nodes
            stats[name] = dict(result.stats.snapshot(), query=query)
    payload = {
        "document": args.file or ("xmark" if args.xmark is not None else "stdin"),
        "jobs": service.jobs,
        "executor": args.executor,
        "strategy": args.strategy,
        "results": results,
    }
    _print_json(payload, out)
    if args.stats:
        _print_json(stats, sys.stderr)


def _plan_explain(args, out) -> None:
    from repro.engine.planner import plan_explain

    engine = Engine(
        _load_document(args), strategy="auto", encode_attributes=args.attributes
    )
    if args.json:
        _print_json(plan_explain(engine, args.query), out)
    else:
        print(engine.prepare(args.query).explain(), file=out)


def _store_build(args, out) -> None:
    if args.xmark is not None:
        source = {"kind": "xmark", "scale": args.xmark, "seed": args.seed}
    else:
        source = {"kind": "xml", "file": args.file or "stdin"}
    path = save_document(
        _load_document(args),
        args.out,
        encode_attributes=args.attributes,
        encode_text=args.text,
        source=source,
    )
    _print_json(_bundle_summary(path, read_header(path)), out)


def _store_ls(args, out) -> None:
    listing = []
    for name, path in _bundles(args.path):
        # An unreadable entry (junk from a crashed tool, a mangled
        # header) must not hide the healthy rest of the corpus: warn and
        # keep listing.
        try:
            summary = _bundle_summary(path, read_header(path))
        except (StoreError, OSError) as exc:
            print(f"warning: skipping {path!r}: {exc}", file=sys.stderr)
            continue
        if name:
            summary["name"] = name
        listing.append(summary)
    if not listing:
        raise StoreError(f"no readable bundles in {args.path!r}")
    _print_json(listing, out)


def _store_verify(args, out) -> None:
    mode = "deep" if args.deep else "fast"
    reports = []
    for name, path in _bundles(args.path):
        entry = {"name": name or os.path.basename(path.rstrip(os.sep))}
        try:
            entry.update(verify_document(path, deep=args.deep))
        except StoreError as exc:
            entry.update(
                path=path,
                mode=mode,
                ok=False,
                error=(
                    exc.to_dict()
                    if isinstance(exc, StoreCorruptionError)
                    else {"reason": str(exc)}
                ),
            )
        reports.append(entry)
    if args.json:
        _print_json(reports, out)
    else:
        for entry in reports:
            shown = entry["name"] or entry["path"]
            if entry["ok"]:
                size = sum(a["bytes"] for a in entry["arrays"].values())
                detail = f"{len(entry['arrays'])} arrays, {size} bytes"
                print(f"{shown}: ok [{entry['mode']}] ({detail})", file=out)
            else:
                reason = entry["error"].get("reason", "unknown")
                where = entry["error"].get("array")
                at = f" array {where!r}" if where else ""
                print(f"{shown}: CORRUPT{at}: {reason}", file=out)
    failures = sum(1 for entry in reports if not entry["ok"])
    if failures:
        raise StoreError(
            f"{failures} of {len(reports)} bundle(s) failed {mode} verification"
        )


def _store_sync(args, out) -> None:
    with _opened(args.corpus, corpus=True, create=True) as store:
        report = store.sync(
            args.source,
            delete=not args.no_delete,
            compact=args.compact,
            dry_run=args.dry_run,
            encode_attributes=args.attributes,
            encode_text=args.text,
        )
    _print_json(report, out)


def _store_log(args, out) -> None:
    with _opened(args.corpus, corpus=True) as store:
        entries = store.log(limit=args.limit)
        generation = store.generation()
    if args.json:
        _print_json({"generation": generation, "history": entries}, out)
        return
    for entry in entries:
        name = entry.get("name", "")
        print(
            f"g{entry['generation']:<6} {entry['op']:<8} "
            f"{name:<20} {entry.get('time', '')}",
            file=out,
        )
    print(f"generation {generation}", file=out)


def _store_compact(args, out) -> None:
    with _opened(args.corpus, corpus=True) as store:
        _print_json(store.compact(), out)


def _store_query(args, out) -> None:
    with _opened(args.path, mmap=not args.no_mmap) as stored:
        engine = Engine(stored, strategy=args.strategy)
        _run_query(engine, args, out, store=stored.path)


def _serve(args, out) -> None:
    from repro.serve.daemon import QueryDaemon

    daemon = QueryDaemon(
        args.store,
        strategy=args.strategy,
        workers=args.workers,
        queue_depth=args.queue_depth,
        timeout=args.timeout,
        host=args.host,
        port=args.port,
        mmap=not args.no_mmap,
        fail_threshold=args.fail_threshold,
        reload_poll=args.reload_poll,
    )

    def ready(d: QueryDaemon) -> None:
        ready_line = {
            "serving": f"{d.host}:{d.port}",
            "documents": d.documents(),
            "strategy": d.workspace.strategy,
            "workers": d.workers,
            "admission_limit": d.admission.limit,
            "timeout_s": d.timeout,
        }
        _print_json(ready_line, out, flush=True)

    daemon.run(ready=ready)


def _client(args):
    """The daemon client ``args`` names (a context manager: it closes)."""
    from repro.serve.client import ServeClient

    return ServeClient(
        args.host, args.port, retries=args.retries, backoff_s=args.backoff
    )


def _print_rows(payload, rows, columns, args, out) -> None:
    """A client answer: the daemon's payload as JSON, or ``rows`` rendered
    as a table or CSV."""
    from repro.serve.client import format_rows

    if args.format == "json":
        _print_json(payload, out)
    else:
        print(format_rows(rows, columns, args.format), file=out)


def _client_query(args, out) -> None:
    with _client(args) as client:
        payload = client.query(
            args.query, document=args.document, count=args.count, labels=args.labels
        )
    if args.count and args.format != "json":
        print(payload["count"], file=out)
        return
    rows = [{"id": v} for v in payload.get("ids", [])]
    labels = payload.get("labels")
    for row, label in zip(rows, labels or ()):
        row["label"] = label
    columns = ["id"] if labels is None else ["id", "label"]
    _print_rows(payload, rows, columns, args, out)


def _client_batch(args, out) -> None:
    named = _read_queries(args.queries)
    with _client(args) as client:
        payload = client.batch(
            [q for _, q in named], document=args.document, count=args.count
        )
    rows = [
        {
            "name": name,
            "query": entry["query"],
            "count": entry["count"],
            "strategy": entry["strategy"],
            "warm": entry["warm"],
            "ms": entry["timing_ms"]["total"],
        }
        for (name, _), entry in zip(named, payload["results"])
    ]
    columns = ["name", "query", "count", "strategy", "warm", "ms"]
    _print_rows(payload, rows, columns, args, out)


def _client_explain(args, out) -> None:
    with _client(args) as client:
        print(client.explain(args.query, document=args.document)["text"], file=out)


def _client_stats(args, out) -> None:
    with _client(args) as client:
        payload = client.stats()
    rows = [
        {"counter": key, "value": value}
        for key, value in sorted(payload["counters"].items())
    ]
    rows.append({"counter": "uptime_s", "value": payload["uptime_s"]})
    rows.append({"counter": "in_flight", "value": payload["admission"]["in_flight"]})
    _print_rows(payload, rows, ["counter", "value"], args, out)


def _client_health(args, out) -> None:
    with _client(args) as client:
        _print_json(client.healthz(), out)


def _client_reload(args, out) -> None:
    with _client(args) as client:
        _print_json(client.reload(), out)


#: verb -> (description, options, handler) or, for a verb with
#: subcommands, (description, options before the subcommand,
#: {subcommand: (help, options, handler)}).  ``None`` is the bare
#: ``repro QUERY`` form.
VERBS = {
    None: (
        "XPath evaluation via selecting tree automata "
        "(reproduction of Maneth & Nguyen, VLDB 2010)",
        ("query?", *DOCUMENT, "--strategy", "--list-strategies", "--stats",
         "--explain", "--count", "--labels", "--attributes"),
        _query,
    ),
    "batch": (
        "run a batch of queries over one document on a worker pool, "
        "one task per query (repro.engine.parallel.QueryService)",
        (*DOCUMENT, "--queries", "--jobs", "--executor", "--strategy",
         "--count", "--stats"),
        _batch,
    ),
    "plan": (
        "inspect how the 'auto' default runs a query on a document: "
        "the kernel's join operator per location step",
        (),
        {
            "explain": (
                "show the executing strategy and its per-step operators",
                ("query", *DOCUMENT, "--attributes", "--json"),
                _plan_explain,
            ),
        },
    ),
    "store": (
        "build, inspect and query persistent compiled-document bundles "
        "(repro.store); a built bundle reopens zero-copy via mmap -- no "
        "XML re-parsing on any later open",
        (),
        {
            "build": (
                "compile a document into a bundle directory",
                ("out", *DOCUMENT, "--text-content", "--attributes", "--text"),
                _store_build,
            ),
            "ls": (
                "show the header(s) of a bundle or corpus directory",
                ("path",),
                _store_ls,
            ),
            "verify": (
                "integrity-check a bundle or corpus: fast mode checks "
                "header/manifest/file sizes, --deep recomputes per-array "
                "CRC32 digests",
                ("path", "--deep", "--json"),
                _store_verify,
            ),
            "sync": (
                "incrementally mirror a directory of XML files into a "
                "corpus: content fingerprints decide the minimal "
                "add/replace/remove set; untouched documents are not rebuilt",
                ("source", "corpus", "--no-delete", "--compact", "--dry-run",
                 "--attributes", "--text"),
                _store_sync,
            ),
            "log": (
                "show a corpus' generation history (newest last)",
                ("corpus", "--limit", "--json"),
                _store_log,
            ),
            "compact": (
                "delete retired bundles no open reader still maps",
                ("corpus",),
                _store_compact,
            ),
            "query": (
                "run a query on a reopened bundle",
                ("query", "path", "--strategy", "--count", "--labels", "--stats",
                 "--no-mmap"),
                _store_query,
            ),
        },
    ),
    "serve": (
        "run the persistent query daemon over one or more store corpora "
        "(repro.serve); corpora mount via zero-copy mmap reopen and "
        "prepared-query state stays hot across requests",
        ("--store", "--host", "--port", "--workers", "--queue-depth",
         "--timeout", "--strategy", "--no-mmap", "--fail-threshold",
         "--reload-poll"),
        _serve,
    ),
    "client": (
        "talk to a running repro serve daemon",
        ("--host", "--port", "--retries", "--backoff"),
        {
            "query": (
                "run one query on the daemon",
                ("query", "--document", "--count", "--labels", "--format"),
                _client_query,
            ),
            "batch": (
                "run a query file as one batch",
                ("--queries", "--document", "--count", "--format"),
                _client_batch,
            ),
            "explain": (
                "show the daemon's plan for a query",
                ("query", "--document"),
                _client_explain,
            ),
            "stats": (
                "daemon counters and cache state",
                ("--format",),
                _client_stats,
            ),
            "health": ("liveness probe", (), _client_health),
            "reload": (
                "ask the daemon to re-mount its corpora at the current "
                "generation (picks up repro store sync / add / replace / "
                "remove without a restart)",
                (),
                _client_reload,
            ),
        },
    ),
}


def _main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    verb = argv[0] if argv and argv[0] in VERBS else None
    parser = _build(verb)
    args = parser.parse_args(argv if verb is None else argv[1:])
    # The usage rules argparse cannot state: exit 2 like its own.
    if getattr(args, "file", None) and getattr(args, "xmark", None) is not None:
        parser.error("give either a document file or --xmark, not both")
    if verb is None and args.query is None and not args.list_strategies:
        parser.error("query is required unless --list-strategies is given")
    args.run(args, out)  # a handler that returns has answered
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Run one command: exit 0 when it answered, 1 with one ``error:``
    line on stderr (a syntax error as its caret diagnostic), 2 on a usage
    error (from argparse)."""
    try:
        return _main(argv, out)
    except BrokenPipeError:
        # Output piped into e.g. `head` that stopped reading: truncation
        # is the caller's intent, not a failure.  Point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return 0
    except Exception as exc:
        # Imported here: the client module pulls in the daemon, which
        # only `serve` and `client` need.
        from repro.serve.client import ServeError

        if not isinstance(exc, (ValueError, OSError, StoreError, ServeError)):
            raise
        if isinstance(exc, ServeError) and exc.kind == "syntax":
            # The daemon's structured payload, rendered exactly as a
            # local parse failure: message, offset, caret.
            error = exc.payload["error"]
            exc = XPathSyntaxError(
                error.get("message", str(exc)),
                offset=error.get("offset"),
                query=error.get("query"),
            )
        if isinstance(exc, XPathSyntaxError):
            print(exc.describe(), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
