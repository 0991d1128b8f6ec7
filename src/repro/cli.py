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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.engine import registry
from repro.engine.api import Engine
from repro.xmark.generator import XMarkGenerator
from repro.xpath.parser import XPathSyntaxError


def _report_error(exc: Exception) -> None:
    """Structured stderr rendering: syntax errors point into the query."""
    if isinstance(exc, XPathSyntaxError):
        print(exc.describe(), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def _print_selection(result, engine, args, out) -> None:
    """One query's answer; ``--count`` prints it without materialising an id."""
    if args.count:
        print(len(result), file=out)
    elif args.labels:
        ids = result.nodes
        for v, label in zip(ids, engine.labels_of(ids)):
            print(f"{v}\t{label}", file=out)
    else:
        print(" ".join(map(str, result.nodes)), file=out)


def _add_document_arguments(parser) -> None:
    """``[file] | stdin | --xmark SCALE [--seed N]``: the one way every
    command that reads a document names it (see :func:`_load_document`)."""
    parser.add_argument(
        "file",
        nargs="?",
        help="XML document (default: stdin, unless --xmark is given)",
    )
    parser.add_argument(
        "--xmark",
        type=float,
        metavar="SCALE",
        help="use a generated XMark document of the given scale instead of a file",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="seed for --xmark (default 42)"
    )


def _load_document(args, parser):
    """The document ``args`` names, in a form :class:`Engine` and
    ``save_document`` stream straight into the arrays: an
    :class:`XMarkGenerator` (an event source) or the XML text.  A file
    that is missing, unreadable or not UTF-8 raises ``OSError`` /
    ``ValueError``, which every caller reports as ``error: ...``."""
    if args.file and args.xmark is not None:
        parser.error("give either a document file or --xmark, not both")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "XPath evaluation via selecting tree automata "
            "(reproduction of Maneth & Nguyen, VLDB 2010)"
        ),
    )
    parser.add_argument(
        "query",
        nargs="?",
        help="an XPath query in the forward Core fragment",
    )
    _add_document_arguments(parser)
    parser.add_argument(
        "--strategy",
        choices=registry.strategy_names(),
        default="auto",
        help="evaluation strategy (default: auto, the set-at-a-time kernel)",
    )
    parser.add_argument(
        "--list-strategies",
        action="store_true",
        help="list the registered evaluation strategies and exit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="emit per-query evaluation statistics as JSON on stderr",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print the plan instead of evaluating (and the compiled "
            "automaton, for an automaton strategy)"
        ),
    )
    parser.add_argument(
        "--count", action="store_true", help="print only the number of results"
    )
    parser.add_argument(
        "--labels", action="store_true", help="print element names next to node ids"
    )
    parser.add_argument(
        "--attributes",
        action="store_true",
        help="encode attributes as @name children (enables the attribute axis)",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description=(
            "run a batch of queries over one document on a worker pool, "
            "one task per query (repro.engine.parallel.QueryService)"
        ),
    )
    _add_document_arguments(parser)
    parser.add_argument(
        "--queries",
        required=True,
        metavar="FILE",
        help=(
            "query file: one query per line, optionally 'name<TAB>query'; "
            "blank lines and #-comments are skipped"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count (default: the machine's CPU count)",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "pool"),
        default="thread",
        help=(
            "worker pool flavour (default: thread; 'pool' is the "
            "persistent shared-memory worker pool)"
        ),
    )
    parser.add_argument(
        "--strategy",
        choices=registry.strategy_names(),
        default="auto",
        help="evaluation strategy (default: auto, the set-at-a-time kernel)",
    )
    parser.add_argument(
        "--count", action="store_true", help="emit result counts, not id lists"
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="emit aggregated per-query counters as JSON on stderr",
    )
    return parser


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description=(
            "build, inspect and query persistent compiled-document "
            "bundles (repro.store); a built bundle reopens zero-copy "
            "via mmap -- no XML re-parsing on any later open"
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    build = sub.add_parser(
        "build", help="compile a document into a bundle directory"
    )
    build.add_argument("out", help="bundle directory to create/overwrite")
    _add_document_arguments(build)
    build.add_argument(
        "--text-content",
        action="store_true",
        help="fill --xmark text elements with character data",
    )
    build.add_argument(
        "--attributes",
        action="store_true",
        help="encode attributes as @name children",
    )
    build.add_argument(
        "--text",
        action="store_true",
        help="encode character data as #text children",
    )

    ls = sub.add_parser(
        "ls", help="show the header(s) of a bundle or corpus directory"
    )
    ls.add_argument("path", help="a bundle, or a directory of bundles")

    verify = sub.add_parser(
        "verify",
        help=(
            "integrity-check a bundle or corpus: fast mode checks "
            "header/manifest/file sizes, --deep recomputes per-array "
            "CRC32 digests"
        ),
    )
    verify.add_argument("path", help="a bundle, or a directory of bundles")
    verify.add_argument(
        "--deep",
        action="store_true",
        help="recompute every array file's CRC32 against the manifest",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="emit the full verification report as JSON",
    )

    sync = sub.add_parser(
        "sync",
        help=(
            "incrementally mirror a directory of XML files into a "
            "corpus: content fingerprints decide the minimal "
            "add/replace/remove set; untouched documents are not "
            "rebuilt"
        ),
    )
    sync.add_argument("source", help="directory of *.xml source files")
    sync.add_argument("corpus", help="corpus directory (created if missing)")
    sync.add_argument(
        "--no-delete",
        action="store_true",
        help="keep corpus documents whose source file is gone",
    )
    sync.add_argument(
        "--compact",
        action="store_true",
        help="delete retired bundles with no live readers afterwards",
    )
    sync.add_argument(
        "--dry-run",
        action="store_true",
        help="report the plan without changing anything",
    )
    sync.add_argument(
        "--attributes",
        action="store_true",
        help="encode attributes as @name children",
    )
    sync.add_argument(
        "--text",
        action="store_true",
        help="encode character data as #text children",
    )

    log = sub.add_parser(
        "log", help="show a corpus' generation history (newest last)"
    )
    log.add_argument("path", help="the corpus directory")
    log.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="show only the most recent N entries",
    )
    log.add_argument(
        "--json", action="store_true", help="emit the raw history entries"
    )

    compact = sub.add_parser(
        "compact",
        help="delete retired bundles no open reader still maps",
    )
    compact.add_argument("path", help="the corpus directory")

    query = sub.add_parser("query", help="run a query on a reopened bundle")
    query.add_argument("query", help="an XPath query")
    query.add_argument("path", help="the bundle directory")
    query.add_argument(
        "--strategy",
        choices=registry.strategy_names(),
        default="auto",
        help="evaluation strategy (default: auto, the set-at-a-time kernel)",
    )
    query.add_argument(
        "--count", action="store_true", help="print only the number of results"
    )
    query.add_argument(
        "--labels",
        action="store_true",
        help="print element names next to node ids",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="emit per-query evaluation statistics as JSON on stderr",
    )
    query.add_argument(
        "--no-mmap",
        action="store_true",
        help="read the arrays into memory instead of mapping them",
    )
    return parser


def _bundle_summary(path: str, header: dict) -> dict:
    import os

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


def store_main(argv: List[str], out) -> int:
    import os

    from repro.store import (
        StoreCorruptionError,
        StoreError,
        open_document,
        read_header,
        bundle_names,
        is_bundle,
        save_document,
        verify_document,
    )

    parser = build_store_parser()
    args = parser.parse_args(argv)

    if args.cmd == "build":
        if args.xmark is not None:
            source = {"kind": "xmark", "scale": args.xmark, "seed": args.seed}
        else:
            source = {"kind": "xml", "file": args.file or "stdin"}
        try:
            path = save_document(
                _load_document(args, parser),
                args.out,
                encode_attributes=args.attributes,
                encode_text=args.text,
                source=source,
            )
        except (ValueError, StoreError, OSError) as exc:
            _report_error(exc)
            return 1
        print(
            json.dumps(
                _bundle_summary(path, read_header(path)), sort_keys=True
            ),
            file=out,
        )
        return 0

    if args.cmd == "sync":
        from repro.store import DocumentStore

        try:
            store = DocumentStore(args.corpus)
            report = store.sync(
                args.source,
                delete=not args.no_delete,
                compact=args.compact,
                dry_run=args.dry_run,
                encode_attributes=args.attributes,
                encode_text=args.text,
            )
        except (ValueError, StoreError, OSError) as exc:
            _report_error(exc)
            return 1
        print(json.dumps(report, sort_keys=True), file=out)
        return 0

    if args.cmd == "log":
        from repro.store import DocumentStore

        try:
            store = DocumentStore(args.path)
            entries = store.log(limit=args.limit)
            generation = store.generation()
        except (StoreError, OSError) as exc:
            _report_error(exc)
            return 1
        if args.json:
            print(
                json.dumps(
                    {"generation": generation, "history": entries},
                    sort_keys=True,
                ),
                file=out,
            )
        else:
            for entry in entries:
                name = entry.get("name", "")
                print(
                    f"g{entry['generation']:<6} {entry['op']:<8} "
                    f"{name:<20} {entry.get('time', '')}",
                    file=out,
                )
            print(f"generation {generation}", file=out)
        return 0

    if args.cmd == "compact":
        from repro.store import DocumentStore

        try:
            report = DocumentStore(args.path).compact()
        except (StoreError, OSError) as exc:
            _report_error(exc)
            return 1
        print(json.dumps(report, sort_keys=True), file=out)
        return 0

    if args.cmd == "ls":
        try:
            if is_bundle(args.path):
                bundles = [("", args.path)]
            else:
                bundles = [
                    (name, os.path.join(args.path, name))
                    for name in bundle_names(args.path)
                ]
            if not bundles:
                print(f"error: no bundles in {args.path!r}", file=sys.stderr)
                return 1
            listing = []
            for name, path in bundles:
                # An unreadable entry (junk from a crashed tool, a
                # mangled header) must not hide the healthy rest of the
                # corpus: warn and keep listing.
                try:
                    summary = _bundle_summary(path, read_header(path))
                except (StoreError, OSError) as exc:
                    print(
                        f"warning: skipping {path!r}: {exc}", file=sys.stderr
                    )
                    continue
                if name:
                    summary["name"] = name
                listing.append(summary)
            if not listing:
                print(
                    f"error: no readable bundles in {args.path!r}",
                    file=sys.stderr,
                )
                return 1
        except OSError as exc:
            _report_error(exc)
            return 1
        print(json.dumps(listing, sort_keys=True), file=out)
        return 0

    if args.cmd == "verify":
        if is_bundle(args.path):
            targets = [("", args.path)]
        else:
            targets = [
                (name, os.path.join(args.path, name))
                for name in bundle_names(args.path)
            ]
            if not targets:
                print(f"error: no bundles in {args.path!r}", file=sys.stderr)
                return 1
        reports = []
        failures = 0
        for name, path in targets:
            entry = {"name": name or os.path.basename(path.rstrip(os.sep))}
            try:
                entry.update(verify_document(path, deep=args.deep))
            except StoreError as exc:
                failures += 1
                entry.update(
                    path=path,
                    mode="deep" if args.deep else "fast",
                    ok=False,
                    error=(
                        exc.to_dict()
                        if isinstance(exc, StoreCorruptionError)
                        else {"reason": str(exc)}
                    ),
                )
            reports.append(entry)
        if args.json:
            print(json.dumps(reports, sort_keys=True), file=out)
        else:
            for entry in reports:
                if entry["ok"]:
                    size = sum(a["bytes"] for a in entry["arrays"].values())
                    detail = f"{len(entry['arrays'])} arrays, {size} bytes"
                    print(f"{entry['name'] or entry['path']}: ok "
                          f"[{entry['mode']}] ({detail})", file=out)
                else:
                    reason = entry["error"].get("reason", "unknown")
                    where = entry["error"].get("array")
                    at = f" array {where!r}" if where else ""
                    print(
                        f"{entry['name'] or entry['path']}: CORRUPT"
                        f"{at}: {reason}",
                        file=out,
                    )
        if failures:
            print(
                f"error: {failures} of {len(reports)} bundle(s) failed "
                f"{'deep' if args.deep else 'fast'} verification",
                file=sys.stderr,
            )
        return 1 if failures else 0

    # query
    try:
        stored = open_document(args.path, mmap=not args.no_mmap)
        engine = Engine(stored, strategy=args.strategy)
        plan = engine.prepare(args.query)
        result = plan.execute()
    except (ValueError, StoreError, OSError) as exc:
        _report_error(exc)
        return 1
    _print_selection(result, engine, args, out)
    if args.stats:
        snapshot = dict(
            result.stats.snapshot(),
            query=args.query,
            strategy=plan.strategy.name,
            nodes=len(engine.tree),
            store=stored.path,
            caches=engine.cache_info(),
        )
        print(json.dumps(snapshot, sort_keys=True), file=sys.stderr)
    return 0


def build_plan_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro plan",
        description=(
            "inspect how the 'auto' default runs a query on a document: "
            "the kernel's join operator per location step"
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    explain = sub.add_parser(
        "explain",
        help="show the executing strategy and its per-step operators",
    )
    explain.add_argument("query", help="an XPath query")
    _add_document_arguments(explain)
    explain.add_argument(
        "--attributes",
        action="store_true",
        help="encode attributes as @name children",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit executes_as and the operator names as JSON",
    )
    return parser


def plan_main(argv: List[str], out) -> int:
    from repro.engine.planner import plan_explain

    parser = build_plan_parser()
    args = parser.parse_args(argv)
    try:
        engine = Engine(
            _load_document(args, parser),
            strategy="auto",
            encode_attributes=args.attributes,
        )
        if args.json:
            print(
                json.dumps(plan_explain(engine, args.query), sort_keys=True),
                file=out,
            )
        else:
            print(engine.prepare(args.query).explain(), file=out)
    except (ValueError, OSError) as exc:
        _report_error(exc)
        return 1
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.serve.daemon import (
        FAIL_THRESHOLD,
        QUEUE_DEPTH,
        RELOAD_POLL_S,
        TIMEOUT_S,
    )

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "run the persistent query daemon over one or more store "
            "corpora (repro.serve); corpora mount via zero-copy mmap "
            "reopen and prepared-query state stays hot across "
            "requests"
        ),
    )
    parser.add_argument(
        "--store",
        action="append",
        required=True,
        metavar="DIR",
        help="corpus directory of bundles (repeatable)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8726,
        help="bind port (0 picks a free one; default 8726)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="evaluation worker threads (default: CPU count)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=QUEUE_DEPTH,
        help=(
            "requests allowed to wait beyond the busy workers before "
            f"429 (default {QUEUE_DEPTH})"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=TIMEOUT_S,
        help=f"per-request budget in seconds (default {TIMEOUT_S:g})",
    )
    parser.add_argument(
        "--strategy",
        choices=registry.strategy_names(),
        default="auto",
        help="evaluation strategy (default: auto, the set-at-a-time kernel)",
    )
    parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="read the corpus arrays into memory instead of mapping them",
    )
    parser.add_argument(
        "--fail-threshold",
        type=int,
        default=FAIL_THRESHOLD,
        metavar="N",
        help=(
            "quarantine a document after N consecutive failed "
            f"evaluations, 0 disables (default {FAIL_THRESHOLD})"
        ),
    )
    parser.add_argument(
        "--reload-poll",
        type=float,
        default=RELOAD_POLL_S,
        metavar="SECONDS",
        help=(
            "poll each corpus' change stamp every SECONDS and hot-"
            "reload when it moves; 0 disables polling (default "
            f"{RELOAD_POLL_S:g}; POST /reload always works)"
        ),
    )
    return parser


def serve_main(argv: List[str], out) -> int:
    from repro.serve.daemon import QueryDaemon
    from repro.store import StoreError

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
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
    except (ValueError, StoreError, OSError) as exc:
        _report_error(exc)
        return 1

    def ready(d: QueryDaemon) -> None:
        print(
            json.dumps(
                {
                    "serving": f"{d.host}:{d.port}",
                    "documents": d.documents(),
                    "strategy": d.workspace.strategy,
                    "workers": d.workers,
                    "admission_limit": d.admission.limit,
                    "timeout_s": d.timeout,
                },
                sort_keys=True,
            ),
            file=out,
            flush=True,
        )

    try:
        daemon.run(ready=ready)
    except OSError as exc:  # e.g. port already bound
        _report_error(exc)
        return 1
    return 0


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="talk to a running repro serve daemon",
    )
    parser.add_argument("--host", default="127.0.0.1", help="daemon host")
    parser.add_argument(
        "--port", type=int, default=8726, help="daemon port (default 8726)"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help=(
            "retry budget for connection errors and 429/503 responses "
            "(default 2; 0 fails fast)"
        ),
    )
    parser.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help=(
            "base retry backoff, doubled per attempt with seeded "
            "jitter (default 0.05)"
        ),
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_format(p) -> None:
        p.add_argument(
            "--format",
            choices=("table", "csv", "json"),
            default="table",
            help="output rendering (default: table)",
        )

    query = sub.add_parser("query", help="run one query on the daemon")
    query.add_argument("query", help="an XPath query")
    query.add_argument("--document", help="mounted document name")
    query.add_argument(
        "--count", action="store_true", help="print only the result count"
    )
    query.add_argument(
        "--labels", action="store_true", help="include element names"
    )
    add_format(query)

    batch = sub.add_parser("batch", help="run a query file as one batch")
    batch.add_argument(
        "--queries",
        required=True,
        metavar="FILE",
        help="query file (same format as repro batch)",
    )
    batch.add_argument("--document", help="mounted document name")
    batch.add_argument(
        "--count", action="store_true", help="fetch counts, not id lists"
    )
    add_format(batch)

    explain = sub.add_parser(
        "explain", help="show the daemon's plan for a query"
    )
    explain.add_argument("query", help="an XPath query")
    explain.add_argument("--document", help="mounted document name")

    stats = sub.add_parser("stats", help="daemon counters and cache state")
    add_format(stats)

    sub.add_parser("health", help="liveness probe")

    sub.add_parser(
        "reload",
        help=(
            "ask the daemon to re-mount its corpora at the current "
            "generation (picks up repro store sync / add / replace / "
            "remove without a restart)"
        ),
    )
    return parser


def client_main(argv: List[str], out) -> int:
    from repro.serve.client import ServeClient, ServeError, format_rows

    parser = build_client_parser()
    args = parser.parse_args(argv)
    try:
        client = ServeClient(
            args.host, args.port, retries=args.retries, backoff_s=args.backoff
        )
    except ValueError as exc:
        _report_error(exc)
        return 1
    try:
        if args.cmd == "query":
            payload = client.query(
                args.query,
                document=args.document,
                count=args.count,
                labels=args.labels,
            )
            if args.format == "json":
                print(json.dumps(payload, sort_keys=True), file=out)
            elif args.count:
                print(payload["count"], file=out)
            else:
                ids = payload.get("ids", [])
                labels = payload.get("labels")
                if labels is not None:
                    rows = [
                        {"id": v, "label": l} for v, l in zip(ids, labels)
                    ]
                    print(format_rows(rows, ["id", "label"], args.format), file=out)
                else:
                    rows = [{"id": v} for v in ids]
                    print(format_rows(rows, ["id"], args.format), file=out)
        elif args.cmd == "batch":
            named = _read_queries(args.queries)
            if not named:
                print(f"error: no queries in {args.queries}", file=sys.stderr)
                return 1
            payload = client.batch(
                [q for _, q in named],
                document=args.document,
                count=args.count,
            )
            if args.format == "json":
                print(json.dumps(payload, sort_keys=True), file=out)
            else:
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
                print(
                    format_rows(
                        rows,
                        ["name", "query", "count", "strategy", "warm", "ms"],
                        args.format,
                    ),
                    file=out,
                )
        elif args.cmd == "explain":
            payload = client.explain(args.query, document=args.document)
            print(payload["text"], file=out)
        elif args.cmd == "stats":
            payload = client.stats()
            if args.format == "json":
                print(json.dumps(payload, sort_keys=True), file=out)
            else:
                rows = [
                    {"counter": key, "value": value}
                    for key, value in sorted(payload["counters"].items())
                ]
                rows.append(
                    {"counter": "uptime_s", "value": payload["uptime_s"]}
                )
                rows.append(
                    {
                        "counter": "in_flight",
                        "value": payload["admission"]["in_flight"],
                    }
                )
                print(
                    format_rows(rows, ["counter", "value"], args.format),
                    file=out,
                )
        elif args.cmd == "reload":
            print(json.dumps(client.reload(), sort_keys=True), file=out)
        else:  # health
            print(json.dumps(client.healthz(), sort_keys=True), file=out)
    except ServeError as exc:
        error = exc.payload.get("error", {})
        if error.get("kind") == "syntax":
            # Render the daemon's structured payload exactly as a local
            # parse failure: message, offset, caret.
            _report_error(
                XPathSyntaxError(
                    error.get("message", str(exc)),
                    offset=error.get("offset"),
                    query=error.get("query"),
                )
            )
        else:
            _report_error(exc)
        return 1
    except BrokenPipeError:
        raise  # handled once, in main()
    except (ConnectionError, ValueError, OSError) as exc:
        _report_error(exc)
        return 1
    finally:
        client.close()
    return 0


def _read_queries(path: str) -> List[tuple]:
    """Parse a batch query file into (name, query) pairs.

    Raises ``ValueError`` on duplicate names -- silently overwriting a
    result under a reused key would drop a query from the report.
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
    return out


def batch_main(argv: List[str], out) -> int:
    from repro.engine.workspace import Workspace

    parser = build_batch_parser()
    args = parser.parse_args(argv)
    workspace = Workspace(strategy=args.strategy)
    try:
        named = _read_queries(args.queries)
        if not named:
            raise ValueError(f"no queries in {args.queries}")
        workspace.add("doc", _load_document(args, parser))
        service = workspace.service(jobs=args.jobs, executor=args.executor)
        batch = service.run_batch(["doc"], [query for _, query in named])["doc"]
        results = {}
        stats = {}
        for name, query in named:
            result = batch[query]
            results[name] = len(result) if args.count else result.nodes
            stats[name] = dict(result.stats.snapshot(), query=query)
    except (ValueError, OSError) as exc:
        _report_error(exc)
        return 1
    finally:
        workspace.close()
    payload = {
        "document": args.file or ("xmark" if args.xmark is not None else "stdin"),
        "jobs": service.jobs,
        "executor": args.executor,
        "strategy": args.strategy,
        "results": results,
    }
    print(json.dumps(payload, sort_keys=True), file=out)
    if args.stats:
        print(json.dumps(stats, sort_keys=True), file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
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


def _main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "batch":
        return batch_main(argv[1:], out)
    if argv and argv[0] == "store":
        return store_main(argv[1:], out)
    if argv and argv[0] == "plan":
        return plan_main(argv[1:], out)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:], out)
    if argv and argv[0] == "client":
        return client_main(argv[1:], out)
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_strategies:
        for name, summary in registry.describe_strategies():
            print(f"{name:14s} {summary}", file=out)
        return 0

    if args.query is None:
        parser.error("query is required unless --list-strategies is given")

    try:
        engine = Engine(
            _load_document(args, parser),
            strategy=args.strategy,
            encode_attributes=args.attributes,
        )
    except (ValueError, OSError) as exc:
        _report_error(exc)
        return 1

    try:
        if args.explain:
            print(engine.explain(args.query), file=out)
            return 0
        plan = engine.prepare(args.query)
        result = plan.execute()
    except ValueError as exc:
        _report_error(exc)
        return 1

    _print_selection(result, engine, args, out)

    if args.stats:
        snapshot = dict(
            result.stats.snapshot(),
            query=args.query,
            strategy=plan.strategy.name,
            nodes=len(engine.tree),
            caches=engine.cache_info(),
        )
        print(json.dumps(snapshot, sort_keys=True), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
