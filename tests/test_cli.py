"""Command-line interface."""

import io
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text('<r><a id="1"><b/></a><b/></r>')
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCLI:
    def test_basic_query(self, xml_file):
        code, out = run(["//a/b", xml_file])
        assert code == 0
        assert out.strip() == "2"

    def test_count(self, xml_file):
        code, out = run(["//b", xml_file, "--count"])
        assert code == 0
        assert out.strip() == "2"

    def test_labels(self, xml_file):
        code, out = run(["/r/*", xml_file, "--labels"])
        assert code == 0
        assert out.splitlines() == ["1\ta", "3\tb"]

    def test_strategies(self, xml_file):
        for strategy in ("naive", "hybrid", "deterministic"):
            code, out = run(["//b", xml_file, "--strategy", strategy])
            assert code == 0
            assert out.strip() == "2 3"

    def test_all_registered_strategies_accepted(self, xml_file):
        from repro.engine import registry

        for strategy in registry.strategy_names():
            code, out = run(["//b", xml_file, "--strategy", strategy])
            assert code == 0, strategy
            assert out.strip() == "2 3", strategy

    def test_list_strategies(self):
        from repro.engine import registry

        code, out = run(["--list-strategies"])
        assert code == 0
        listed = [line.split()[0] for line in out.strip().splitlines()]
        assert sorted(listed) == registry.strategy_names()
        # The recommended default leads the listing, with a summary.
        first = out.strip().splitlines()[0]
        assert first.split()[0] == "auto"
        assert len(first.split()) > 1, "auto has no one-line summary"

    def test_query_required_without_list_strategies(self, capsys):
        with pytest.raises(SystemExit):
            run([])

    def test_stats_emits_json(self, xml_file, capsys):
        import json

        code, out = run(["//b", xml_file, "--stats"])
        assert code == 0
        assert out.strip() == "2 3"
        stats = json.loads(capsys.readouterr().err.strip())
        assert stats["selected"] == 2
        assert stats["strategy"] == "auto"  # the kernel is the default
        assert stats["query"] == "//b"
        assert stats["visited"] >= 2
        assert stats["nodes"] == 4
        # The bounded caches are surfaced for service observability.
        assert stats["caches"]["plans"]["size"] >= 1
        assert stats["caches"]["plans"]["maxsize"] > 0
        assert "fused" in stats["caches"]

    def test_explicit_strategy_reported_in_stats(self, xml_file, capsys):
        code, out = run(["//b", xml_file, "--strategy", "optimized", "--stats"])
        assert code == 0
        stats = json.loads(capsys.readouterr().err.strip())
        assert stats["strategy"] == "optimized"

    def test_plan_explain_json(self, xml_file):
        code, out = run(["plan", "explain", "//a/b", xml_file, "--json"])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["strategy"] == "auto"
        assert verdict["executes_as"] == "window"
        assert verdict["operators"] == ["document", "child/csr"]
        assert "planner" not in verdict

    def test_plan_explain_text(self, xml_file):
        code, out = run(["plan", "explain", "//a/b", xml_file])
        assert code == 0
        assert out.splitlines()[:2] == ["strategy: auto", "executes as: window"]
        assert "child/csr" in out and "touches" in out
        assert "planner" not in out and "cost" not in out

    def test_plan_explain_backward_axis_resolves(self, xml_file):
        # Backward axes run where every path runs: the kernel evaluates
        # them natively (reverse window containment).
        code, out = run(["plan", "explain", "//b/parent::a", xml_file, "--json"])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["strategy"] == "auto"
        assert verdict["executes_as"] == "window"
        assert verdict["operators"] == ["document", "parent/mark"]
        assert "planner" not in verdict

    def test_explain(self, xml_file):
        code, out = run(["//a//b", xml_file, "--explain", "--strategy", "optimized"])
        assert code == 0
        assert "ASTA" in out

    def test_attributes_flag(self, xml_file):
        code, out = run(["//a[@id]", xml_file, "--attributes", "--count"])
        assert code == 0
        assert out.strip() == "1"

    def test_xmark_generation(self):
        code, out = run(["//keyword", "--xmark", "0.05", "--count"])
        assert code == 0
        assert int(out.strip()) > 0

    def test_bad_query_is_an_error(self, xml_file):
        code, _ = run(["//a[", xml_file])
        assert code == 1

    def test_bad_xml_is_an_error(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<a><b></a>")
        code, _ = run(["//a", str(path)])
        assert code == 1


class TestBatchCLI:
    @pytest.fixture()
    def query_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("K\t//a/b\n# a comment\n\n//b\n")
        return str(path)

    def test_batch_over_file(self, xml_file, query_file):
        import json

        code, out = run(
            ["batch", "--queries", query_file, xml_file, "--jobs", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"] == {"K": [2], "q4": [2, 3]}
        assert payload["jobs"] == 2

    def test_batch_counts_on_xmark(self, query_file, tmp_path):
        import json

        path = tmp_path / "q.txt"
        path.write_text("//keyword\n")
        code, out = run(
            ["batch", "--queries", str(path), "--xmark", "0.05", "--count"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["q1"] > 0
        assert payload["document"] == "xmark"

    def test_batch_duplicate_names_rejected(self, xml_file, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("x\t//a\nx\t//b\n")
        code, _ = run(["batch", "--queries", str(path), xml_file])
        assert code == 1

    def test_batch_file_and_xmark_conflict(self, xml_file, query_file):
        with pytest.raises(SystemExit) as exc:
            run(
                ["batch", "--queries", query_file, xml_file, "--xmark", "0.1"]
            )
        assert exc.value.code == 2

    def test_batch_removed_process_executor_is_a_usage_error(
        self, xml_file, query_file
    ):
        argv = ["batch", "--queries", query_file, xml_file]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--executor", "process"])
        assert exc.value.code == 2

    def test_batch_empty_query_file(self, xml_file, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("# nothing\n")
        code, _ = run(["batch", "--queries", str(path), xml_file])
        assert code == 1

    def test_batch_bad_query_is_an_error(self, xml_file, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("//a[\n")
        code, _ = run(["batch", "--queries", str(path), xml_file])
        assert code == 1


class TestStoreCLI:
    def test_build_ls_query_flow(self, xml_file, tmp_path):
        bundle = str(tmp_path / "bundle")
        code, out = run(["store", "build", bundle, xml_file])
        assert code == 0
        summary = json.loads(out)
        assert summary["nodes"] == 4 and summary["version"] == 5

        code, out = run(["store", "ls", bundle])
        assert code == 0
        assert json.loads(out)[0]["nodes"] == 4

        code, out = run(["store", "query", "//a/b", bundle])
        assert code == 0
        assert out.strip() == "2"

        code, out = run(["store", "query", "//b", bundle, "--count"])
        assert code == 0 and out.strip() == "2"

    def test_build_xmark_and_corpus_ls(self, tmp_path):
        root = tmp_path / "corpus"
        code, out = run(
            ["store", "build", str(root / "xm"), "--xmark", "0.02"]
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["nodes"] > 100

        code, out = run(["store", "ls", str(root)])
        assert code == 0
        listing = json.loads(out)
        assert [b["name"] for b in listing] == ["xm"]

        code, out = run(["store", "query", "//edge", str(root / "xm"), "--count"])
        assert code == 0
        assert int(out.strip()) > 0

    def test_build_attributes_encoding(self, xml_file, tmp_path):
        bundle = str(tmp_path / "attrs")
        code, _ = run(["store", "build", bundle, xml_file, "--attributes"])
        assert code == 0
        code, out = run(["store", "query", "//a[@id]", bundle, "--count"])
        assert code == 0 and out.strip() == "1"

    def test_query_missing_bundle_is_an_error(self, tmp_path):
        code, _ = run(["store", "query", "//a", str(tmp_path / "nope")])
        assert code == 1

    def test_build_file_and_xmark_conflict(self, xml_file, tmp_path):
        with pytest.raises(SystemExit):
            run(["store", "build", str(tmp_path / "x"), xml_file, "--xmark", "1"])

    def test_query_stats_record_store(self, xml_file, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        run(["store", "build", bundle, xml_file])
        code, _ = run(["store", "query", "//b", bundle, "--stats"])
        assert code == 0
        payload = json.loads(capsys.readouterr().err)
        assert payload["store"].endswith("bundle")


class TestStructuredSyntaxErrors:
    def test_caret_rendering_on_stderr(self, xml_file, capsys):
        code, _ = run(["//a[b(", xml_file])
        assert code == 1
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0].startswith("syntax error:")
        assert "(offset 5)" in lines[0]
        assert lines[1] == "  //a[b("
        assert lines[2] == "  " + " " * 5 + "^"

    @pytest.mark.parametrize(
        "query, axis, offset",
        [
            ("//a/preceding::b", "preceding", 4),
            ("//a/following::b", "following", 4),
            ("/a/self::b", "self", 3),
            ("//a[preceding-sibling::b]", "preceding-sibling", 4),
        ],
    )
    def test_axis_outside_the_fragment_is_named(
        self, xml_file, capsys, query, axis, offset
    ):
        code, _ = run([query, xml_file])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == (
            f"syntax error: unsupported axis {axis!r} (offset {offset})"
        )
        assert lines[1] == "  " + query
        assert lines[2] == "  " + " " * offset + "^"

    def test_ten_thousand_nested_predicates_are_a_syntax_error(
        self, xml_file, capsys
    ):
        from repro.xpath.parser import MAX_NESTING

        query = "/a" + "[b" * 10**4 + "]" * 10**4
        code, _ = run([query, xml_file])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == (
            f"syntax error: nesting deeper than {MAX_NESTING} brackets "
            f"(offset {2 + 2 * MAX_NESTING})"
        )
        assert "Traceback" not in err

    def test_non_syntax_errors_keep_plain_format(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<a><b></a>")
        code, _ = run(["//a", str(path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["//a", "MISSING.xml"],
            ["//a", "LATIN1.xml"],
            ["batch", "--queries", "QUERIES.txt", "MISSING.xml"],
            ["batch", "--queries", "MISSING.txt", "--xmark", "0.01"],
            ["batch", "--queries", "LATIN1.xml", "--xmark", "0.01"],
            ["plan", "explain", "//a", "MISSING.xml"],
            ["store", "build", "OUT", "MISSING.xml"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_unreadable_input_is_one_error_line(self, argv, tmp_path, capsys):
        """A document or query file that is missing or not UTF-8 ends
        every command that reads one the same way: exit 1, one
        ``error:`` line, no traceback."""
        (tmp_path / "QUERIES.txt").write_text("//a\n")
        (tmp_path / "LATIN1.xml").write_bytes("<r>caf\xe9</r>".encode("latin-1"))
        names = ("MISSING.xml", "MISSING.txt", "LATIN1.xml", "QUERIES.txt", "OUT")
        argv = [str(tmp_path / a) if a in names else a for a in argv]
        code, out = run(argv)
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_batch_surfaces_caret_too(self, xml_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("//a[\n")
        code, _ = run(["batch", "--queries", str(queries), xml_file])
        assert code == 1
        assert "syntax error:" in capsys.readouterr().err


class TestStoreLsStats:
    def test_ls_reports_persisted_document_stats(self, xml_file, tmp_path):
        bundle = str(tmp_path / "bundle")
        code, _ = run(["store", "build", bundle, xml_file])
        assert code == 0
        code, out = run(["store", "ls", bundle])
        assert code == 0
        entry = json.loads(out)[0]
        assert entry["nodes"] == 4
        assert entry["height"] == 2
        assert entry["bytes"] > 0


class TestServeParsers:
    """Argument wiring for `repro serve` / `repro client` (the live
    daemon round trip is covered by tests/test_serve.py and the bench)."""

    def test_serve_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            run(["serve"])

    def test_serve_rejects_missing_store(self, tmp_path):
        code, _ = run(["serve", "--store", str(tmp_path / "nope")])
        assert code == 1

    @pytest.mark.parametrize("option", ["--pool-workers", "--pool-min-nodes"])
    def test_serve_has_no_pool_options(self, option, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["serve", "--store", str(tmp_path), option, "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_client_query_against_live_daemon(self, xml_file, tmp_path):
        import threading

        from repro.serve import DaemonThread, QueryDaemon

        bundle_root = str(tmp_path / "corpus")
        code, _ = run(["store", "build", bundle_root + "/doc", xml_file])
        assert code == 0
        with DaemonThread(QueryDaemon(bundle_root)) as handle:
            port = str(handle.port)
            code, out = run(
                ["client", "--port", port, "query", "//a/b", "--format", "csv"]
            )
            assert code == 0
            assert out.splitlines() == ["id", "2"]
            code, out = run(
                ["client", "--port", port, "stats", "--format", "json"]
            )
            assert code == 0
            assert json.loads(out)["counters"]["queries"] == 1

    def test_client_syntax_error_renders_caret(self, xml_file, tmp_path, capsys):
        from repro.serve import DaemonThread, QueryDaemon

        bundle_root = str(tmp_path / "corpus")
        run(["store", "build", bundle_root + "/doc", xml_file])
        with DaemonThread(QueryDaemon(bundle_root)) as handle:
            code, _ = run(
                ["client", "--port", str(handle.port), "query", "//a["]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "syntax error:" in err and "^" in err

    def test_client_connection_refused_is_an_error(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listening here now
        code, _ = run(["client", "--port", str(port), "health"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


# -- output no other test pins -------------------------------------------------


@pytest.fixture()
def synced_corpus(tmp_path):
    """A corpus three generations old: two adds, then one replace."""
    source = tmp_path / "xml"
    source.mkdir()
    (source / "one.xml").write_text("<r><a/><b/></r>")
    (source / "two.xml").write_text("<r><c/></r>")
    corpus = str(tmp_path / "corpus")
    assert run(["store", "sync", str(source), corpus])[0] == 0
    (source / "one.xml").write_text("<r><a/></r>")
    assert run(["store", "sync", str(source), corpus])[0] == 0
    return str(source), corpus


def _tree(root):
    """Every path under ``root`` with its bytes (``None`` for a directory)."""
    found = {}
    for base, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.join(base, name)] = None
        for name in files:
            with open(os.path.join(base, name), "rb") as handle:
                found[os.path.join(base, name)] = handle.read()
    return found


class TestStoreMutationCLI:
    def test_log_lines_and_limit(self, synced_corpus):
        _, corpus = synced_corpus
        code, out = run(["store", "log", corpus])
        assert code == 0
        lines = out.splitlines()
        entry = r"g{}\s+{}\s+{}\s+\d{{4}}-\d\d-\d\dT\S+"
        for line, (g, op, name) in zip(
            lines, [(1, "add", "one"), (2, "add", "two"), (3, "replace", "one")]
        ):
            assert re.fullmatch(entry.format(g, op, name), line), line
        assert lines[3:] == ["generation 3"]
        assert lines[0].index("add") == 8 and lines[0].index("one") == 17

        code, out = run(["store", "log", corpus, "--limit", "1"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("g3      replace  one ")
        assert lines[1] == "generation 3"

    def test_log_json_loads_the_manifest_once(self, synced_corpus, monkeypatch):
        import repro.store.manifest

        _, corpus = synced_corpus
        loads = []
        load = repro.store.manifest.load_manifest

        def counted(root):
            loads.append(root)
            return load(root)

        monkeypatch.setattr(repro.store.manifest, "load_manifest", counted)
        code, out = run(["store", "log", corpus, "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["generation"] == 3 and len(report["history"]) == 3
        assert loads == [corpus]

    def test_compact_reports_json_keys(self, synced_corpus):
        _, corpus = synced_corpus
        code, out = run(["store", "compact", corpus])
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == ["deleted", "generation", "kept"]
        assert len(report["deleted"]) == 1 and report["kept"] == []
        assert report["generation"] == 4

    def test_sync_dry_run_leaves_the_corpus_untouched(self, synced_corpus):
        source, corpus = synced_corpus
        with open(f"{source}/two.xml", "w") as handle:
            handle.write("<r><c/><c/></r>")
        before = _tree(corpus)
        code, out = run(["store", "sync", source, corpus, "--dry-run"])
        assert code == 0
        report = json.loads(out)
        assert report["dry_run"] is True and report["replaced"] == ["two"]
        assert report["generation"] == {"after": 3, "before": 3}
        assert _tree(corpus) == before

    @pytest.mark.parametrize("verb", ["log", "compact"])
    def test_missing_corpus_is_an_error(self, verb, tmp_path, capsys):
        typo = tmp_path / "typo"
        code, out = run(["store", verb, str(typo)])
        err = capsys.readouterr().err
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not typo.exists()


class TestStoreVerifyText:
    def test_ok_and_corrupt_lines(self, tmp_path, capsys):
        from repro.engine.workspace import Workspace
        from repro.faults import corrupt_bundle

        root = tmp_path / "corpus"
        with Workspace() as ws:
            ws.add("good", "<r><a/><b/></r>")
            ws.add("bad", "<r><a/><b/></r>")
            ws.save(str(root))
        code, out = run(["store", "verify", str(root)])
        assert code == 0
        assert re.fullmatch(
            r"bad: ok \[fast\] \(5 arrays, \d+ bytes\)\n"
            r"good: ok \[fast\] \(5 arrays, \d+ bytes\)\n",
            out,
        ), out
        capsys.readouterr()

        corrupt_bundle(str(root / "bad"), "xml_end", mode="bit_flip", seed=4)
        code, out = run(["store", "verify", str(root), "--deep"])
        assert code == 1
        bad, good = out.splitlines()
        assert bad.startswith("bad: CORRUPT array 'xml_end': "), bad
        assert re.fullmatch(r"good: ok \[deep\] \(5 arrays, \d+ bytes\)", good)
        err = capsys.readouterr().err
        assert err == "error: 1 of 2 bundle(s) failed deep verification\n"


class TestStoreQueryCLI:
    def test_no_mmap_labels(self, xml_file, tmp_path):
        bundle = str(tmp_path / "bundle")
        assert run(["store", "build", bundle, xml_file])[0] == 0
        code, out = run(["store", "query", "/r/*", bundle, "--no-mmap", "--labels"])
        assert code == 0
        assert out.splitlines() == ["1\ta", "3\tb"]

    def test_query_closes_its_reader(self, xml_file, tmp_path):
        from repro.store import live_readers

        bundle = str(tmp_path / "bundle")
        assert run(["store", "build", bundle, xml_file])[0] == 0
        assert live_readers(bundle) == 0
        code, out = run(["store", "query", "//b", bundle, "--count"])
        assert code == 0 and out.strip() == "2"
        assert live_readers(bundle) == 0


class TestClientOutput:
    @pytest.fixture()
    def daemon_port(self, xml_file, tmp_path):
        from repro.serve import DaemonThread, QueryDaemon

        root = str(tmp_path / "corpus")
        assert run(["store", "build", root + "/doc", xml_file])[0] == 0
        with DaemonThread(QueryDaemon(root)) as handle:
            yield str(handle.port)

    def test_batch_table(self, daemon_port, tmp_path):
        queries = tmp_path / "q.txt"
        queries.write_text("K\t//a/b\n//b\n")
        code, out = run(
            ["client", "--port", daemon_port, "batch", "--queries", str(queries),
             "--count", "--format", "table"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["name", "query", "count", "strategy", "warm", "ms"]
        assert set(lines[1]) <= {"-", " "}
        assert [line.split()[:4] for line in lines[2:]] == [
            ["K", "//a/b", "1", "auto"],
            ["q2", "//b", "2", "auto"],
        ]

    def test_stats_csv(self, daemon_port):
        code, out = run(["client", "--port", daemon_port, "stats", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "counter,value"
        counters = [line.split(",")[0] for line in lines[1:]]
        assert counters[-2:] == ["uptime_s", "in_flight"]
        assert "queries" in counters and counters[:-2] == sorted(counters[:-2])

    def test_reload(self, daemon_port):
        code, out = run(["client", "--port", daemon_port, "reload"])
        assert code == 0
        report = json.loads(out)
        assert report["reloaded"] is False


def _cli_process(*argv, **kwargs):
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=env, **kwargs
    )


class TestProcessOutput:
    def test_serve_ready_line_keys(self, xml_file, tmp_path):
        root = str(tmp_path / "corpus")
        assert run(["store", "build", root + "/doc", xml_file])[0] == 0
        proc = _cli_process(
            "serve", "--store", root, "--port", "0", "--workers", "1",
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            ready = json.loads(proc.stdout.readline())
        finally:
            proc.terminate()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert sorted(ready) == [
            "admission_limit", "documents", "serving", "strategy",
            "timeout_s", "workers",
        ]
        assert ready["serving"].startswith("127.0.0.1:")
        assert ready["documents"] == ["doc"] and ready["workers"] == 1
        assert ready["strategy"] == "auto"

    def test_broken_pipe_exits_quietly(self):
        proc = _cli_process(
            "//*", "--xmark", "0.5",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
