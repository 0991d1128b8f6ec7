"""Schema test of the benchmark: ``run.py --smoke`` (tiny documents, two
rounds) must emit exactly the workloads and metric names ``BENCHMARK.json``
declares, fail no operation, and write span files that parse.

The four workloads run as four concurrent ``run.py`` processes: besides
keeping the test short, that checks two runs can overlap (port 0, separate
scratch directories) without colliding.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = ["engine-mix", "serve-point", "serve-scan", "ingest-sync"]
END_TO_END = ["setup_s", "ops_per_s", "latency_ms_p50", "cpu_ms_per_op",
              "cold_ms_p50", "peak_rss_mb"]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def suites(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    procs = {}
    for name in WORKLOADS:
        path = str(out / f"{name}.json")
        procs[name] = (path, subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--workload", name, "--seed", "7", "--out", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))
    suites = {}
    for name, (path, proc) in procs.items():
        try:
            stdout, stderr = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 0, f"{name}:\n{stdout}\n{stderr}"
        with open(path) as handle:
            suites[name] = json.load(handle)
    return suites


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert all(part.startswith("perf/") or "/" not in part for part in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert re.match(r"[A-Za-z0-9_/%.-]{1,16}$", metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    setup = spec["end_to_end"][0]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) == 52


def test_statistics_of_few_blocks_stay_inside_the_observed_range():
    sys.path.insert(0, HERE)
    try:
        from harness import fast_decile, quantile, summarize
    finally:
        sys.path.remove(HERE)
    # Two smoke blocks as engine-mix reads them: an extrapolating quantile
    # would put the fast decile below zero here.
    assert fast_decile([0.45, 0.085]) == pytest.approx(0.1215)
    assert fast_decile([300.0, 100.0, 200.0], "higher") == pytest.approx(280.0)
    assert fast_decile([7.0]) == quantile([7.0], 0.5) == 7.0
    two = summarize([0.45, 0.085], 0.1215, per_rep=[0.45, 0.085], bound=0.25)
    assert 0.085 <= two["value"] <= two["q1"] <= two["median"] <= two["q3"] <= 0.45
    assert two["noisy"] and two["n"] == 2 and two["per_block"] == [0.45, 0.085]
    steady = summarize([1.0, 1.1, 1.2], 1.02, per_rep=[1.0, 1.1], bound=0.25)
    assert not steady["noisy"]
    one = summarize([7.0], 7.0)
    assert (one["value"], one["q1"], one["q3"], one["n"]) == (7.0, 7.0, 7.0, 1)
    assert "per_rep" not in one and "noisy" not in one


def test_smoke_emits_the_declared_names_and_fails_nothing(spec, suites):
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        suite = suites[name]
        assert list(suite["workloads"]) == [name]
        assert suite["smoke"] and suite["env"]["seed"] == 7
        assert suite["env"]["src_lines"] > 0 and suite["env"]["nproc"] >= 1
        entry = suite["workloads"][name]
        untraced, traced = entry["untraced"], entry["traced"]
        assert set(untraced["end_to_end"]) == end_to_end
        assert set(traced["per_layer"]) == per_layer
        for run in (untraced, traced):
            assert run["failed"] == 0 and run["attempted"] >= 1
            assert run["failed_share"] == 0
        for key, stat in untraced["end_to_end"].items():
            assert stat["value"] > 0, key
            assert 0 < stat["q1"] <= stat["median"] <= stat["q3"] and stat["n"] >= 1
            assert len(stat["per_block"]) == stat["n"]
        assert len(untraced["loadavg_1m"]) == 2
        assert traced["per_layer"]["trace.unaccounted_share"] <= 0.5
        # Counts the program makes repeat exactly.
        assert traced["per_layer"]["engine.visited_per_selected.optimized"] > 0


def test_span_files_parse_and_every_parent_is_present(suites):
    for name in WORKLOADS:
        traced = suites[name]["workloads"][name]["traced"]
        with open(os.path.join(ROOT, traced["spans_file"])) as handle:
            spans = json.load(handle)["spans"]
        assert len(spans) == traced["spans"] > 0
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert set(span) - {"synth"} == {"id", "name", "start", "end", "parent", "op"}
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                assert span["name"] in ("op", "cold")
            else:
                assert by_id[span["parent"]]["op"] == span["op"]


def test_compare_of_a_suite_with_itself_is_within_bounds(spec, suites, capsys):
    sys.path.insert(0, HERE)
    try:
        import compare
    finally:
        sys.path.remove(HERE)
    suite = suites["ingest-sync"]
    assert compare.report(suite, suite, spec) == 0
    text = capsys.readouterr().out
    assert "ingest-sync" in text and "worse" not in text
