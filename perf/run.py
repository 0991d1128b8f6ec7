#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of engine, serve and ingest.

One workload, as the driver of ``BENCHMARK.json`` runs it::

    python3 perf/run.py --workload engine-mix --seed 42 --seconds 12 --trace 0

prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``).

The whole suite, every workload untraced and traced in a fresh interpreter
each, with a report::

    python3 perf/run.py [--seed N] [--seconds S] [--smoke] [--out FILE] [--repeat 2]

``--repeat 2`` runs the suite twice and compares the two with ``compare.py``.
See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from harness import FULL, SMOKE, WORK, fast_decile, median, summarize  # noqa: E402

WORKLOAD_NAMES = ("engine-mix", "serve-point", "serve-scan", "ingest-sync")


def write_record(record: dict, path: str) -> None:
    """Indented JSON with each list of numbers (per-block values) on one line."""
    text = re.sub(
        r"\[[-+.eE\d,\s]+\]", lambda m: " ".join(m.group().split()),
        json.dumps(record, indent=1),
    )
    with open(path, "w") as handle:
        handle.write(text + "\n")


def load_spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- one workload ----------------------------------------------------------------

BLOCK_METRICS = ("ops_per_s", "latency_ms_p50", "cpu_ms_per_op")  # Round.blocks order


class Rep:
    """What one repetition (set up, measure, tear down) of a run gave."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.rounds = []  # [(tracer, Round)]
        self.host_ms = []  # harness.host_kernel_ms() before every round
        self.cold_ms = []  # [(query index, ms)]: set-up, rounds and cold phase
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def add(self, part) -> None:
        self.cold_ms.extend(part.cold_ms)
        self.attempted += part.attempted
        self.failed += part.failed


def _cold(samples):
    """Cold samples -> (value, per-query fast deciles, per-pass medians).
    The value is the median over the mix of each query's fast decile over the
    cold passes (one fresh engine, daemon or workspace each): per query, so
    that it does not jump when noise reorders two queries of similar cost."""
    by_query = {}
    for query, ms in samples:
        by_query.setdefault(query, []).append(ms)
    per_query = [fast_decile(v) for v in by_query.values()]
    passes = [median(p) for p in zip(*by_query.values())]
    return median(per_query), per_query, passes


def _rounds(rep, workload, rng, sizes, deadline, tracers) -> None:
    """Run rounds until the deadline (smoke: a fixed count), cycling through
    ``tracers`` (``[None]`` untraced; ``[None, tracer]`` alternates)."""
    while True:
        for tracer in tracers:
            gc.collect()
            rep.host_ms.append(harness.host_kernel_ms())
            rep.rounds.append((tracer, workload.round(rng, tracer)))
        if sizes.rounds is not None:
            if len(rep.rounds) >= sizes.rounds * len(tracers):
                return
        elif perf_counter() >= deadline:
            return


def _run(name, sizes, seed, seconds, workdir, reps, tracers):
    """``reps`` times: set up, run the rounds and the cold phase for
    ``seconds / reps``, tear down.  Several set-ups give ``setup_s`` a median,
    and measuring between them spreads the blocks of one run over its whole
    wall time.  Returns ([Rep], the last workload)."""
    from workloads import WORKLOADS

    out = []
    rng = random.Random(seed)
    for n in range(reps):
        gc.collect()
        path = os.path.join(workdir, f"rep-{n}")
        os.makedirs(path)
        workload = WORKLOADS[name](sizes, seed, path)
        rep = Rep()
        out.append(rep)
        try:
            t0 = perf_counter()
            workload.setup()
            start = perf_counter()
            rep.setup_s = start - t0
            rep.add(workload.setup_cold)
            share = seconds / reps
            _rounds(
                rep, workload, rng, sizes, start + share * workload.round_share, tracers
            )
            gc.collect()
            rep.add(workload.cold_phase(start + share, tracers[-1]))
            for _, r in rep.rounds:
                rep.add(r)
            rep.failed += workload.extra_failures()
            rep.peak_rss_mb = workload.peak_rss_mb()
        finally:
            workload.teardown()
    return out, workload


def measure(name: str, sizes, seed: int, seconds: float, workdir: str) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    load0 = os.getloadavg()[0]
    reps, workload = _run(name, sizes, seed, seconds, workdir, sizes.setup_reps, [None])
    host_ms = [ms for rep in reps for ms in rep.host_ms]
    slower = fast_decile(host_ms) / harness.HOST_REF_MS  # than the reference host
    end_to_end = {}
    for column, key in enumerate(BLOCK_METRICS):
        better, bound = spec[key]["better"], spec[key]["bound"]
        per_rep = [[b[column] for _, r in rep.rounds for b in r.blocks] for rep in reps]
        blocks = [v for values in per_rep for v in values]
        end_to_end[key] = summarize(
            blocks, fast_decile(blocks, better),
            [fast_decile(v, better) for v in per_rep], bound,
            scale=slower if better == "higher" else 1.0 / slower,
        )
    value, per_query, passes = _cold([s for rep in reps for s in rep.cold_ms])
    end_to_end["cold_ms_p50"] = dict(
        summarize(passes, value, [_cold(rep.cold_ms)[0] for rep in reps],
                  spec["cold_ms_p50"]["bound"], scale=1.0 / slower),
        per_query=[ms / slower for ms in per_query],
    )
    setup_s = [rep.setup_s for rep in reps]
    end_to_end["setup_s"] = summarize(setup_s, median(setup_s), scale=1.0 / slower)
    peak_rss_mb = [rep.peak_rss_mb for rep in reps]
    end_to_end["peak_rss_mb"] = summarize(peak_rss_mb, max(peak_rss_mb))
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    rounds = [r for rep in reps for _, r in rep.rounds]
    return {
        "workload": name,
        "trace": 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "rounds": len(rounds),
        "blocks": sum(len(r.blocks) for r in rounds),
        "ops": sum(r.ops for r in rounds),
        "scale": workload.scale,
        "nodes": workload.nodes,
        "loadavg_1m": [load0, os.getloadavg()[0]],
        "host_slower": slower,  # every timing above was divided by this
        "host_ms": summarize(host_ms, fast_decile(host_ms)),
        "end_to_end": end_to_end,
    }


def measure_traced(name: str, sizes, seed: int, seconds: float, workdir: str,
                   spans_path: str) -> dict:
    """The traced run: spans around the workload's operations, then the
    per-layer probes on the workload's document."""
    from probes import Probes
    from spans import Tracer, format_table

    tracer = Tracer()
    (rep,), workload = _run(name, sizes, seed, seconds, workdir, 1, [None, tracer])

    def rate(traced: bool) -> float:
        return median(
            [r.ops / r.wall_s for t, r in rep.rounds if (t is not None) == traced]
        )

    times = tracer.self_times()
    tracer.write(
        spans_path, {"workload": name, "seed": seed, "nodes": workload.nodes}
    )
    print(format_table(name, times), file=sys.stderr)

    probes = Probes(name, workload.xml, workload.scale, workload.doc_seed,
                    workload.count_only, sizes, workdir)
    metrics = probes.run()
    metrics["trace.overhead_share"] = 1.0 - rate(True) / rate(False)
    metrics["trace.unaccounted_share"] = tracer.unaccounted_share()
    attempted = rep.attempted + probes.attempted
    failed = rep.failed + probes.failed
    return {
        "workload": name,
        "trace": 1,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "rounds": len(rep.rounds),
        "scale": workload.scale,
        "nodes": workload.nodes,
        "spans_file": os.path.relpath(spans_path, harness.ROOT),
        "spans": len(tracer.spans),
        "self_ms_per_op": times,
        "per_layer": metrics,
    }


def result_line(record: dict, spec: dict) -> dict:
    """The contract's result object, from a run's record."""
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = record["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["value"] for k, v in record["end_to_end"].items()}
    if set(values) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def run_one(args) -> int:
    harness.install_sigterm()
    sizes = SMOKE if args.smoke else FULL
    if sizes.rounds is not None:
        args.seconds = 0.0  # fixed round counts: no phase waits for a deadline
    workdir = harness.make_workdir()
    t0 = time.time()
    try:
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
            record = measure_traced(
                args.workload, sizes, args.seed, args.seconds, workdir, spans
            )
        else:
            record = measure(args.workload, sizes, args.seed, args.seconds, workdir)
    finally:
        harness.remove_workdir(workdir)
    record["env"] = harness.env_stamp(args.seed)
    record["seconds"] = args.seconds
    record["wall_s"] = time.time() - t0
    if args.out:
        write_record(record, args.out)
    line = result_line(record, load_spec())
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- the suite -------------------------------------------------------------------


def run_suite(args, tag: str) -> dict:
    """Every workload untraced then traced, each in a fresh interpreter."""
    t0 = time.time()
    suite = {
        "env": harness.env_stamp(args.seed),
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "workloads": {},
    }
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    records = harness.make_workdir()
    try:
        for name in names:
            entry = suite["workloads"][name] = {}
            for trace in (0, 1):
                out = os.path.join(records, f"{name}-trace{trace}.json")
                command = [
                    sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", out,
                ] + (["--smoke"] if args.smoke else [])
                print(f"[{tag}] {name} trace={trace} ...", file=sys.stderr, flush=True)
                child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
                try:
                    stdout, _ = child.communicate()
                finally:
                    harness.reap(child)
                if not os.path.exists(out):
                    raise SystemExit(f"{name} trace={trace} gave no record:\n{stdout}")
                with open(out) as handle:
                    record = json.load(handle)
                del record["env"]  # the suite carries one stamp
                entry["traced" if trace else "untraced"] = record
    finally:
        harness.remove_workdir(records)
    suite["wall_s"] = time.time() - t0
    return suite


def print_suite(suite: dict, spec: dict) -> None:
    from spans import format_table

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = suite["env"]
    print(
        f"rev {env['git_rev']} dirty={env['git_dirty']} python {env['python']} "
        f"numpy {env['numpy']} nproc {env['nproc']} seed {env['seed']} "
        f"src_lines {env['src_lines']} wall {suite['wall_s']:.0f}s"
    )
    for name, entry in suite["workloads"].items():
        run = entry["untraced"]
        print(
            f"\n== {name}: XMark scale {run['scale']:g}, {run['nodes']} nodes, "
            f"{run['rounds']} rounds, {run['blocks']} blocks, "
            f"ops_attempted {run['attempted']}, ops_failed {run['failed']}, "
            f"failed_share {run['failed_share']:.4f}"
        )
        for metric, s in run["end_to_end"].items():
            noisy = "  noisy: true" if s.get("noisy") else ""
            print(
                f"  {metric:<18}{s['value']:>12.4f} {units[metric]:<5} "
                f"[median {s['median']:.4f}, q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
                f"n {s['n']}]{noisy}"
            )
        traced = entry["traced"]
        print(f"  -- per layer (traced run, failed {traced['failed']}/{traced['attempted']})")
        for metric, value in traced["per_layer"].items():
            print(f"  {metric:<42}{value:>14.4f} {units[metric]}")
        print(format_table(name, traced["self_ms_per_op"]))


def suite_failed(suite: dict) -> int:
    return sum(
        entry[kind]["failed"]
        for entry in suite["workloads"].values()
        for kind in ("untraced", "traced")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one workload: 0 end-to-end, 1 traced + per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 rounds: the schema test only")
    parser.add_argument("--out", help="write the full record (JSON) here")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the suite N times and compare run 1 with each")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"perf: no program to measure: {harness.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload and args.trace is not None:
        return run_one(args)

    # Suite mode: --workload alone narrows the suite to one workload.
    harness.install_sigterm()
    suites = []
    for n in range(args.repeat):
        suite = run_suite(args, f"run{n + 1}")
        suites.append(suite)
        print_suite(suite, spec)
    if args.out:
        for n, suite in enumerate(suites):
            path = args.out if n == 0 else f"{args.out}.{n + 1}"
            write_record(suite, path)
    status = 1 if any(suite_failed(s) for s in suites) else 0
    if args.repeat > 1:
        import compare

        for other in suites[1:]:
            status |= compare.report(suites[0], other, spec)
    return status


if __name__ == "__main__":
    sys.exit(main())
