#!/usr/bin/env python3
"""Compare two suite records written by ``run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (workload, end-to-end metric), the two repetitions side by side:
both reported values (the fast decile of a run's blocks) with the median of
the blocks beside them, the relative change of the value, the metric's bound
from ``BENCHMARK.json`` and a verdict:

``within``      B is no worse and no better than A by more than the bound;
``better`` / ``worse``   it is, by more than the bound;
``unresolved``  on either side the same statistic taken on each third of the
                run alone (``per_rep``) spreads wider than the bound, so that
                run cannot resolve the bound.

Per-layer metrics follow without a verdict.  Exits non-zero on any ``worse``
and on any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import os
import sys


def _failed_share(entry: dict) -> float:
    runs = (entry["untraced"], entry["traced"])
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if a.get("noisy") or b.get("noisy"):  # run.py marked it against the same bound
        return "unresolved"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def _cell(stat: dict) -> str:
    return f"{stat['value']:.4g} [{stat['median']:.4g}]"


def report(a: dict, b: dict, spec: dict, out=sys.stdout) -> int:
    """Print the comparison of suite ``a`` (before) with ``b``; 1 if any
    metric is worse or more operations failed, else 0."""
    status = 0
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        run_a = a["workloads"][name]["untraced"]
        run_b = b["workloads"][name]["untraced"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            stat_a, stat_b = run_a["end_to_end"][key], run_b["end_to_end"][key]
            result = verdict(stat_a, stat_b, metric["better"], metric["bound"])
            status |= result == "worse"
            change = (stat_b["value"] - stat_a["value"]) / abs(stat_a["value"])
            rows.append((name, key, metric["unit"], _cell(stat_a), _cell(stat_b),
                         f"{change:+.1%}", f"{metric['bound']:.0%}", result))
        failed_a = _failed_share(a["workloads"][name])
        failed_b = _failed_share(b["workloads"][name])
        risen = failed_b > failed_a
        status |= risen
        rows.append((name, "failed_share", "ratio", f"{failed_a:.4g}", f"{failed_b:.4g}",
                     "", "0", "worse" if risen else "within"))
    header = ("workload", "metric", "unit", "A value [median]",
              "B value [median]", "change", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip(), file=out)

    print("\nper-layer metrics (traced runs; no bound, no verdict)", file=out)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        layer_a = a["workloads"][name]["traced"]["per_layer"]
        layer_b = b["workloads"][name]["traced"]["per_layer"]
        for key in layer_a:
            va, vb = layer_a[key], layer_b[key]
            change = f"{(vb - va) / abs(va):+.1%}" if va else ""
            print(f"{name:<12}  {key:<42}{va:>14.4f}{vb:>14.4f} {units[key]:<6}{change:>8}",
                  file=out)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    suites = []
    for path in argv:
        with open(path) as handle:
            suites.append(json.load(handle))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return report(suites[0], suites[1], spec)


if __name__ == "__main__":
    sys.exit(main())
