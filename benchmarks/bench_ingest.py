"""Parse→ready wall clock and peak memory for the three ingestion paths.

Run as pytest (the CI ``ingest-smoke`` job does, at a small scale)::

    REPRO_BENCH_SCALE=0.2 pytest benchmarks/bench_ingest.py -q

Three ways to get an XMark document query-ready are measured:

- **legacy**: parse into an ``XMLNode`` tree, convert to ``BinaryTree``,
  build the ``TreeIndex`` (the pre-streaming pipeline, kept as the
  baseline via ``parse_xml`` + ``from_document``);
- **streaming**: scanner events append directly into the binary-tree
  arrays (``BinaryTree.from_xml``), then build the ``TreeIndex``;
- **store_reopen**: ``repro.store.open_document`` on a previously built
  bundle -- memory-mapped arrays, no parsing (the bundle build itself is
  recorded as ``store_build``, the one-time cost).

Correctness assertions are blocking: the reopened document must answer
the fig-4 query mix byte-identically to a freshly parsed one, and the
store-reopen parse→ready time must stay under ``REOPEN_US_PER_NODE``.
That bound used to read "under 10% of a full parse"; the regex tokenizer
halved the denominator, so it is now stated as the absolute time the old
ratio allowed (10% of the 51.45 ms parse of 13 296 nodes it was set
against), and the ratio is only recorded.  Peak
memory is ``tracemalloc``'s traced-Python-allocation peak (deterministic
and runner-independent, unlike RSS); set ``REPRO_BENCH_ASSERT_INGEST=1``
to additionally assert that the streaming builder peaks below the legacy
``XMLNode`` pipeline.

Run as a script to (re)generate the committed ``BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import tracemalloc

from repro.engine.api import Engine
from repro.index.jumping import TreeIndex
from repro.store import open_document, save_document
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
# Default to a non-tracked path so a smoke run never clobbers the
# committed artifact (regenerate that with `python benchmarks/bench_ingest.py`).
OUT = os.environ.get("REPRO_BENCH_OUT", "BENCH_ingest.smoke.json")
REOPEN_US_PER_NODE = 0.4


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall clock in milliseconds (after one warm-up call)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _traced_peak_mb(fn) -> float:
    """Peak traced Python allocation of one ``fn()`` call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


def _phase(report: dict, name: str, fn, repeats: int) -> float:
    ms = _best_of(fn, repeats)
    report["phases"][name] = {
        "ms": round(ms, 3),
        "peak_py_mb": round(_traced_peak_mb(fn), 3),
    }
    return ms


def build_report(scale: float = SCALE, repeats: int = REPEATS) -> dict:
    generator = XMarkGenerator(scale=scale, seed=42, text_content=True)
    xml = generator.xml()
    nodes = BinaryTree.from_xml(xml).n
    report = {
        "benchmark": "ingestion parse→ready (legacy vs streaming vs store)",
        "scale": scale,
        "seed": 42,
        "nodes": nodes,
        "xml_bytes": len(xml),
        "repeats": repeats,
        "memory_metric": "tracemalloc traced-allocation peak (MiB)",
        "phases": {},
        "generator": {},
    }

    # parse→ready: "ready" means a TreeIndex an Engine can run on.
    legacy_ms = _phase(
        report,
        "legacy",
        lambda: TreeIndex(BinaryTree.from_document(parse_xml(xml))),
        repeats,
    )
    streaming_ms = _phase(
        report, "streaming", lambda: TreeIndex(BinaryTree.from_xml(xml)), repeats
    )

    workdir = tempfile.mkdtemp(prefix="repro-bench-ingest-")
    bundle = os.path.join(workdir, "xmark")
    try:
        build_ms = _best_of(lambda: save_document(xml, bundle), max(1, repeats // 2))
        report["phases"]["store_build"] = {"ms": round(build_ms, 3)}
        reopen_ms = _phase(
            report, "store_reopen", lambda: open_document(bundle), repeats
        )

        # Blocking: a reopened document answers the fig-4 mix exactly
        # like a freshly parsed one.
        fresh = Engine(xml)
        stored = Engine(open_document(bundle))
        mismatches = [
            qid
            for qid, q in QUERIES.items()
            if fresh.select(q) != stored.select(q)
        ]
        report["fig4_identity"] = not mismatches
        assert not mismatches, f"store-reopen results differ for {mismatches}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    full_parse_ms = min(legacy_ms, streaming_ms)
    report["reopen_vs_full_parse"] = round(reopen_ms / full_parse_ms, 4)
    report["reopen_us_per_node"] = round(reopen_ms * 1000.0 / nodes, 4)
    report["phases"]["streaming"]["speedup_vs_legacy"] = round(
        legacy_ms / streaming_ms, 3
    )
    report["phases"]["streaming"]["peak_vs_legacy"] = round(
        report["phases"]["streaming"]["peak_py_mb"]
        / report["phases"]["legacy"]["peak_py_mb"],
        3,
    )

    # Generator-side: events straight into arrays vs materializing the
    # XMLNode document first and converting it.
    for mode, fn in (
        (
            "legacy_tree",
            lambda: BinaryTree.from_document(generator.document()),
        ),
        ("streaming", lambda: generator.tree()),
    ):
        report["generator"][mode] = {
            "ms": round(_best_of(fn, repeats), 3),
            "peak_py_mb": round(_traced_peak_mb(fn), 3),
        }
    return report


def _write(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")


def test_ingest_paths_ready_and_identical():
    """Blocking: fig-4 identity on reopen; reopen under
    ``REOPEN_US_PER_NODE`` at the acceptance scale.

    The bound is asserted only at scale >= 0.5 (where it holds with
    ~2x margin -- see the committed BENCH_ingest.json): at smoke scales
    the reopen's fixed per-file open cost dominates tiny documents, and
    shared-runner wall clock is noise, so smaller runs record the time
    without gating on it.
    """
    report = build_report()
    assert report["fig4_identity"]
    if report["scale"] >= 0.5:
        assert report["reopen_us_per_node"] < REOPEN_US_PER_NODE, (
            f"store reopen took {report['reopen_us_per_node']} us per node "
            f"(target < {REOPEN_US_PER_NODE})"
        )
    _write(report, OUT)
    if os.environ.get("REPRO_BENCH_ASSERT_INGEST") == "1":
        streaming = report["phases"]["streaming"]["peak_py_mb"]
        legacy = report["phases"]["legacy"]["peak_py_mb"]
        assert streaming < legacy, (
            f"streaming builder peak {streaming} MiB not below legacy "
            f"XMLNode pipeline peak {legacy} MiB"
        )


if __name__ == "__main__":
    out = os.environ.get("REPRO_BENCH_OUT", "BENCH_ingest.json")
    report = build_report()
    _write(report, out)
    for phase, rec in report["phases"].items():
        peak = f"  peak {rec['peak_py_mb']:8.3f} MiB" if "peak_py_mb" in rec else ""
        print(f"{phase:13s} {rec['ms']:9.3f} ms{peak}")
    print(
        f"store reopen = {report['reopen_us_per_node']} us per node, "
        f"{report['reopen_vs_full_parse']:.2%} of a full parse; "
        f"wrote {out} (scale={report['scale']}, nodes={report['nodes']})"
    )
