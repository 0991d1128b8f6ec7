"""Experiment drivers: one function per table/figure of the paper.

Each driver returns structured rows and can print the paper-shaped table;
``python -m repro.bench.experiments [fig3|fig4|fig5|fig8|ablation|all]``
runs them from the command line.  The pytest-benchmark wrappers in
``benchmarks/`` reuse these drivers for the timing series.

Reproduction target (see DESIGN.md §4): the *shape* of each result --
which strategy wins, by roughly what factor, where the crossovers fall --
not absolute milliseconds (the paper's substrate is OCaml/C++ on a 5.7M
node document; ours is pure Python at a configurable scale).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.harness import Timer, format_table
from repro.baselines.stepwise import stepwise_evaluate
from repro.counters import EvalStats
from repro.engine import memo, optimized, registry
from repro.engine.core import run_asta
from repro.engine.hybrid import hybrid_evaluate
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xmark.configs import CONFIG_SPECS, make_config_tree
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import HYBRID_QUERY, QUERIES
from repro.xpath.compiler import compile_xpath

DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
DEFAULT_FRACTION = float(os.environ.get("REPRO_BENCH_FRACTION", "0.1"))

# The Figure 4 series, pulled from the strategy registry: a snapshot
# taken at import time (plugins registered before this module is first
# imported are included if they carry an ``evaluator``).  The canonical
# four keep the paper's column order.
_FIG4_ORDER = ("naive", "jumping", "memo", "optimized")
ENGINES: Dict[str, Callable] = {
    name: registry.get_strategy(name).evaluator for name in _FIG4_ORDER
}
ENGINES.update(
    {
        strategy.name: strategy.evaluator
        for strategy in registry.all_strategies()
        if strategy.name not in ENGINES
        and getattr(strategy, "evaluator", None) is not None
    }
)


def build_index(scale: float = DEFAULT_SCALE, seed: int = 42) -> TreeIndex:
    """The shared XMark instance for fig3/fig4/fig8."""
    return TreeIndex(XMarkGenerator(scale=scale, seed=seed).tree())


# ---------------------------------------------------------------------------
# Figure 3: selected / visited node counts, memo entries
# ---------------------------------------------------------------------------


def fig3_node_counts(index: TreeIndex = None, scale: float = DEFAULT_SCALE):
    """Lines (1)-(5) of Figure 3 for Q01-Q15."""
    if index is None:
        index = build_index(scale)
    n = index.tree.n
    rows = []
    for qid, q in QUERIES.items():
        asta = compile_xpath(q)
        s_jump = EvalStats()
        optimized.evaluate(asta, index, s_jump)
        s_nojump = EvalStats()
        memo.evaluate(asta, index, s_nojump)
        rows.append(
            (
                qid,
                s_jump.selected,
                s_jump.visited,
                s_nojump.visited if s_nojump.visited < n else f"#nodes",
                s_jump.memo_entries,
                round(s_jump.ratio_selected_visited(), 1),
            )
        )
    return rows, n


def print_fig3(scale: float = DEFAULT_SCALE) -> str:
    rows, n = fig3_node_counts(scale=scale)
    text = format_table(
        ["query", "(1) selected", "(2) visited w/ jump", "(3) visited w/o jump",
         "(4) memo entries", "(5) ratio %"],
        rows,
        title=f"Figure 3 reproduction (XMark scale={scale}, #nodes={n})",
    )
    return text + f"\n#nodes = {n}"


# ---------------------------------------------------------------------------
# Figure 4: query time per evaluation strategy
# ---------------------------------------------------------------------------


def fig4_times(
    index: TreeIndex = None,
    scale: float = DEFAULT_SCALE,
    repeats: int = 3,
):
    """Per-query best-of-N times for the four strategies, in ms."""
    if index is None:
        index = build_index(scale)
    timer = Timer(repeats)
    rows = []
    for qid, q in QUERIES.items():
        asta = compile_xpath(q)
        times = {
            name: timer.best_ms(lambda fn=fn: fn(asta, index))
            for name, fn in ENGINES.items()
        }
        rows.append((qid, times["naive"], times["jumping"], times["memo"],
                     times["optimized"]))
    return rows


def print_fig4(scale: float = DEFAULT_SCALE) -> str:
    rows = fig4_times(scale=scale)
    return format_table(
        ["query", "naive ms", "jumping ms", "memo ms", "opt ms"],
        rows,
        title=f"Figure 4 reproduction (XMark scale={scale}, log-scale in paper)",
    )


# ---------------------------------------------------------------------------
# Figure 5: hybrid vs regular on configurations A-D
# ---------------------------------------------------------------------------


def fig5_hybrid(fraction: float = DEFAULT_FRACTION, repeats: int = 3):
    """Times and node counts for //listitem//keyword//emph on A-D."""
    timer = Timer(repeats)
    asta = compile_xpath(HYBRID_QUERY)
    rows = []
    for name in CONFIG_SPECS:
        index = TreeIndex(make_config_tree(name, fraction))
        s_h = EvalStats()
        _, sel_h = hybrid_evaluate(HYBRID_QUERY, index, s_h)
        s_r = EvalStats()
        _, sel_r = optimized.evaluate(asta, index, s_r)
        assert sel_h == sel_r, f"hybrid/regular disagree on config {name}"
        t_h = timer.best_ms(lambda: hybrid_evaluate(HYBRID_QUERY, index))
        t_r = timer.best_ms(lambda: optimized.evaluate(asta, index))
        rows.append(
            (name, len(sel_h), s_h.visited, s_r.visited, t_h, t_r)
        )
    return rows


def print_fig5(fraction: float = DEFAULT_FRACTION) -> str:
    rows = fig5_hybrid(fraction)
    return format_table(
        ["config", "(1) selected", "(2) visited hybrid",
         "(3) visited regular", "hybrid ms", "regular ms"],
        rows,
        title=f"Figure 5 reproduction (config fraction={fraction})",
    )


# ---------------------------------------------------------------------------
# Figure 8 (Appendix D): automata engine vs step-wise baseline
# ---------------------------------------------------------------------------


def fig8_vs_stepwise(
    index: TreeIndex = None,
    scale: float = DEFAULT_SCALE,
    repeats: int = 3,
):
    """Optimized engine vs the step-wise (MonetDB-family) baseline.

    Reports both wall time and *nodes touched* (automata: visited nodes;
    stepwise: scanned node-table tuples).  The touched-node columns are
    the interpreter-independent comparison: wall-clock who-wins can
    invert in pure Python on answer-accumulation queries.
    """
    if index is None:
        index = build_index(scale)
    timer = Timer(repeats)
    rows = []
    for qid, q in QUERIES.items():
        asta = compile_xpath(q)
        s_a, s_s = EvalStats(), EvalStats()
        sel_a = optimized.evaluate(asta, index, s_a)[1]
        sel_s = stepwise_evaluate(q, index, s_s)
        assert sel_a == sel_s, f"engines disagree on {qid}"
        t_a = timer.best_ms(lambda: optimized.evaluate(asta, index))
        t_s = timer.best_ms(lambda: stepwise_evaluate(q, index))
        rows.append((qid, t_a, t_s, s_a.visited, s_s.visited))
    return rows


def print_fig8(scale: float = DEFAULT_SCALE) -> str:
    rows = fig8_vs_stepwise(scale=scale)
    return format_table(
        ["query", "SXSI-style ms", "stepwise ms", "nodes touched (SXSI)",
         "tuples scanned (stepwise)"],
        rows,
        title=f"Figure 8 reproduction (XMark scale={scale})",
    )


# ---------------------------------------------------------------------------
# Ablations called out in DESIGN.md
# ---------------------------------------------------------------------------


def ablation_storage(scale: float = DEFAULT_SCALE):
    """Pointer-structure vs succinct-tree memory (Intro's 5-10x claim)."""
    from repro.index.succinct import SuccinctTree

    tree = XMarkGenerator(scale=scale).tree()
    succ = SuccinctTree.from_binary(tree)
    pointer = SuccinctTree.pointer_memory_bytes(tree)
    succinct = succ.memory_bytes()
    return {
        "nodes": tree.n,
        "pointer_bytes": pointer,
        "succinct_bytes": succinct,
        "blowup": round(pointer / succinct, 1),
    }


def ablation_techniques(
    index: TreeIndex = None, scale: float = DEFAULT_SCALE, repeats: int = 3
):
    """Technique grid: every (jumping, memo, ip) combination, summed over
    Q01-Q15 (the design-choice ablation for Section 4.4)."""
    if index is None:
        index = build_index(scale)
    timer = Timer(repeats)
    astas = {qid: compile_xpath(q) for qid, q in QUERIES.items()}
    rows = []
    for jmp in (False, True):
        for mem in (False, True):
            for ip in (False, True):
                def run_all():
                    for asta in astas.values():
                        run_asta(index=index, asta=asta, jumping=jmp, memo=mem, ip=ip)
                total = timer.best_ms(run_all)
                visited = 0
                for asta in astas.values():
                    s = EvalStats()
                    run_asta(index=index, asta=asta, jumping=jmp, memo=mem, ip=ip, stats=s)
                    visited += s.visited
                rows.append((jmp, mem, ip, total, visited))
    return rows


def print_ablation(scale: float = DEFAULT_SCALE) -> str:
    storage = ablation_storage(scale)
    grid = ablation_techniques(scale=scale)
    text = format_table(
        ["jumping", "memo", "ip", "total ms (Q01-Q15)", "visited"],
        grid,
        title=f"Technique ablation (XMark scale={scale})",
    )
    text += (
        f"\n\nStorage ablation: {storage['nodes']} nodes, "
        f"pointer={storage['pointer_bytes']}B, "
        f"succinct={storage['succinct_bytes']}B, "
        f"blow-up x{storage['blowup']} (paper claims 5-10x for pointers)"
    )
    return text


def hybrid_sweep(
    listitems: int = 8000,
    pivot_counts: Tuple[int, ...] = (4, 16, 64, 256, 1024, 4096, 8000),
    repeats: int = 3,
):
    """Parameter sweep: where does the hybrid strategy stop paying off?

    Fixes the number of ``listitem`` elements and varies the global
    ``keyword`` count (the pivot's selectivity) from rare to as-common-as-
    the-top-label, interpolating between Figure 5's configurations A and
    D.  Each keyword carries one ``emph`` (so answers grow with the
    pivot count).
    """
    from repro.tree.document import XMLDocument, XMLNode
    from repro.xmark.queries import HYBRID_QUERY

    timer = Timer(repeats)
    asta = compile_xpath(HYBRID_QUERY)
    rows = []
    for kw in pivot_counts:
        kw = min(kw, listitems)
        site = XMLNode("site")
        body = site.new_child("regions")
        for i in range(listitems):
            listitem = body.new_child("listitem")
            if i < kw:
                listitem.new_child("keyword").new_child("emph")
        index = TreeIndex(BinaryTree.from_document(XMLDocument(site)))
        s_h, s_r = EvalStats(), EvalStats()
        _, sel = hybrid_evaluate(HYBRID_QUERY, index, s_h)
        optimized.evaluate(asta, index, s_r)
        t_h = timer.best_ms(lambda: hybrid_evaluate(HYBRID_QUERY, index))
        t_r = timer.best_ms(lambda: optimized.evaluate(asta, index))
        rows.append((kw, len(sel), s_h.visited, s_r.visited, t_h, t_r))
    return rows


def print_hybrid_sweep() -> str:
    rows = hybrid_sweep()
    return format_table(
        ["#keyword", "selected", "visited hybrid", "visited regular",
         "hybrid ms", "regular ms"],
        rows,
        title="Hybrid pivot-selectivity sweep (A -> D interpolation)",
    )


def main(argv: List[str]) -> int:
    which = argv[0] if argv else "all"
    printers = {
        "fig3": print_fig3,
        "fig4": print_fig4,
        "fig5": print_fig5,
        "fig8": print_fig8,
        "ablation": print_ablation,
        "sweep": print_hybrid_sweep,
    }
    if which == "all":
        for name, printer in printers.items():
            print(printer())
            print()
    elif which in printers:
        print(printers[which]())
    else:
        print(f"unknown experiment {which!r}; choose from {sorted(printers)} or 'all'")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
