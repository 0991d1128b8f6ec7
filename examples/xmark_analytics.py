"""XMark workload walkthrough: Q01-Q15 with per-strategy statistics.

Generates a scaled XMark auction document and runs the paper's fifteen
queries (Figure 2), reporting answer sizes and how few nodes the jumping
engine touches -- a live miniature of Figure 3.

Run:  python examples/xmark_analytics.py [scale]
"""

import sys

from repro.counters import EvalStats
from repro.engine.core import SERIES, run_asta
from repro.index.jumping import TreeIndex
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES
from repro.xpath.compiler import compile_xpath


def main(scale: float = 0.5) -> None:
    print(f"generating XMark document at scale {scale} ...")
    tree = XMarkGenerator(scale=scale, seed=42).tree()
    index = TreeIndex(tree)
    print(f"document: {tree.n} element nodes, {len(tree.labels)} labels, "
          f"height {tree.height()}")
    print()
    header = f"{'query':5s} {'answer':>7s} {'visited(opt)':>12s} {'visited(naive)':>14s} {'ratio %':>8s}"
    print(header)
    print("-" * len(header))
    for qid, q in QUERIES.items():
        asta = compile_xpath(q)
        s_opt, s_naive = EvalStats(), EvalStats()
        _, selected = run_asta(asta, index, stats=s_opt)
        run_asta(asta, index, stats=s_naive, **SERIES["naive"])
        print(
            f"{qid:5s} {len(selected):7d} {s_opt.visited:12d} "
            f"{s_naive.visited:14d} {s_opt.ratio_selected_visited():8.1f}"
        )
    print()
    print("ratio = selected / visited-with-jumping (Figure 3, line 5)")

    # A couple of domain questions beyond the fixed query set.
    from repro.engine.api import Engine

    engine = Engine(tree)
    print()
    print("== ad-hoc analytics ==")
    print("auctions with annotated descriptions:",
          engine.count("/site/closed_auctions/closed_auction[annotation/description]"))
    print("persons reachable by phone or homepage:",
          engine.count("/site/people/person[phone or homepage]"))
    print("items outside europe with mailbox mail:",
          engine.count("/site/regions/*/item[mailbox/mail]")
          - engine.count("/site/regions/europe/item[mailbox/mail]"))


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
