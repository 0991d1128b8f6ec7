"""Access-control filtering: XPath rules over a document (XACML-style).

The paper's introduction motivates fast XPath by access-control languages
like XACML, where policies are XPath expressions deciding which parts of
a document a role may see.  This example evaluates a small rule set over
a generated auction site, combining forward rules (automata engine),
backward-axis rules (mixed pipeline) and subtree extraction.

Run:  python examples/access_control.py
"""

from repro import Engine
from repro.xmark.generator import XMarkGenerator

RULES = {
    # role -> (allowed paths, denied paths); deny wins.
    "analyst": (
        ["/site/closed_auctions//price", "/site/closed_auctions//date",
         "//item/name"],
        [],
    ),
    "support": (
        ["/site/people/person/name", "//mail/date",
         "//person[address]/emailaddress"],
        ["//person[creditcard]/emailaddress"],
    ),
    "auditor": (
        ["//creditcard/..",            # whole person records with cards
         "//closed_auction[seller]"],
        ["//profile"],
    ),
}


def authorized_nodes(engine: Engine, role: str) -> set:
    allowed_paths, denied_paths = RULES[role]
    allowed: set = set()
    for path in allowed_paths:
        allowed.update(engine.select(path))
    for path in denied_paths:
        allowed.difference_update(engine.select(path))
    return allowed


def main() -> None:
    doc = XMarkGenerator(scale=0.3, seed=5).document()
    engine = Engine(doc)
    print(f"document: {len(engine.tree)} nodes")
    print()
    for role in RULES:
        nodes = authorized_nodes(engine, role)
        by_label: dict = {}
        for v in nodes:
            by_label[engine.tree.label(v)] = by_label.get(engine.tree.label(v), 0) + 1
        summary = ", ".join(f"{k}×{v}" for k, v in sorted(by_label.items()))
        print(f"{role:8s} may access {len(nodes):5d} nodes: {summary}")

    print()
    print("== audit trail: first record visible to 'auditor' ==")
    records = engine.extract("//creditcard/..")
    if records:
        print(records[0])

    print()
    print("== rule engine internals ==")
    stats = engine.execute("//person[creditcard]/emailaddress").stats
    print(f"deny-rule evaluation visited {stats.visited} nodes "
          f"({stats.jumps} jumps) out of {len(engine.tree)}")


if __name__ == "__main__":
    main()
