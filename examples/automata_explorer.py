"""Tour of the automata machinery behind the engine.

Walks through the paper's pipeline on concrete objects:

1. compile an XPath query to an ASTA (Section 4.2),
2. inspect the on-the-fly top-down approximation and its jump plans
   (Definition 4.2 / Figure 1),
3. run the deterministic machinery of Section 3: minimization, relevant
   nodes, and the jumping top-down algorithm B.1.

Run:  python examples/automata_explorer.py
"""

from repro.asta.tda import TDAAnalysis
from repro.automata.examples import sta_desc_a_desc_b, sta_dtd_root_a
from repro.automata.minimize import complete_topdown, minimize_tdsta
from repro.automata.relevance import topdown_relevant
from repro.automata.topdown import topdown_jump
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree
from repro.xpath.compiler import compile_xpath


def section(title: str) -> None:
    print()
    print(f"### {title}")
    print()


def main() -> None:
    section("1. XPath -> ASTA (the Example 4.1 automaton)")
    asta = compile_xpath("//a//b[c]")
    print(asta.describe())

    section("2. Top-down approximation and jump plans (Figure 1)")
    tree = BinaryTree.from_xml(
        "<x><a><b><c/></b><b/><d><b><c/></b></d></a><b/></x>"
    )
    tda = TDAAnalysis(asta, tree)
    top = frozenset(asta.top)
    frontier = [top]
    seen = set()
    while frontier:
        states = frontier.pop()
        if states in seen or not states:
            continue
        seen.add(states)
        info = tda.info(states)
        pretty = "{" + ",".join(sorted(q.split("_")[0] for q in states)) + "}"
        print(f"state set {pretty}: jump shape = {info.jump_shape}, "
              f"essential labels = {sorted(info.essential_names) or '(none)'}")
        for rep, atom in info.per_atom.items():
            frontier.append(atom.s1)
            frontier.append(atom.s2)

    section("3. Evaluating with jumps")
    index = TreeIndex(tree)
    from repro.engine.core import run_asta

    stats = EvalStats()
    _, selected = run_asta(asta, index, stats=stats)
    print(f"//a//b[c] over {tree.n} nodes: answer {selected}, "
          f"visited {stats.visited}, jumps {stats.jumps}")

    section("4. Deterministic STAs: minimization and relevant nodes")
    sta = sta_desc_a_desc_b()
    print("A_//a//b:", sta)
    mini = minimize_tdsta(sta)
    print("minimized:", mini, "(already minimal)")
    relevant = topdown_relevant(sta, tree)
    print(f"relevant nodes of the unique run: {sorted(relevant)}")
    run = topdown_jump(sta, index, EvalStats())
    print(f"topdown_jump visits exactly those: {sorted(run)}")
    assert frozenset(run) == relevant

    section("5. Subtree skipping on a recognizer (the DTD example)")
    rec = complete_topdown(sta_dtd_root_a())
    stats = EvalStats()
    doc = BinaryTree.from_xml("<a>" + "<x><y/></x>" * 500 + "</a>")
    run = topdown_jump(rec, TreeIndex(doc), stats)
    print(f"validated a {doc.n}-node document against <!ELEMENT a ANY> "
          f"by visiting {stats.visited} node(s): run = {dict(run)}")


if __name__ == "__main__":
    main()
