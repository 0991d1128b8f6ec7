"""Quickstart: parse a document, run queries, inspect the machinery.

Run:  python examples/quickstart.py
"""

from repro import Engine, Workspace, parse_xml, strategy_names

XML = """
<library>
  <shelf id="s1">
    <book><title/><author/><keyword/></book>
    <book><title/><keyword><emph/></keyword></book>
  </shelf>
  <shelf id="s2">
    <box><book><title/></book></box>
  </shelf>
</library>
"""

BRANCH_XML = "<library><shelf><book><keyword/></book></shelf></library>"


def main() -> None:
    doc = parse_xml(XML)
    engine = Engine(doc)  # default strategy: "auto", the set-at-a-time kernel

    print("== basic queries (the legacy one-liner still works) ==")
    for query in ("//book", "/library/shelf/book", "//book[keyword]",
                  "//shelf//book//keyword", "//book[not(author)]"):
        ids = engine.select(query)
        print(f"{query:32s} -> {len(ids)} nodes  {ids}")

    print()
    print("== prepared queries: parse/compile once, execute many ==")
    plan = engine.prepare("//shelf//book//keyword")
    result = plan.execute()  # fresh, immutable stats per execution
    print(f"resolved strategy: {plan.strategy.name}")
    print(f"visited {result.stats.visited} of {len(engine.tree)} nodes, "
          f"{result.stats.jumps} index jumps, "
          f"{result.stats.memo_entries} memo entries")
    again = plan.execute()  # no re-parsing, no re-compilation
    print(f"re-executed: same answer {list(again.ids) == list(result.ids)}, "
          f"{engine.cache.compilations} compilation(s) total")

    print()
    print("== a workspace: many documents, one compiled-query cache ==")
    # An automaton strategy: the default kernel compiles nothing to share.
    ws = Workspace(strategy="optimized")
    ws.add("main", XML)
    ws.add("branch", BRANCH_XML)
    print("select_all('//book') ->", ws.select_all("//book"))
    print("select_many on 'main' ->",
          ws.select_many(["//keyword", "//author"], document="main"))
    print(f"compiled {ws.cache.compilations} automata for "
          f"{3} distinct queries across {len(ws)} documents")

    print()
    print("== the compiled automaton ==")
    print(engine.explain("//book[keyword]"))

    print()
    print("== every registered strategy agrees ==")
    for strategy in strategy_names():
        engine.set_strategy(strategy)
        print(f"{strategy:14s} //book -> {engine.count('//book')} nodes")


if __name__ == "__main__":
    main()
