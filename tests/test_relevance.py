"""Relevant nodes (Definition 3.1, Lemma 3.1)."""

from repro.automata.examples import sta_desc_a_desc_b, sta_dtd_root_a
from repro.automata.minimize import complete_topdown, minimize_tdsta
from repro.automata.relevance import (
    topdown_relevant,
    topdown_sink_state,
    topdown_universal_state,
)
from repro.tree.binary import BinaryTree


def tree(spec):
    return BinaryTree.from_spec(spec)


class TestSpecialStates:
    def test_dtd_recognizer_states(self):
        rec = sta_dtd_root_a()
        assert topdown_universal_state(rec) == "qT"
        assert topdown_sink_state(rec) == "qS"

    def test_example21_has_no_universal(self):
        sta = sta_desc_a_desc_b()
        assert topdown_universal_state(sta) is None
        assert topdown_sink_state(sta) is None


class TestTopDownRelevance:
    def test_dtd_only_root_relevant(self):
        rec = complete_topdown(sta_dtd_root_a())
        t = tree(("a", "b", ("c", "d"), "e"))
        assert topdown_relevant(rec, t) == frozenset({0})

    def test_dtd_rejecting_returns_none(self):
        rec = complete_topdown(sta_dtd_root_a())
        assert topdown_relevant(rec, tree(("b", "a"))) is None

    def test_example21_relevant_nodes(self):
        sta = sta_desc_a_desc_b()
        #      r(0)
        #    a(1)      x(4)    a(5)
        #    b(2) c(3)         b(6)
        t = tree(("r", ("a", "b", "c"), "x", ("a", "b")))
        relevant = topdown_relevant(sta, t)
        # a-nodes change state; b-nodes under them are selected.  The r, x
        # and c nodes loop in place.
        assert relevant == frozenset({1, 2, 5, 6})

    def test_selected_nodes_always_relevant(self):
        sta = sta_desc_a_desc_b()
        t = tree(("a", ("b", "b"), "c"))
        relevant = topdown_relevant(sta, t)
        for v in sta.selected_nodes(t):
            assert v in relevant


class TestDefinition31AgreesWithLemma31:
    """The paper's central relevance equation, checked literally:

    for *minimal* TDSTAs, the semantic characterization of Definition 3.1
    (sub-automaton equivalence, EXPTIME route) coincides with Lemma 3.1's
    syntactic state-comparison.
    """

    def test_on_example_21(self):
        from repro.automata.relevance import relevant_definition31

        sta = sta_desc_a_desc_b()
        for spec in (
            ("r", ("a", "b", "c"), "x", ("a", "b")),
            ("a", ("b", "b"), "c"),
            ("x", "y", "z"),
        ):
            t = tree(spec)
            assert relevant_definition31(sta, t) == topdown_relevant(sta, t)

    def test_on_dtd_recognizer(self):
        from repro.automata.relevance import relevant_definition31

        rec = complete_topdown(sta_dtd_root_a())
        for spec in (("a", "b", ("c", "d")), ("b", "a"), "a"):
            t = tree(spec)
            assert relevant_definition31(rec, t) == topdown_relevant(rec, t)

    def test_on_minimized_compiled_queries(self):
        from repro.automata.relevance import relevant_definition31
        from repro.engine.deterministic import compile_tdsta

        for query in ("//a//b", "/r/a/b", "//a/b//c"):
            sta = compile_tdsta(query)
            for spec in (
                ("r", ("a", ("b", ("d", "c")), "c")),
                ("r", "a", ("a", "b")),
            ):
                t = tree(spec)
                assert relevant_definition31(sta, t) == topdown_relevant(
                    sta, t
                ), (query, spec)

    def test_non_minimal_automata_can_disagree(self):
        """On a NON-minimal automaton the syntactic reading over-reports:
        the redundant state q1b differs syntactically from q1 but is
        semantically equivalent -- exactly why the paper minimizes first."""
        from repro.automata.relevance import relevant_definition31
        from repro.automata.sta import STA, Transition
        from repro.automata.labelset import ANY, LabelSet

        # Two copies of a universal state: syntactically changing, but
        # semantically nothing is relevant below the root.
        sta = STA(
            ["q0", "u1", "u2"],
            ["q0"],
            ["q0", "u1", "u2"],
            {},
            [
                Transition("q0", ANY, "u1", "u1"),
                Transition("u1", ANY, "u2", "u2"),
                Transition("u2", ANY, "u1", "u1"),
            ],
        )
        t = tree(("a", "b", ("c", "d")))
        semantic = relevant_definition31(sta, t)
        syntactic = topdown_relevant(sta, t)
        # Semantically all three states are the universal automaton, so
        # NOTHING is relevant; syntactically every node changes names.
        assert semantic == frozenset()
        assert syntactic == frozenset(range(t.n))
