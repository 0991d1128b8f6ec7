"""Minimization and equivalence (Appendix A.2, Theorem A.1)."""

from hypothesis import given, settings

from repro.automata.examples import sta_desc_a_desc_b, sta_dtd_root_a
from repro.automata.labelset import ANY, LabelSet
from repro.automata.minimize import (
    atoms,
    complete_topdown,
    minimize_tdsta,
    tdsta_equivalent,
)
from repro.automata.sta import STA, Transition
from repro.tree.binary import BinaryTree

from strategies import binary_trees


def redundant_desc_a_desc_b() -> STA:
    """Example 2.1 with a duplicated, behaviourally identical state q1b."""
    return STA(
        states=["q0", "q1", "q1b"],
        top=["q0"],
        bottom=["q0", "q1", "q1b"],
        selecting={"q1": LabelSet.of("b"), "q1b": LabelSet.of("b")},
        transitions=[
            Transition("q0", LabelSet.of("a"), "q1", "q0"),
            Transition("q0", LabelSet.not_of("a"), "q0", "q0"),
            Transition("q1", LabelSet.of("b"), "q1b", "q1"),
            Transition("q1", LabelSet.not_of("b"), "q1", "q1b"),
            Transition("q1b", LabelSet.of("b"), "q1", "q1b"),
            Transition("q1b", LabelSet.not_of("b"), "q1b", "q1"),
        ],
    )


class TestAtoms:
    def test_atoms_cover_mentioned_plus_rest(self):
        sta = sta_desc_a_desc_b()
        reps = atoms(sta)
        names = [rep for rep, _ in reps]
        assert names[:-1] == ["a", "b"]
        assert reps[-1][1].contains("zz") and not reps[-1][1].contains("a")


class TestCompletion:
    def test_complete_topdown_adds_sink(self):
        partial = STA(
            ["q"],
            ["q"],
            ["q"],
            {},
            [Transition("q", LabelSet.of("a"), "q", "q")],
        )
        comp = complete_topdown(partial)
        assert comp.is_topdown_complete()
        assert not partial.is_topdown_complete()

    def test_complete_topdown_noop_when_complete(self):
        sta = sta_desc_a_desc_b()
        assert complete_topdown(sta) is sta


class TestMinimizeTDSTA:
    def test_already_minimal_is_stable(self):
        sta = sta_desc_a_desc_b()
        mini = minimize_tdsta(sta)
        assert len(mini.states) == len(sta.states)
        assert tdsta_equivalent(mini, sta)

    def test_redundant_state_collapses(self):
        red = redundant_desc_a_desc_b()
        mini = minimize_tdsta(red)
        assert len(mini.states) == 2
        assert tdsta_equivalent(mini, sta_desc_a_desc_b())

    def test_minimization_idempotent(self):
        mini = minimize_tdsta(redundant_desc_a_desc_b())
        again = minimize_tdsta(mini)
        assert len(again.states) == len(mini.states)

    def test_dtd_recognizer_minimal_three_states(self):
        mini = minimize_tdsta(sta_dtd_root_a())
        assert len(mini.states) == 3  # q0, universal, sink

    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=40)
    def test_minimized_preserves_semantics(self, tree):
        original = redundant_desc_a_desc_b()
        mini = minimize_tdsta(original)
        assert mini.selected_nodes(tree) == original.selected_nodes(tree)
        assert mini.accepts(tree) == original.accepts(tree)

    def test_rejects_nondeterministic_input(self):
        import pytest

        nd = STA(
            ["q", "r"],
            ["q", "r"],
            ["q"],
            {},
            [Transition("q", ANY, "q", "q")],
        )
        with pytest.raises(ValueError):
            minimize_tdsta(nd)


class TestEquivalence:
    def test_inequivalent_tdstas(self):
        a = sta_desc_a_desc_b()
        b = sta_dtd_root_a()
        assert not tdsta_equivalent(a, b)

    def test_equivalence_is_reflexive(self):
        a = sta_desc_a_desc_b()
        assert tdsta_equivalent(a, a)

    def test_selection_matters_for_equivalence(self):
        base = sta_desc_a_desc_b()
        # Same language, different selection: select c's instead of b's.
        other = STA(
            base.states,
            base.top,
            base.bottom,
            {"q1": LabelSet.of("c")},
            base.transitions,
        )
        assert not tdsta_equivalent(base, other)
