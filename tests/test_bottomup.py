"""Bottom-up evaluation (Algorithm B.2) and the jumping variant."""

import pytest
from hypothesis import given, settings

from repro.automata.bottomup import (
    active_label_ids,
    bottom_up,
    bottom_up_reduce,
    bottomup_jump,
    selected_by_run,
)
from repro.automata.examples import sta_a_with_b_below
from repro.automata.minimize import complete_bottomup
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree

from strategies import binary_trees


def sta():
    return sta_a_with_b_below()


def tree(spec):
    return BinaryTree.from_spec(spec)


class TestBottomUp:
    def test_unique_run_states(self):
        automaton = sta()
        t = tree(("r", ("a", ("c", "b")), "c"))
        run = bottom_up(automaton, t, EvalStats())
        assert run is not None
        # q1 = "XML subtree contains b" flows up to the root.
        assert run[3] == "q1"  # the b itself
        assert run[1] == "q1"  # the a above it
        assert run[4] == "q0"  # the trailing plain c

    def test_selection_from_run(self):
        automaton = sta()
        t = tree(("r", ("a", ("c", "b")), "c"))
        run = bottom_up(automaton, t, EvalStats())
        assert selected_by_run(automaton, t, run) == [1]
        assert automaton.selected_nodes(t) == [1]

    def test_requires_single_bottom_state(self):
        from repro.automata.examples import sta_desc_a_desc_b

        with pytest.raises(ValueError):
            bottom_up(sta_desc_a_desc_b(), tree("a"), EvalStats())

    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=60)
    def test_run_agrees_with_oracle_selection(self, t):
        automaton = sta()
        run = bottom_up(automaton, t, EvalStats())
        assert run is not None  # accepts all trees
        assert selected_by_run(automaton, t, run) == automaton.selected_nodes(t)


class TestListReduction:
    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=60)
    def test_reduce_equals_sweep(self, t):
        automaton = sta()
        assert bottom_up_reduce(automaton, t) == bottom_up(automaton, t, EvalStats())

    def test_single_node(self):
        automaton = sta()
        t = tree("a")
        assert bottom_up_reduce(automaton, t) == bottom_up(automaton, t, EvalStats())


class TestJumping:
    def test_active_labels_of_example(self):
        automaton = sta()
        t = tree(("r", ("a", "b"), "c"))
        ids = active_label_ids(automaton, t)
        assert ids is not None
        # Only b changes the initial state (a-selection needs a q1 child).
        assert [t.labels[i] for i in ids] == ["b"]

    def test_skips_inert_subtrees(self):
        automaton = sta()
        # A large b-free sibling chain should be skipped wholesale.
        t = tree(("r", ("a", "b")) + tuple("c" for _ in range(50)))
        index = TreeIndex(t)
        stats = EvalStats()
        run = bottomup_jump(automaton, index, stats)
        assert run is not None
        assert stats.visited < t.n // 2

    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=60)
    def test_jump_run_values_match_full_run(self, t):
        automaton = sta()
        index = TreeIndex(t)
        full = bottom_up(automaton, t, EvalStats())
        partial = bottomup_jump(automaton, index, EvalStats())
        assert (full is None) == (partial is None)
        if full is not None:
            for v, q in partial.items():
                assert full[v] == q

    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=40)
    def test_jump_never_visits_more_than_sweep(self, t):
        automaton = sta()
        s_full, s_jump = EvalStats(), EvalStats()
        bottom_up(automaton, t, s_full)
        bottomup_jump(automaton, TreeIndex(t), s_jump)
        assert s_jump.visited <= s_full.visited
