"""topdown_jump (Algorithm B.1) against Theorem 3.1."""

from hypothesis import given, settings

from repro.automata.examples import sta_desc_a_desc_b, sta_dtd_root_a
from repro.automata.labelset import ANY, LabelSet
from repro.automata.minimize import complete_topdown
from repro.automata.relevance import topdown_relevant
from repro.automata.sta import STA, Transition
from repro.automata.topdown import topdown_jump
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex
from repro.tree.binary import BinaryTree

from strategies import binary_trees


def jump(sta, spec_or_tree, stats=None):
    tree = (
        spec_or_tree
        if isinstance(spec_or_tree, BinaryTree)
        else BinaryTree.from_spec(spec_or_tree)
    )
    stats = EvalStats() if stats is None else stats
    return topdown_jump(sta, TreeIndex(tree), stats), tree


def child_check_automaton() -> STA:
    """/a[b]-style: root must be a with a b child (loop_right shape).

    q1 scans the right spine of a's first child looking for b; it is NOT a
    bottom state, so running off the spine without a b rejects.  Completed
    with a sink so non-a roots reject instead of erroring.
    """
    return complete_topdown(STA(
        states=["q0", "q1", "qT"],
        top=["q0"],
        bottom=["qT"],
        selecting={"q0": LabelSet.of("a")},
        transitions=[
            Transition("q0", LabelSet.of("a"), "q1", "qT"),
            Transition("q1", LabelSet.of("b"), "qT", "qT"),
            Transition("q1", LabelSet.not_of("b"), "qT", "q1"),
            Transition("qT", ANY, "qT", "qT"),
        ],
    ))


class TestExactness:
    def test_dtd_visits_only_root(self):
        rec = complete_topdown(sta_dtd_root_a())
        stats = EvalStats()
        run, tree = jump(rec, ("a", "b", ("c", "d"), "e"), stats)
        assert set(run) == {0}
        assert stats.visited == 1

    def test_dtd_rejecting_gives_empty(self):
        rec = complete_topdown(sta_dtd_root_a())
        run, _ = jump(rec, ("b", "a"))
        assert run == {}

    def test_example21_visits_exactly_relevant(self):
        sta = sta_desc_a_desc_b()
        t = BinaryTree.from_spec(("r", ("a", "b", "c"), "x", ("a", "b")))
        run, _ = jump(sta, t)
        assert frozenset(run) == topdown_relevant(sta, t)

    def test_example21_run_values_match_full_run(self):
        sta = sta_desc_a_desc_b()
        t = BinaryTree.from_spec(("r", ("a", ("b", "b")), "c"))
        run, _ = jump(sta, t)
        full = sta.deterministic_topdown_run(t)
        for v, q in run.items():
            assert full[v] == q

    @given(binary_trees(labels=("a", "b", "c", "d")))
    @settings(max_examples=60)
    def test_theorem_31_on_example21(self, t):
        sta = sta_desc_a_desc_b()
        run = topdown_jump(sta, TreeIndex(t), EvalStats())
        relevant = topdown_relevant(sta, t)
        assert relevant is not None  # this automaton accepts everything
        assert frozenset(run) == relevant
        full = sta.deterministic_topdown_run(t)
        for v, q in run.items():
            assert full[v] == q

    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=60)
    def test_theorem_31_on_dtd_recognizer(self, t):
        rec = complete_topdown(sta_dtd_root_a())
        run = topdown_jump(rec, TreeIndex(t), EvalStats())
        relevant = topdown_relevant(rec, t)
        if relevant is None:
            assert run == {}
        else:
            assert frozenset(run) == relevant


class TestAcceptanceChecking:
    """Skipping must never silently accept what the full run rejects."""

    @given(binary_trees(labels=("a", "b", "c")))
    @settings(max_examples=80)
    def test_rejection_detected_with_right_spine_states(self, t):
        sta = child_check_automaton()
        run = topdown_jump(sta, TreeIndex(t), EvalStats())
        full = sta.deterministic_topdown_run(t)
        if full is None:
            assert run == {}
        else:
            assert run != {} or t.n == 0
            for v, q in run.items():
                assert full[v] == q

    def test_a_with_b_child_accepted(self):
        sta = child_check_automaton()
        run, _ = jump(sta, ("a", "x", "b"))
        assert run and run[0] == "q0"

    def test_a_without_b_child_rejected(self):
        sta = child_check_automaton()
        run, _ = jump(sta, ("a", "x", "y"))
        assert run == {}

    def test_leaf_a_rejected(self):
        # q1 must be verified on the (empty) child spine: # gets q1 ∉ B.
        sta = child_check_automaton()
        run, _ = jump(sta, "a")
        assert run == {}


class TestStats:
    def test_visited_no_more_than_nodes(self):
        sta = sta_desc_a_desc_b()
        stats = EvalStats()
        _, tree = jump(sta, ("r", ("a", "b"), "c", "d", "e"), stats)
        assert stats.visited <= tree.n
        assert stats.jumps > 0
