"""Property tests over *random* deterministic selecting tree automata.

The fixed examples of the paper are necessary but not sufficient; these
strategies generate arbitrary complete TDSTAs over a small label
alphabet and check the Section 3 machinery wholesale:

- minimization preserves language and selection and is idempotent;
- the unique deterministic run agrees with the all-runs oracle;
- ``topdown_jump`` is sound (run values correct, rejection detected) and
  complete for selection (every selected node is in its domain).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.labelset import LabelSet
from repro.automata.minimize import minimize_tdsta, tdsta_equivalent
from repro.automata.sta import STA, Transition
from repro.automata.topdown import topdown_jump
from repro.counters import EvalStats
from repro.index.jumping import TreeIndex

from strategies import binary_trees

LABELS = ("a", "b", "c")
ATOMS = [LabelSet.of("a"), LabelSet.of("b"), LabelSet.of("c"), LabelSet.not_of(*LABELS)]


@st.composite
def tdstas(draw, max_states: int = 3):
    """Random complete top-down deterministic STAs."""
    n = draw(st.integers(1, max_states))
    states = [f"q{i}" for i in range(n)]
    transitions = []
    for q in states:
        for atom in ATOMS:
            q1 = draw(st.sampled_from(states))
            q2 = draw(st.sampled_from(states))
            transitions.append(Transition(q, atom, q1, q2))
    top = [states[0]]
    bottom = draw(st.sets(st.sampled_from(states), min_size=1))
    selecting = {}
    for q in states:
        sel = draw(st.sets(st.sampled_from(LABELS), max_size=2))
        if sel:
            selecting[q] = LabelSet(sel)
    return STA(states, top, bottom, selecting, transitions)


class TestRandomTDSTA:
    @given(tdstas(), binary_trees(max_depth=3, max_children=3))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_run_agrees_with_oracle(self, sta, tree):
        run = sta.deterministic_topdown_run(tree)
        accepted = sta.accepts(tree)
        assert (run is not None) == accepted
        if run is not None:
            selected = [
                v for v in range(tree.n) if sta.selects(run[v], tree.label(v))
            ]
            assert selected == sta.selected_nodes(tree)

    @given(tdstas(), binary_trees(max_depth=3, max_children=3))
    @settings(max_examples=60, deadline=None)
    def test_minimization_preserves_semantics(self, sta, tree):
        mini = minimize_tdsta(sta)
        assert mini.accepts(tree) == sta.accepts(tree)
        assert mini.selected_nodes(tree) == sta.selected_nodes(tree)
        assert len(mini.states) <= len(sta.states) + 1  # +1: added sink

    @given(tdstas())
    @settings(max_examples=40, deadline=None)
    def test_minimization_idempotent_and_equivalent(self, sta):
        mini = minimize_tdsta(sta)
        again = minimize_tdsta(mini)
        assert len(again.states) == len(mini.states)
        assert tdsta_equivalent(mini, sta)

    @given(tdstas(), binary_trees(max_depth=3, max_children=3))
    @settings(max_examples=80, deadline=None)
    def test_topdown_jump_sound_and_selection_complete(self, sta, tree):
        mini = minimize_tdsta(sta)
        run = topdown_jump(mini, TreeIndex(tree), EvalStats())
        full = mini.deterministic_topdown_run(tree)
        if full is None:
            assert run == {}
            return
        for v, q in run.items():
            assert full[v] == q
        # Every selected node must appear in the partial run's domain.
        for v in mini.selected_nodes(tree):
            assert v in run
            assert mini.selects(run[v], tree.label(v))

    @given(tdstas(), binary_trees(max_depth=3, max_children=3))
    @settings(max_examples=60, deadline=None)
    def test_jump_never_accepts_rejected_trees(self, sta, tree):
        mini = minimize_tdsta(sta)
        run = topdown_jump(mini, TreeIndex(tree), EvalStats())
        if not mini.accepts(tree):
            assert run == {}

