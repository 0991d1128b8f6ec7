"""ASTA structure and the Figure 7 evaluation rules."""

import pytest

from repro.asta.automaton import ASTA, ASTATransition
from repro.asta.formula import TRUE, down, fand, fnot, for_
from repro.asta.semantics import (
    EMPTY_ROPE,
    concat,
    eval_formula,
    eval_transitions,
    flatten,
    leaf,
    root_answer,
)
from repro.automata.labelset import ANY, LabelSet


def example_41() -> ASTA:
    """The ASTA of Example 4.1 for //a//b[c], written out by hand."""
    return ASTA(
        states=["q0", "q1", "q2"],
        top=["q0"],
        transitions=[
            ASTATransition("q0", LabelSet.of("a"), False, down(1, "q1")),
            ASTATransition("q0", ANY, False, for_(down(1, "q0"), down(2, "q0"))),
            ASTATransition("q1", LabelSet.of("b"), True, down(1, "q2")),
            ASTATransition("q1", ANY, False, for_(down(1, "q1"), down(2, "q1"))),
            ASTATransition("q2", LabelSet.of("c"), False, TRUE),
            ASTATransition("q2", ANY, False, down(2, "q2")),
        ],
    )


class TestASTAStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            ASTA(["q"], ["zz"], [])
        with pytest.raises(ValueError):
            ASTA(["q"], ["q"], [ASTATransition("q", ANY, False, down(1, "zz"))])

    def test_active_transitions(self):
        asta = example_41()
        active = asta.active({"q0"}, "a")
        assert len(active) == 2  # {a} rule and the Σ recursion rule
        active_c = asta.active({"q0"}, "c")
        assert len(active_c) == 1

    def test_marking_states(self):
        asta = example_41()
        assert asta.is_marking("q1")
        assert asta.is_marking("q0")  # reaches q1's selecting rule
        assert not asta.is_marking("q2")

    def test_atoms_and_rep(self):
        asta = example_41()
        names = [rep for rep, _ in asta.atoms()]
        assert names[:-1] == ["a", "b", "c"]
        assert asta.atom_rep("a") == "a"
        assert asta.atom_rep("zzz") == names[-1]

    def test_describe_lists_transitions(self):
        text = example_41().describe()
        assert "⇒" in text and "q1" in text


class TestRopes:
    def test_concat_identity(self):
        assert concat(EMPTY_ROPE, leaf(3)) == leaf(3)
        assert concat(leaf(3), EMPTY_ROPE) == leaf(3)

    def test_flatten_sorts_and_dedups(self):
        rope = concat(leaf(5), concat(leaf(1), leaf(5)))
        assert flatten(rope) == [1, 5]

    def test_flatten_empty(self):
        assert flatten(EMPTY_ROPE) == []

    def test_a_shared_sub_rope_is_walked_once(self, monkeypatch):
        """On a chain of siblings, ``following-sibling`` result sets share
        their sub-ropes; ``flatten`` reads each distinct node once, where
        walking the unfolded tree read a shared node once per path to it."""
        import oracle_sqlite
        from repro import Engine
        from repro.asta import semantics

        xml = "<r>" + "<item><mailbox><mail/></mailbox></item>" * 60 + "</r>"
        query = "//item[mailbox/mail]/following-sibling::item"
        ropes = []
        monkeypatch.setattr(
            semantics, "flatten", lambda rope: ropes.append(rope) or flatten(rope)
        )
        answer = Engine(xml, strategy="optimized").select(query)
        assert answer == oracle_sqlite.select(xml, query)
        (rope,) = ropes

        counted, paths = _counting_replica(rope)
        _Counted.reads = 0
        assert flatten(counted) == answer
        assert _Counted.reads <= len(paths)  # one read of each distinct node
        assert sum(paths.values()) > 10 * len(paths)  # the unfolded tree


class TestFormulaEvaluation:
    def test_down_collects_markings(self):
        g1 = {"q": leaf(7)}
        ok, rope = eval_formula(down(1, "q"), g1, {})
        assert ok and flatten(rope) == [7]

    def test_down_accepted_with_empty_rope(self):
        ok, rope = eval_formula(down(2, "q"), {}, {"q": EMPTY_ROPE})
        assert ok and rope == EMPTY_ROPE

    def test_or_unions_both_true_branches(self):
        g1 = {"p": leaf(1), "q": leaf(2)}
        ok, rope = eval_formula(for_(down(1, "p"), down(1, "q")), g1, {})
        assert ok and flatten(rope) == [1, 2]

    def test_or_takes_single_true_branch(self):
        g1 = {"p": leaf(1)}
        ok, rope = eval_formula(for_(down(1, "p"), down(1, "q")), g1, {})
        assert ok and flatten(rope) == [1]

    def test_and_requires_both(self):
        g1 = {"p": leaf(1)}
        ok, _ = eval_formula(fand(down(1, "p"), down(1, "q")), g1, {})
        assert not ok
        g1["q"] = leaf(2)
        ok, rope = eval_formula(fand(down(1, "p"), down(1, "q")), g1, {})
        assert ok and flatten(rope) == [1, 2]

    def test_not_discards_markings(self):
        g1 = {"p": leaf(1)}
        ok, rope = eval_formula(fnot(down(1, "q")), g1, {})
        assert ok and rope == EMPTY_ROPE
        ok, _ = eval_formula(fnot(down(1, "p")), g1, {})
        assert not ok


class TestEvalTransitions:
    def test_selecting_transition_adds_node(self):
        asta = example_41()
        active = asta.active({"q1"}, "b")
        g1 = {"q2": EMPTY_ROPE}
        gamma = eval_transitions(active, g1, {}, v=9)
        assert flatten(gamma["q1"]) == [9]

    def test_non_selecting_propagates_only(self):
        asta = example_41()
        active = asta.active({"q0"}, "x")
        g1 = {"q0": leaf(4)}
        gamma = eval_transitions(active, g1, {}, v=0)
        assert flatten(gamma["q0"]) == [4]

    def test_unsatisfied_transition_absent(self):
        asta = example_41()
        active = asta.active({"q1"}, "b")
        gamma = eval_transitions(active, {}, {}, v=9)
        assert "q1" not in gamma  # needs a c child (q2 on the left)

    def test_root_answer(self):
        asta = example_41()
        accepted, ids = root_answer(asta, {"q0": leaf(3)})
        assert accepted and ids == [3]
        accepted, ids = root_answer(asta, {"q1": leaf(3)})
        assert not accepted and ids == []


class _Counted(tuple):
    """A rope node that counts the reads of its tag, once per node walked."""

    reads = 0

    def __getitem__(self, i):
        if i == 0:
            _Counted.reads += 1
        return tuple.__getitem__(self, i)


def _counting_replica(rope):
    """``rope`` rebuilt from :class:`_Counted` nodes, sharing kept, and
    per distinct node (by identity) the number of paths from the root to
    it: what a walk of the unfolded tree reads of it."""
    order = _children_first(rope)
    paths = {id(node): 0 for node in order}
    paths[id(rope)] = 1
    for node in reversed(order):
        if node[0] == "+":
            for part in node[1:]:
                if part:
                    paths[id(part)] += paths[id(node)]
    copies = {}
    for node in order:
        parts = tuple(copies.get(id(part), part) for part in node[1:])
        copies[id(node)] = _Counted((node[0],) + parts)
    return copies[id(rope)], paths


def _children_first(rope):
    """The distinct nodes of ``rope``, each after every node below it."""
    order, expanded = [], set()
    stack = [(rope, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in expanded:
            expanded.add(id(node))
            stack.append((node, True))
            if node[0] == "+":
                stack.extend((part, False) for part in node[1:] if part)
    return order
