"""Shape assertions for the paper's experimental claims (Section 5).

These tests pin the *relational* findings of the evaluation -- who wins,
and the special cases the paper calls out -- on a small XMark instance.
Counts are used instead of wall-clock times wherever possible to keep the
suite robust; ``python -m repro.bench.experiments all`` prints the timing
tables (README "Benchmarks").
"""

import pytest

from repro.counters import EvalStats
from repro.engine.core import SERIES, run_asta
from repro.index.jumping import TreeIndex
from repro.xmark.configs import make_config_tree
from repro.xmark.queries import HYBRID_QUERY, QUERIES
from repro.xpath.compiler import compile_xpath

from strategies import execute_as, run_as


def run(engine, qid, index):
    stats = EvalStats()
    run_asta(compile_xpath(QUERIES[qid]), index, stats=stats, **SERIES[engine])
    return stats


class TestFigure3Claims:
    def test_q01_touches_two_nodes(self, xmark_index):
        """Paper: Q01 selects 1 node and visits 2 with jumping."""
        stats = run("optimized", "Q01", xmark_index)
        assert stats.selected == 1
        assert stats.visited == 2

    def test_q10_one_witness_predicate(self, xmark_index):
        """Paper: Q10 selects 1 (the root) and visits 2."""
        stats = run("optimized", "Q10", xmark_index)
        assert stats.selected == 1
        assert stats.visited == 2

    @pytest.mark.parametrize("qid", ["Q11", "Q12"])
    def test_keyword_accumulation_touches_only_keywords(self, qid, xmark_index):
        """Paper: for Q11/Q12 visited = selected + 1 (ratio 99.9%)."""
        stats = run("optimized", qid, xmark_index)
        assert stats.visited == stats.selected + 1

    @pytest.mark.parametrize("qid", ["Q13", "Q14", "Q15"])
    def test_predicate_overhead_is_small(self, qid, xmark_index):
        """Paper: Q13-Q15 touch only a handful of extra nodes."""
        stats = run("optimized", qid, xmark_index)
        assert stats.visited <= stats.selected * 1.2 + 50

    def test_full_traversal_queries_visit_everything_naive(self, xmark_index):
        """Paper: a top-level '//' forces the full document without
        jumping."""
        n = xmark_index.tree.n
        for qid in ("Q05", "Q08", "Q11"):
            stats = run("naive", qid, xmark_index)
            assert stats.visited == n

    def test_memo_tables_stay_small(self, xmark_index):
        """Paper line (4): tens of entries, not thousands."""
        for qid in QUERIES:
            stats = run("optimized", qid, xmark_index)
            assert stats.memo_entries < 600, qid

    def test_ratio_line5_shape(self, xmark_index):
        """Selected/visited >= 10% for the realistic queries (except Q08,
        exactly as the paper reports)."""
        for qid in ("Q02", "Q03", "Q04", "Q05", "Q06", "Q07", "Q09"):
            stats = run("optimized", qid, xmark_index)
            assert stats.ratio_selected_visited() > 10.0, qid


class TestFigure4Claims:
    def test_jumping_cuts_visits_by_10x_on_slash_slash_queries(self, xmark_index):
        """Paper: jumping alone improves 10-100x on // queries (we assert
        the visit-count proxy)."""
        for qid in ("Q05", "Q10", "Q11"):
            s_naive = run("naive", qid, xmark_index)
            s_jump = run("jumping", qid, xmark_index)
            assert s_jump.visited * 2 < s_naive.visited, qid
        s_naive = run("naive", "Q10", xmark_index)
        s_jump = run("jumping", "Q10", xmark_index)
        assert s_jump.visited * 100 < s_naive.visited

    def test_memo_amortizes_transition_scans(self, xmark_index):
        """After warm-up, look-ups dominate: hits >> entries."""
        stats = run("memo", "Q05", xmark_index)
        assert stats.memo_hits > 20 * stats.memo_entries

    def test_opt_visits_min_of_both(self, xmark_index):
        for qid in QUERIES:
            s_opt = run("optimized", qid, xmark_index)
            s_jump = run("jumping", qid, xmark_index)
            s_memo = run("memo", qid, xmark_index)
            assert s_opt.visited <= min(s_jump.visited, s_memo.visited), qid


class TestFigure5Claims:
    @pytest.mark.parametrize("name,best_case", [("A", True), ("B", True), ("C", False)])
    def test_hybrid_visit_regimes(self, name, best_case):
        index = TreeIndex(make_config_tree(name, fraction=0.05))
        s_h, s_r = execute_as("hybrid", HYBRID_QUERY, index).stats, EvalStats()
        run_asta(compile_xpath(HYBRID_QUERY), index, stats=s_r)
        if best_case:
            # A/B: hybrid visits orders of magnitude fewer nodes.
            assert s_h.visited * 100 < s_r.visited
        else:
            # C: hybrid degenerates to roughly the regular behaviour.
            assert s_h.visited > s_r.visited / 2

    def test_config_b_runs_from_emph(self):
        """Paper: in B the hybrid does a pure bottom-up run from emph."""
        from repro.engine.hybrid import plan_pivot
        from repro.xpath.parser import parse_xpath

        index = TreeIndex(make_config_tree("B", fraction=0.05))
        assert plan_pivot(parse_xpath(HYBRID_QUERY), index) == 2  # emph

    def test_config_a_runs_from_keyword(self):
        from repro.engine.hybrid import plan_pivot
        from repro.xpath.parser import parse_xpath

        index = TreeIndex(make_config_tree("A", fraction=0.05))
        assert plan_pivot(parse_xpath(HYBRID_QUERY), index) == 1  # keyword


class TestFigure8Claims:
    def test_automata_engine_agrees_with_stepwise_everywhere(self, xmark_index):
        from repro.baselines.stepwise import stepwise_evaluate

        for qid, q in QUERIES.items():
            _, sel = run_asta(compile_xpath(q), xmark_index, stats=EvalStats())
            assert stepwise_evaluate(q, xmark_index, EvalStats()) == sel, qid
