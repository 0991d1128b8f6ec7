"""EvalStats counters."""

from repro.counters import EvalStats


class TestEvalStats:
    def test_defaults_zero(self):
        s = EvalStats()
        assert s.visited == 0 and s.selected == 0 and s.memo_entries == 0

    def test_ratio(self):
        s = EvalStats(visited=200, selected=50)
        assert s.ratio_selected_visited() == 25.0

    def test_ratio_zero_visited(self):
        assert EvalStats().ratio_selected_visited() == 0.0

    def test_snapshot_keys(self):
        snap = EvalStats().snapshot()
        assert set(snap) == {
            "visited",
            "selected",
            "memo_entries",
            "memo_hits",
            "jumps",
            "index_probes",
        }
