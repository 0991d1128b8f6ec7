"""Bench harness and experiment drivers (smoke level)."""

import os
import pathlib
import subprocess
import sys

import repro
from repro.bench.harness import Timer, format_table
from repro.bench.experiments import (
    ablation_storage,
    ablation_techniques,
    build_index,
    fig3_node_counts,
    fig4_times,
    fig5_hybrid,
    fig8_vs_stepwise,
    main,
)


class TestHarness:
    def test_timer_returns_positive_ms(self):
        t = Timer(repeats=2)
        assert t.best_ms(lambda: sum(range(1000))) >= 0

    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text
        assert len({len(l) for l in lines[1:]}) == 1  # aligned rows


class TestDrivers:
    def test_fig3_rows(self):
        index = build_index(scale=0.05, seed=5)
        rows, n = fig3_node_counts(index)
        assert len(rows) == 15
        assert n == index.tree.n
        for row in rows:
            assert row[1] <= row[2] <= n  # selected <= visited <= nodes

    def test_fig4_rows(self):
        index = build_index(scale=0.05, seed=5)
        rows = fig4_times(index, repeats=1)
        assert len(rows) == 15
        assert all(len(r) == 5 for r in rows)

    def test_fig5_rows(self):
        rows = fig5_hybrid(fraction=0.01, repeats=1)
        assert [r[0] for r in rows] == ["A", "B", "C", "D"]

    def test_fig8_rows(self):
        index = build_index(scale=0.05, seed=5)
        rows = fig8_vs_stepwise(index, repeats=1)
        assert len(rows) == 15

    def test_ablation_storage(self):
        out = ablation_storage(scale=0.05)
        assert out["pointer_bytes"] > out["succinct_bytes"]
        assert out["blowup"] > 1

    def test_ablation_grid_has_8_rows(self):
        index = build_index(scale=0.03, seed=5)
        rows = ablation_techniques(index, repeats=1)
        assert len(rows) == 8

    def test_main_rejects_unknown(self, capsys):
        assert main(["nope"]) == 2

    def test_module_runs_without_runtime_warning(self):
        """``python -m repro.bench.experiments`` (the command README
        documents) must not find the module already imported by its
        package: runpy warns, and ``-W error`` makes that exit 1."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parent.parent)
        env["REPRO_BENCH_SCALE"] = "0.05"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.bench.experiments", "fig3"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Figure 3 reproduction" in proc.stdout


def test_only_the_experiment_drivers_read_the_environment():
    """``REPRO_BENCH_SCALE`` / ``_FRACTION`` size the paper-record runs;
    nothing else in the package is configured from the environment."""
    root = pathlib.Path(repro.__file__).parent
    readers = [
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if "os.environ" in path.read_text() or "getenv" in path.read_text()
    ]
    assert readers == ["bench/experiments.py"]


class TestSweep:
    def test_hybrid_sweep_rows_monotone(self):
        from repro.bench.experiments import hybrid_sweep

        rows = hybrid_sweep(listitems=400, pivot_counts=(4, 64, 400), repeats=1)
        assert [r[0] for r in rows] == [4, 64, 400]
        # hybrid visits grow with the pivot count; selections match it.
        assert rows[0][2] < rows[-1][2]
        for kw, selected, *_ in rows:
            assert selected == kw
