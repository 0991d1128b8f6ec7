"""Smoke tests: every example script must run cleanly."""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def run_example(path: Path, argv):
    out = io.StringIO()
    old_argv = sys.argv
    sys.argv = [str(path)] + argv
    try:
        with redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv
    return out.getvalue()


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


def test_quickstart_runs():
    out = run_example(
        next(p for p in EXAMPLES if p.name == "quickstart.py"), []
    )
    assert "every registered strategy agrees" in out
    assert "prepared queries" in out
    assert "workspace" in out
    assert "//book" in out


def test_xmark_analytics_runs():
    out = run_example(
        next(p for p in EXAMPLES if p.name == "xmark_analytics.py"), ["0.05"]
    )
    assert "Q15" in out
    assert "ad-hoc analytics" in out


def test_hybrid_selectivity_runs():
    out = run_example(
        next(p for p in EXAMPLES if p.name == "hybrid_selectivity.py"), ["0.01"]
    )
    assert "pivot" in out
    assert " D " in out or "D " in out


def test_automata_explorer_runs():
    out = run_example(
        next(p for p in EXAMPLES if p.name == "automata_explorer.py"), []
    )
    assert "jump shape" in out
    assert "relevant nodes" in out


def test_access_control_runs():
    out = run_example(
        next(p for p in EXAMPLES if p.name == "access_control.py"), []
    )
    assert "may access" in out
    assert "auditor" in out


def test_parallel_batch_runs():
    out = run_example(
        next(p for p in EXAMPLES if p.name == "parallel_batch.py"), ["0.05"]
    )
    assert "identical to serial: True" in out
    assert "3 documents x 15 queries x 2 batches = 90 tasks" in out
    assert "per-query counters" in out
