"""Timing and table-formatting utilities for the experiment drivers."""

from __future__ import annotations

import time
from typing import Callable, Sequence


class Timer:
    """Best-of-N wall-clock timer (the paper takes the best of 5 runs)."""

    def __init__(self, repeats: int = 3) -> None:
        self.repeats = repeats

    def best_ms(self, fn: Callable[[], object]) -> float:
        """Best wall-clock time of ``fn()`` over the configured repeats."""
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
        return best * 1000.0


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Plain-text aligned table (the printable figure reproduction)."""
    cells = [[str(h) for h in headers]] + [
        [_fmt(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "  "
    for i, row in enumerate(cells):
        lines.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append(sep.join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

