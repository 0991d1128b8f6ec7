"""In-memory spans recorded from outside the program, around calls into its
public functions.

A span is ``{"id", "name", "start", "end", "parent", "op"}``: ``start``/``end``
are ``time.perf_counter()`` seconds, ``parent`` is the id of the enclosing span
(``None`` for a root), ``op`` numbers the root spans so all spans of one
operation share it.  A span the benchmark did not time itself but rebuilt from
what the program reports (the daemon's ``timing_ms``) carries ``"synth":
true``: its duration is real, its position inside the parent is nominal.

Names are ``<layer>.<what>`` with the layer one of the repo's packages
(``xpath``, ``engine``, ``tree``, ``index``, ``store``, ``serve``) or
``client``; roots are ``op`` (the timed operation) and ``cold`` (a cold-path
operation).  A layer's self time is its spans' duration minus what their
children cover; a root's self time is the part of the operation no child span
explains.  Spans recorded inside the daemon and the pool later must keep this
format and hang below ``serve.roundtrip`` / ``engine.execute``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "name", "id", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        if parent is None:
            tracer.ops += 1
        self.id = len(tracer.spans)
        row = [self.name, 0.0, 0.0, parent, tracer.ops, False]
        tracer.spans.append(row)
        stack.append(self.id)
        self.start = row[1] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.spans[self.id][2] = end
        tracer._stack.pop()


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent, op, synth]
        self._stack: List[int] = []
        self.ops = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, parent: _Span, offset_ms: float, ms: float) -> None:
        """A synthesised child of ``parent``: ``ms`` long, ``offset_ms`` in."""
        start = parent.start + offset_ms / 1000.0
        self.spans.append(
            [name, start, start + ms / 1000.0, parent.id, self.ops, True]
        )

    def records(self) -> List[dict]:
        out = []
        for i, (name, start, end, parent, op, synth) in enumerate(self.spans):
            row = {"id": i, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}
            if synth:
                row["synth"] = True
            out.append(row)
        return out

    def write(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"meta": meta, "spans": self.records()}, handle)

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """``{root name: {layer: self ms per op, ..., "ops": n}}``.

        Children are clipped to their parent's interval, so a synthesised
        span longer than its parent cannot make a self time negative by
        more than rounding."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _op, _synth in spans:
            if parent is not None:
                p = spans[parent]
                covered[parent] += max(0.0, min(end, p[2]) - max(start, p[1]))
        root_of: List[Optional[str]] = [None] * len(spans)
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _op, _synth) in enumerate(spans):
            root = name if parent is None else root_of[parent]
            root_of[i] = root
            layer = name if parent is None else name.split(".", 1)[0]
            totals[root][layer] += max(0.0, (end - start) - covered[i]) * 1000.0
            if parent is None:
                totals[root]["ops"] += 1
                totals[root]["total"] += (end - start) * 1000.0
        out: Dict[str, Dict[str, float]] = {}
        for root, layers in totals.items():
            ops = layers.pop("ops")
            out[root] = {k: v / ops for k, v in layers.items()}
            out[root]["ops"] = ops
        return out

    def unaccounted_share(self) -> float:
        """Root-span time no child span covers, over all root-span time."""
        times = self.self_times()
        own = sum(t[root] * t["ops"] for root, t in times.items())
        total = sum(t["total"] * t["ops"] for t in times.values())
        return own / total if total else 0.0


def format_table(workload: str, times: Dict[str, Dict[str, float]]) -> str:
    """The per-workload table of self ms per op by layer."""
    lines = [f"self ms per op by layer -- {workload}"]
    for root, layers in times.items():
        ops = int(layers["ops"])
        lines.append(f"  {root} ({ops} ops, {layers['total']:.3f} ms/op)")
        rows = [(k, v) for k, v in layers.items() if k not in ("ops", "total")]
        for layer, ms in sorted(rows, key=lambda kv: -kv[1]):
            label = "(unaccounted)" if layer == root else layer
            share = ms / layers["total"] if layers["total"] else 0.0
            lines.append(f"    {label:<16}{ms:10.4f}  {share:6.1%}")
    return "\n".join(lines)
