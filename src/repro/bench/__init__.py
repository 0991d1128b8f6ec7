"""Benchmark harness: one entry point per paper table/figure.

``python -m repro.bench.experiments all`` regenerates every table; the
``benchmarks/`` directory wraps the timing-sensitive parts in
pytest-benchmark so the series of Figure 4/5/8 appear as benchmark rows.
The drivers live in :mod:`repro.bench.experiments` (imported from there,
not re-exported here, so ``-m`` finds the module unimported), the timer
and table printer in :mod:`repro.bench.harness`.
"""
