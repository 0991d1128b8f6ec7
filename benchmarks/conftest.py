"""Shared benchmark fixtures.

The workload scale is controlled by two environment variables:

- ``REPRO_BENCH_SCALE``    (default 1.0): XMark generator scale for the
  fig3/fig4/fig8 instances (26,217 element nodes at 1.0, growing
  linearly);
- ``REPRO_BENCH_FRACTION`` (default 0.1): size fraction of the Figure 5
  configurations (1.0 = the paper's exact counts).

Raise them to stress the engines; the reported *shapes* are stable across
scales.
"""

from __future__ import annotations

import os

import pytest

from repro.index.jumping import TreeIndex
from repro.xmark.configs import CONFIG_SPECS, make_config_tree
from repro.xmark.generator import XMarkGenerator

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
FRACTION = float(os.environ.get("REPRO_BENCH_FRACTION", "0.1"))


@pytest.fixture(scope="session")
def xmark_index() -> TreeIndex:
    return TreeIndex(XMarkGenerator(scale=SCALE, seed=42).tree())


@pytest.fixture(scope="session")
def config_indexes() -> dict:
    return {
        name: TreeIndex(make_config_tree(name, FRACTION))
        for name in CONFIG_SPECS
    }
