"""Baseline engines the paper compares against.

- :mod:`repro.baselines.staircase` -- the staircase join [9]: pruned
  descendant computation over pre/post (here: preorder-range) encodings,
  the relational-engine technique the Related Work discusses;
- :mod:`repro.baselines.stepwise` -- step-at-a-time Core XPath evaluation
  over node sets (the Gottlob-Koch O(|D|·|Q|) family), standing in for the
  MonetDB/XQuery comparator of Figure 8 / Appendix D.
"""

from repro.baselines.staircase import descendants_with_label, topmost_prune
from repro.baselines.stepwise import stepwise_evaluate

__all__ = [
    "stepwise_evaluate",
    "topmost_prune",
    "descendants_with_label",
]
