"""Selecting tree automata (Sections 2-3, Appendices A-B), top-down.

The paper's optimisations run top-down: relevant-node jumping over a
minimal TDSTA (Section 3) and on-the-fly removal of alternation
(:mod:`repro.asta.tda`).  This package holds that side:

- :mod:`repro.automata.labelset` -- finite / co-finite label sets,
- :mod:`repro.automata.sta` -- STAs, runs, acceptance and selection oracles,
- :mod:`repro.automata.examples` -- the paper's worked automata,
- :mod:`repro.automata.pathdet` -- path queries to an exact TDSTA,
- :mod:`repro.automata.minimize` -- TDSTA minimization and equivalence,
- :mod:`repro.automata.relevance` -- relevant nodes (Def. 3.1, Lemma 3.1),
- :mod:`repro.automata.topdown` -- topdown_jump (Algorithm B.1).
"""

from repro.automata.labelset import ANY, LabelSet
from repro.automata.sta import STA, Transition

__all__ = ["ANY", "LabelSet", "STA", "Transition"]
