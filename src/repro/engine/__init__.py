"""XPath evaluation engines (Sections 4.3-4.4, the Figure 4 series).

All engines share the stack machine of :mod:`repro.engine.core` and differ
only in which techniques are enabled:

==============  =======  ======  =====================
engine          jumping  memo    information propagation
==============  =======  ======  =====================
naive           no       no      no
jumping         yes      no      yes
memo            no       yes     no
optimized       yes      yes     yes
==============  =======  ======  =====================

(The paper's "Jumping Eval." series computes the top-down approximation
on the fly and pays the |Q| factor per visited node -- our jumping engine
does the same: no transition memoization, but the per-state-set jump plans
are cached, without which a Python implementation could not jump at all.)

:mod:`repro.engine.hybrid` implements the start-anywhere evaluation of
Section 4.4, :mod:`repro.engine.deterministic` the minimal-TDSTA pipeline
for predicate-free path queries (Section 3 end to end), and
:mod:`repro.engine.mixed` the forward-prefix + step-wise pipeline for
backward axes (Section 6).  Beyond the paper's engines,
:mod:`repro.engine.frontier` evaluates absolute forward paths
*set-at-a-time* over numpy node-id frontiers (the ``vectorized``
strategy; ``window`` is the same kernel over every axis), and
:mod:`repro.engine.planner` registers ``auto`` -- that kernel under the
default's name -- and states the operator it picks per location step.

Every engine doubles as a *strategy plugin*: it registers itself in
:mod:`repro.engine.registry`, declares which query fragment it supports,
and names its fallback.  :mod:`repro.engine.api` is the one-document
public interface on top (with :class:`~repro.engine.plan.PreparedQuery`
for parse/compile-once reuse), :mod:`repro.engine.workspace` the
multi-document batch interface, and :mod:`repro.engine.parallel` the
sharded worker-pool service that scales batches and broadcasts across
cores with results identical to serial execution.
"""

from repro.engine.api import Engine, evaluate
from repro.engine.core import run_asta
from repro.engine.hybrid import hybrid_evaluate
from repro.engine.parallel import QueryService, Shard, shard_document
from repro.engine.plan import CompiledQueryCache, ExecutionResult, PreparedQuery
from repro.engine.registry import (
    Strategy,
    StrategyBase,
    register_strategy,
    strategy_names,
)
from repro.engine.workspace import Workspace

__all__ = [
    "Engine",
    "evaluate",
    "run_asta",
    "hybrid_evaluate",
    "CompiledQueryCache",
    "ExecutionResult",
    "PreparedQuery",
    "Strategy",
    "StrategyBase",
    "register_strategy",
    "strategy_names",
    "Workspace",
    "QueryService",
    "Shard",
    "shard_document",
]
