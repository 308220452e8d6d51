"""Sharded parallel scenario execution (the sweep engine).

Every evaluation artifact in this reproduction — utility surfaces,
crash/drop sweeps, sensitivity scans, benchmark grids — is a sweep of
*independent* protocol or algebra runs.  This package turns such a
sweep into a :class:`~repro.sweep.spec.SweepPlan` (deterministic
per-scenario seeds derived from one root seed) and executes it either
serially or across a process pool
(:func:`~repro.sweep.runner.run_plan`), with the hard guarantee that
the merged sharded output is byte-identical to the serial loop — see
``tests/sweep/test_differential.py`` and DESIGN.md §4.8 for the
contract.

Consumers: ``repro.analysis.strategyproofness.utility_surface``,
``repro.analysis.resilience.crash_sweep`` / ``drop_sweep``,
``repro.analysis.sensitivity.worst_case_condition`` and
``repro.perf.bench`` all accept ``workers=N`` (default serial) and
route through this engine; the ``repro sweep`` CLI runs plan files or
inline grids directly.
"""

from repro._lazy import attach

# Resolved on first use: the wire layer reads plans through
# repro.sweep.spec without loading the runner and its process pool.
__getattr__, __dir__ = attach(__name__, {
    "repro.sweep.aggregate": ("PhaseTotals", "TrafficTotals",
                              "aggregate_records"),
    "repro.sweep.runner": ("RunOptions", "ShardStats", "SweepError",
                           "SweepResult", "run_plan"),
    "repro.sweep.spec": ("PLAN_FORMAT", "ScenarioSpec", "SweepPlan",
                         "canonical_json", "derive_seed", "digest_records"),
    "repro.sweep.tasks": ("TASKS", "register", "run_scenario"),
})

__all__ = [
    "PLAN_FORMAT",
    "ScenarioSpec",
    "SweepPlan",
    "canonical_json",
    "derive_seed",
    "digest_records",
    "TASKS",
    "register",
    "run_scenario",
    "TrafficTotals",
    "PhaseTotals",
    "aggregate_records",
    "SweepError",
    "RunOptions",
    "ShardStats",
    "SweepResult",
    "run_plan",
]
