"""Strategyproofness measurements (Theorems 3.1 and 5.2).

A mechanism is strategyproof when truth-telling is a *dominant*
strategy: for every agent, every true type, and every profile of the
others' bids, utility is maximized at ``b_i = w_i`` with full-speed
execution.  These sweeps evaluate the agent's utility across a grid of
deviations — bid factors (misreporting) and execution factors
(slacking) — and locate the empirical best response.

The fast path goes through the payment algebra directly (``U_i = B_i``)
rather than the full protocol simulation, which lets property tests
probe thousands of random instances; the protocol-level benchmarks
(E8) separately confirm the simulation agrees with the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.payments import bonus
from repro.dlt.platform import BusNetwork
from repro.sweep import RunOptions, SweepPlan, run_plan

__all__ = [
    "UtilityPoint",
    "agent_utility",
    "utility_curve",
    "utility_surface",
    "surface_plan",
    "best_response_bid_factor",
]


@dataclass(frozen=True)
class UtilityPoint:
    """Utility of agent *i* at one strategy (bid factor, exec factor)."""

    bid_factor: float
    exec_factor: float
    utility: float


def agent_utility(
    network_true: BusNetwork,
    i: int,
    *,
    bid_factor: float = 1.0,
    exec_factor: float = 1.0,
    others_bid_factors=None,
) -> float:
    """Utility ``U_i = B_i`` when agent *i* plays (bid, exec) factors.

    ``w~_i = max(1, exec_factor) * w_i`` (cannot run faster than its
    true capacity).  The other agents bid ``others_bid_factors * w`` —
    dominance means the conclusion must be invariant to this profile,
    which the property tests randomize.
    """
    w = network_true.w_array
    factors = np.ones(network_true.m) if others_bid_factors is None else np.asarray(
        others_bid_factors, dtype=float)
    bids = w * factors
    bids[i] = bid_factor * w[i]
    net_bids = network_true.with_w(bids)
    w_exec_i = max(1.0, exec_factor) * w[i]
    return bonus(net_bids, i, w_exec_i)


def utility_curve(
    network_true: BusNetwork,
    i: int,
    bid_factors,
    *,
    exec_factor: float = 1.0,
    others_bid_factors=None,
) -> list[UtilityPoint]:
    """Utility of agent *i* along a sweep of bid factors."""
    return [
        UtilityPoint(float(f), exec_factor,
                     agent_utility(network_true, i, bid_factor=float(f),
                                   exec_factor=exec_factor,
                                   others_bid_factors=others_bid_factors))
        for f in bid_factors
    ]


def utility_surface(
    network_true: BusNetwork,
    i: int,
    bid_factors,
    exec_factors,
    *,
    others_bid_factors=None,
    workers: int = 1,
) -> np.ndarray:
    """Utility matrix, rows = bid factors, cols = exec factors.

    ``workers > 1`` shards the grid across a process pool via the sweep
    engine (:mod:`repro.sweep`); the differential suite pins the result
    to be byte-identical to the serial evaluation for every worker
    count and shard ordering.
    """
    plan = surface_plan(network_true, i, bid_factors, exec_factors,
                        others_bid_factors=others_bid_factors)
    result = run_plan(plan, RunOptions(workers=workers))
    values = [rec["utility"] for rec in result.records]
    return np.asarray(values, dtype=float).reshape(
        (len(bid_factors), len(exec_factors)))


def surface_plan(
    network_true: BusNetwork,
    i: int,
    bid_factors,
    exec_factors,
    *,
    others_bid_factors=None,
    root_seed: int = 0,
) -> SweepPlan:
    """The utility surface as a sweep plan (row-major cell order)."""
    base = {
        "w": [float(x) for x in network_true.w],
        "z": float(network_true.z),
        "kind": network_true.kind.value,
        "i": int(i),
    }
    if others_bid_factors is not None:
        base["others_bid_factors"] = [float(f) for f in
                                      np.asarray(others_bid_factors)]
    return SweepPlan.from_grid(
        "utility-point", base,
        {"bid_factor": [float(f) for f in bid_factors],
         "exec_factor": [float(f) for f in exec_factors]},
        root_seed=root_seed)


def best_response_bid_factor(
    network_true: BusNetwork,
    i: int,
    bid_factors,
    *,
    exec_factor: float = 1.0,
    others_bid_factors=None,
) -> tuple[float, float]:
    """(argmax bid factor, max utility) over the sweep.

    Strategyproofness predicts the argmax is the grid point closest to
    1.0 whenever 1.0 is on the grid.  A *strict* optimum at exactly 1.0
    is not guaranteed pointwise (the utility can plateau in degenerate
    instances), so callers assert ``U(best) <= U(1.0) + eps``.
    """
    pts = utility_curve(network_true, i, bid_factors, exec_factor=exec_factor,
                        others_bid_factors=others_bid_factors)
    best = max(pts, key=lambda p: p.utility)
    return best.bid_factor, best.utility
