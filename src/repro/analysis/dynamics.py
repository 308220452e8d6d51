"""Best-response dynamics: do learning agents find the truthful profile?

Strategyproofness is a statement about one-shot rationality; real
participants often *learn* instead.  This module iterates best-response
dynamics over the bid profile — each round, every agent (simultaneously
or one at a time) moves to its utility-maximizing bid against the
current profile — and measures convergence.

Because truth-telling is a dominant strategy (not merely an
equilibrium), the prediction is sharp: every agent's best response is
its true value *regardless* of the others, so the dynamics hit the
truthful fixed point after a single round from any starting profile —
a much stronger convergence property than generic games enjoy, and a
nice operational restatement of Theorem 3.1 that the E25-style tests
verify.

The NCP-NFE caveat (DESIGN.md §3.5 finding 5) carries over: the
one-round signature requires the traversed bid profiles to stay in the
DLT regime; a start with someone underbidding past ``z`` can produce
non-truthful intermediate best responses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.payments import bonus
from repro.dlt.platform import BusNetwork

__all__ = ["DynamicsTrace", "best_response_bid", "best_response_dynamics"]


@dataclass(frozen=True)
class DynamicsTrace:
    """The bid-profile trajectory of one dynamics run."""

    profiles: tuple[tuple[float, ...], ...]

    @property
    def rounds(self) -> int:
        return len(self.profiles) - 1

    @property
    def converged(self) -> bool:
        if len(self.profiles) < 2:
            return False
        a = np.asarray(self.profiles[-1])
        b = np.asarray(self.profiles[-2])
        return bool(np.allclose(a, b, rtol=1e-9))

    def distance_to(self, target) -> float:
        """Max relative distance of the final profile from *target*."""
        final = np.asarray(self.profiles[-1])
        target = np.asarray(target, dtype=float)
        return float(np.max(np.abs(final - target) / target))


def best_response_bid(
    network_true: BusNetwork,
    i: int,
    current_bids: np.ndarray,
    grid,
) -> float:
    """Agent *i*'s utility-maximizing bid against *current_bids*.

    Utility is the verified-mechanism bonus with execution clamped at
    ``max(w_i, b_i)`` (overbidders drag their feet, underbidders are
    pinned at true speed).  Ties break toward the truthful bid.
    """
    w = network_true.w_array
    best_bid, best_u = None, -np.inf
    for factor in grid:
        b_i = float(factor) * w[i]
        bids = current_bids.copy()
        bids[i] = b_i
        net_bids = network_true.with_w(bids)
        w_exec_i = max(w[i], b_i)
        u = bonus(net_bids, i, w_exec_i)
        closer_to_truth = (best_bid is None
                           or abs(b_i - w[i]) < abs(best_bid - w[i]))
        if u > best_u + 1e-12 or (abs(u - best_u) <= 1e-12 and closer_to_truth):
            best_bid, best_u = b_i, u
    assert best_bid is not None
    return best_bid


def best_response_dynamics(
    network_true: BusNetwork,
    initial_factors,
    *,
    grid=(0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0),
    max_rounds: int = 10,
) -> DynamicsTrace:
    """Simultaneous best-response iteration from ``initial_factors * w``.

    Stops when the profile repeats or *max_rounds* is hit.
    """
    w = network_true.w_array
    bids = w * np.asarray(initial_factors, dtype=float)
    profiles = [tuple(float(x) for x in bids)]
    for _ in range(max_rounds):
        new_bids = np.array([
            best_response_bid(network_true, i, bids, grid)
            for i in range(network_true.m)
        ])
        profiles.append(tuple(float(x) for x in new_bids))
        if np.allclose(new_bids, bids, rtol=1e-12):
            break
        bids = new_bids
    return DynamicsTrace(tuple(profiles))
