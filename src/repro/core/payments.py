"""Compensation-and-bonus payments (Section 3, Eqs. 10-12).

The mechanism with verification observes each processor's *execution
value* ``w~_i = phi_i / alpha_i`` after the work completes and pays

.. math::

    Q_i(b, w~) = C_i(b, w~) + B_i(b, w~)

with the **compensation** ``C_i = alpha_i(b) * w~_i`` (exactly
reimbursing the observed processing cost) and the **bonus**

.. math::

    B_i = T(alpha(b_{-i}), b_{-i}) - T(alpha(b), (b_{-i}, w~_i))

— the processor's marginal contribution to reducing the total execution
time: the optimal makespan had it not participated, minus the makespan
actually realized with its (possibly degraded) execution folded in.

Since the valuation is ``V_i = -alpha_i w~_i`` (the cost incurred), the
utility collapses to ``U_i = Q_i + V_i = B_i``: the entire strategic
content of the mechanism lives in the bonus.  Strategyproofness
(Theorem 3.1) follows because, with ``w~_i >= w_i`` physically forced,
the realized makespan term is minimized by bidding ``b_i = w_i`` and
executing flat out; voluntary participation (Theorem 3.2) because an
extra truthful processor can only shrink the optimal makespan.

The exclusion term ``T(alpha(b_{-i}), b_{-i})`` needs care on NCP
networks: the load-originator role is *positional* (first worker for
NCP-FE, last for NCP-NFE), so removing a worker re-assigns the role to
the remaining worker in that position — see
:meth:`repro.dlt.platform.BusNetwork.without`.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import makespan

__all__ = [
    "compensation",
    "excluded_optimal_makespan",
    "bonus",
    "bonus_vector",
    "payments",
    "utilities",
]


def _validate(network: BusNetwork, vec, name: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if arr.shape != (network.m,):
        raise ValueError(f"{name} must have shape ({network.m},), got {arr.shape}")
    if (arr <= 0).any() or not np.isfinite(arr).all():
        raise ValueError(f"{name} must be positive and finite, got {arr}")
    return arr


def compensation(alpha, w_exec) -> np.ndarray:
    """``C_i = alpha_i * w~_i``: reimbursement of the observed cost."""
    alpha = np.asarray(alpha, dtype=float)
    w_exec = np.asarray(w_exec, dtype=float)
    return alpha * w_exec


def excluded_optimal_makespan(network_bids: BusNetwork, i: int) -> float:
    """``T(alpha(b_{-i}), b_{-i})``: optimal makespan without worker *i*.

    Requires at least two workers (the mechanism is defined for m >= 2;
    with a single worker, non-participation leaves the job unschedulable
    and the bonus base is undefined).

    Non-participation of the **load-originating** processor needs care
    on NCP networks: the load physically resides at the originator, so
    "P_lo does not participate" removes its *processing* capacity, not
    its distribution role — the residual system is a bus with a pure
    distributor, i.e. exactly the CP model over the remaining workers.
    (Naively deleting the originator would promote another processor
    into the privileged zero-communication slot, which can *shrink* the
    makespan and hand a truthful originator a negative bonus, breaking
    Theorem 3.2.  See DESIGN.md.)
    """
    if network_bids.m < 2:
        raise ValueError("the mechanism requires m >= 2 workers")
    if i == network_bids.originator_index:
        reduced = BusNetwork(
            tuple(w for j, w in enumerate(network_bids.w) if j != i),
            network_bids.z,
            NetworkKind.CP,
            tuple(n for j, n in enumerate(network_bids.names) if j != i),
        )
    else:
        reduced = network_bids.without(i)
    return makespan(allocate(reduced), reduced)


def bonus(network_bids: BusNetwork, i: int, w_exec_i: float, alpha=None) -> float:
    """``B_i`` for worker *i* given everyone's bids and *i*'s observed rate.

    Parameters
    ----------
    network_bids:
        The network parameterized by the *bids* ``b`` (allocation basis).
    i:
        Worker index.
    w_exec_i:
        Observed execution value ``w~_i``.
    alpha:
        Optional precomputed ``alpha(b)`` to avoid re-solving in sweeps.
    """
    if alpha is None:
        alpha = allocate(network_bids)
    mixed = np.asarray(network_bids.w, dtype=float).copy()
    if not np.isfinite(w_exec_i) or w_exec_i <= 0:
        raise ValueError(f"w_exec_i must be positive and finite, got {w_exec_i}")
    mixed[i] = w_exec_i
    realized = makespan(alpha, network_bids, w_exec=mixed)
    return excluded_optimal_makespan(network_bids, i) - realized


def bonus_vector(network_bids: BusNetwork, w_exec) -> np.ndarray:
    """All bonuses ``B_1..B_m``.

    Note the per-*i* evaluation substitutes only ``w~_i`` into the
    realized-makespan term (Eq. 12 is per-agent: each bonus compares
    against the schedule with *that agent's* observed value and the
    others at their bids).

    Hot path: both terms are computed for every agent in one O(m) pass
    (:mod:`repro.core.fast_exclusion` for the exclusion values;
    prefix/suffix maxima for the substituted realized makespans —
    substituting ``w~_i`` only moves finishing time *i*, so
    ``T_realized(i) = max(T_i', max_{j != i} T_j)``).  The naive
    per-agent :func:`bonus` is kept as the reference implementation and
    cross-checked by property tests.
    """
    w_exec = _validate(network_bids, w_exec, "w_exec")
    return _bonus_vector(network_bids, w_exec, allocate(network_bids))


def _bonus_vector(network_bids: BusNetwork, w_exec: np.ndarray,
                  alpha: np.ndarray) -> np.ndarray:
    """:func:`bonus_vector` for a validated *w_exec* and ``alpha(b)``."""
    from repro.core.fast_exclusion import all_excluded_optimal_makespans
    from repro.dlt.timing import communication_finish_times

    excl = all_excluded_optimal_makespans(network_bids)
    ready = communication_finish_times(alpha, network_bids)
    # finish_times(alpha, network_bids), without a second prefix pass
    T_base = ready + alpha * network_bids.w_array
    T_sub = ready + alpha * w_exec  # T_i with w~_i substituted
    m = network_bids.m
    # max of T_base excluding index i, via prefix/suffix running maxima
    prefix = np.maximum.accumulate(T_base)
    suffix = np.maximum.accumulate(T_base[::-1])[::-1]
    others = np.empty(m)
    others[0] = suffix[1] if m > 1 else -np.inf
    others[m - 1] = prefix[m - 2] if m > 1 else -np.inf
    if m > 2:
        others[1 : m - 1] = np.maximum(prefix[: m - 2], suffix[2:])
    realized = np.maximum(T_sub, others)
    return excl - realized


def payments(network_bids: BusNetwork, w_exec) -> np.ndarray:
    """``Q_i = C_i + B_i`` for every worker (Eq. 12).

    Validates *w_exec* and solves ``alpha(b)`` once for both terms.
    """
    w_exec = _validate(network_bids, w_exec, "w_exec")
    alpha = allocate(network_bids)
    return (compensation(alpha, w_exec)
            + _bonus_vector(network_bids, w_exec, alpha))


def utilities(network_bids: BusNetwork, w_exec) -> np.ndarray:
    """``U_i = Q_i + V_i = B_i`` (Eq. 10 with Eq. 11 substituted).

    Returned via the payment decomposition rather than shortcutting to
    ``bonus_vector`` so that tests can assert the algebraic identity.
    """
    w_exec = _validate(network_bids, w_exec, "w_exec")
    alpha = allocate(network_bids)
    value = -compensation(alpha, w_exec)
    return payments(network_bids, w_exec) + value
