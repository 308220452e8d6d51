"""Closed-form optimal allocations for the three bus-network problems.

These are Algorithms 2.1 (BUS-LINEAR-NCP-FE) and 2.2 (BUS-LINEAR-NCP-NFE)
of the paper, plus the analogous solver for BUS-LINEAR-CP from the DLT
reference book.  All three come from the same principle (Theorem 2.1):
the makespan is minimized exactly when every participating processor
finishes at the same instant, which collapses the optimization into a
chain of two-term recursions plus the normalization ``sum(alpha) = 1``.

Recursions
----------
CP and NCP-FE share the recursion (Eq. 7)::

    alpha_i * w_i = alpha_{i+1} * (z + w_{i+1}),   i = 1 .. m-1

so their optimal *fractions* coincide; only the finishing times differ
(the CP originator also pays ``z * alpha_1`` to ship the first fraction,
whereas the NCP-FE originator already holds its fraction).

NCP-NFE replaces the last link (Eqs. 8-9)::

    alpha_i * w_i     = alpha_{i+1} * (z + w_{i+1}),   i = 1 .. m-2
    alpha_{m-1} * w_{m-1} = alpha_m * w_m

because the originator ``P_m`` receives nothing over the bus — it simply
starts computing once all transmissions are done, at the same bus-time
offset as ``P_{m-1}``'s reception.

Regime note
-----------
The NCP-NFE recursions presuppose that distributing load beats the
originator computing it all, which requires ``z < w_m`` (the classical
DLT regime of cheap communication).  Outside it Algorithm 2.2's interior
equal-finish point is a stationary point but *not* the optimum — the LP
baseline in :mod:`repro.dlt.optimality` exposes the boundary, and the
mechanism-level consequences are documented in DESIGN.md §3.5.

Implementation notes
--------------------
Everything is vectorized: the ratios ``k_j`` are formed in one shot and
chained with :func:`numpy.cumprod`, so a single allocation for ``m``
processors is O(m) time and memory with no Python-level loop.  For very
heterogeneous instances the cumulative products can underflow to zero
long before ``float64`` loses the *normalized* answer; we therefore
re-normalize at the end rather than trusting the textbook ``alpha_1``
formula alone, which keeps ``sum(alpha) == 1`` to machine precision.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.platform import BusNetwork, NetworkKind, validate_positive

__all__ = [
    "allocate",
    "allocate_cp",
    "allocate_ncp_fe",
    "allocate_ncp_nfe",
    "chain_ratios",
]


def chain_ratios(w: np.ndarray, z: float) -> np.ndarray:
    """The ratios ``k_j = w_j / (z + w_{j+1})`` for ``j = 1 .. len(w)-1``.

    ``k_j`` is the factor linking consecutive optimal fractions,
    ``alpha_{j+1} = k_j * alpha_j``, under the simultaneous-finish
    condition with communication cost ``z`` (Algorithm 2.1 step 1).
    Returns an empty array for a single processor.
    """
    if len(w) < 2:
        return np.empty(0, dtype=float)
    return w[:-1] / (z + w[1:])


def _normalized(weights: np.ndarray) -> np.ndarray:
    """Scale non-negative *weights* so they sum to one.

    The weights are relative fractions ``alpha_i / alpha_1``; dividing by
    their sum implements the normalization steps of Algorithms 2.1/2.2
    in a numerically robust way (no separate ``alpha_1`` formula that
    could disagree with the chain products in the last ulp).
    """
    total = float(weights.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise ArithmeticError(
            f"degenerate chain weights (sum={total}); instance too extreme for float64")
    return weights / total


def allocate_ncp_fe(w, z: float) -> np.ndarray:
    """Algorithm 2.1: optimal fractions for BUS-LINEAR-NCP-FE.

    Parameters
    ----------
    w:
        Per-unit processing times ``w_1 .. w_m`` in allocation order
        (``P_1`` is the front-ended load originator).
    z:
        Per-unit bus communication time.

    Returns
    -------
    numpy.ndarray
        ``alpha`` with ``alpha.sum() == 1`` and ``alpha > 0``, such that
        all processors finish simultaneously under Eq. (2).
    """
    w = validate_positive(w, "w")
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    return _ncp_fe_core(w, z)


def _ncp_fe_core(w: np.ndarray, z: float) -> np.ndarray:
    """Algorithm 2.1 body, inputs pre-validated (see :func:`allocate`)."""
    k = chain_ratios(w, z)
    # weights = (1, k1, k1*k2, ..., prod_{j<m} k_j) = alpha_i / alpha_1
    weights = np.concatenate(([1.0], k.cumprod()))
    return _normalized(weights)


def allocate_cp(w, z: float) -> np.ndarray:
    """Optimal fractions for BUS-LINEAR-CP (control-processor system).

    The simultaneous-finish recursion is identical to the NCP-FE one
    (Eq. 7 applies between every pair of consecutive workers because the
    control processor ships fractions back-to-back), so the fractions
    coincide with :func:`allocate_ncp_fe`; the finishing times do not
    (every worker, including ``P_1``, pays its communication delay).
    """
    return allocate_ncp_fe(w, z)


def allocate_ncp_nfe(w, z: float) -> np.ndarray:
    """Algorithm 2.2: optimal fractions for BUS-LINEAR-NCP-NFE.

    ``P_m`` (the last processor) is the originator and has no front end:
    it computes only after transmitting ``alpha_1 .. alpha_{m-1}``, which
    couples it to ``P_{m-1}`` through ``alpha_{m-1} w_{m-1} = alpha_m w_m``
    instead of the usual ``z``-bearing recursion.
    """
    w = validate_positive(w, "w")
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    return _ncp_nfe_core(w, z)


def _ncp_nfe_core(w: np.ndarray, z: float) -> np.ndarray:
    """Algorithm 2.2 body, inputs pre-validated (see :func:`allocate`)."""
    m = len(w)
    if m == 1:
        return np.ones(1)
    # Ratios k_1 .. k_{m-2} chain P_1 .. P_{m-1}; the originator P_m is
    # attached through the z-free condition alpha_m = (w_{m-1}/w_m) alpha_{m-1}.
    k = chain_ratios(w[:-1], z)  # length m-2 (empty when m == 2)
    head = np.concatenate(([1.0], k.cumprod()))  # alpha_1..alpha_{m-1} over alpha_1
    tail = head[-1] * (w[-2] / w[-1])              # alpha_m over alpha_1
    return _normalized(np.concatenate((head, [tail])))


_DISPATCH = {
    NetworkKind.CP: allocate_cp,
    NetworkKind.NCP_FE: allocate_ncp_fe,
    NetworkKind.NCP_NFE: allocate_ncp_nfe,
}

# A BusNetwork validated w and z at construction, so dispatching on one
# goes straight to the algorithm cores — re-running validate_positive on
# every solve used to cost the m=512 allocation kernel a quarter of its
# runtime.
_CORE_DISPATCH = {
    NetworkKind.CP: _ncp_fe_core,
    NetworkKind.NCP_FE: _ncp_fe_core,
    NetworkKind.NCP_NFE: _ncp_nfe_core,
}


def allocate(network: BusNetwork) -> np.ndarray:
    """Optimal load fractions for *network* (dispatch on its kind)."""
    return _CORE_DISPATCH[network.kind](network.w_array, network.z)
