"""Finishing-time equations (1)-(3) and makespan evaluation.

The three system models share the one-port bus: fractions are shipped
back-to-back in allocation order, so the communication completion time
of ``P_i`` is a prefix sum of ``z * alpha_j`` terms.  What differs is
who pays which prefix:

* **CP** (Eq. 1): every worker receives its fraction from the control
  processor, so ``T_i = z * sum_{j<=i} alpha_j + alpha_i w_i``.
* **NCP-FE** (Eq. 2 / Figure 2): the originator ``P_1`` keeps its own
  fraction and starts computing at t = 0 (front end); transmissions
  begin with ``alpha_2``.  Hence ``T_1 = alpha_1 w_1`` and
  ``T_i = z * sum_{2<=j<=i} alpha_j + alpha_i w_i`` for ``i >= 2``.
  (The paper's transcription shows the sum from ``j = 1``; Figure 2 and
  recursion (7) pin down the ``j = 2`` start — see DESIGN.md.)
* **NCP-NFE** (Eq. 3 / Figure 3): the originator ``P_m`` has no front
  end; it transmits ``alpha_1 .. alpha_{m-1}`` and only then computes,
  so ``T_m = z * sum_{j<m} alpha_j + alpha_m w_m`` while the others pay
  their own reception prefix ``T_i = z * sum_{j<=i} alpha_j + alpha_i w_i``.

All functions accept an optional ``w_exec`` vector of *execution* values
(the observed per-unit times ``w~_i``), which may differ from the
network's scheduling values.  The mechanism with verification needs
exactly this: allocations are computed from bids but realized makespans
are evaluated at observed rates.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind

__all__ = [
    "communication_finish_times",
    "finish_times",
    "makespan",
    "optimal_makespan",
]


def _as_alpha(alpha, m: int) -> np.ndarray:
    arr = np.asarray(alpha, dtype=float)
    if arr.shape != (m,):
        raise ValueError(f"alpha must have shape ({m},), got {arr.shape}")
    if (arr < 0.0).any() or not np.isfinite(arr).all():
        raise ValueError(f"alpha must be finite and non-negative, got {arr}")
    return arr


def communication_finish_times(alpha, network: BusNetwork) -> np.ndarray:
    """Time at which each worker *holds* its fraction and may compute.

    For the originator (NCP systems) this is 0 for a front-ended
    originator and the end of all its transmissions for a non-front-ended
    one.  For every other worker it is the end of its own reception on
    the shared one-port bus.
    """
    alpha = _as_alpha(alpha, network.m)
    z, kind, m = network.z, network.kind, network.m
    prefix = z * alpha.cumsum()
    if kind is NetworkKind.CP:
        return prefix
    if kind is NetworkKind.NCP_FE:
        ready = prefix - z * alpha[0]  # transmissions start with alpha_2
        ready[0] = 0.0
        return ready
    # NCP_NFE: P_m transmits alpha_1..alpha_{m-1} then starts computing.
    ready = prefix.copy()
    ready[m - 1] = prefix[m - 2] if m >= 2 else 0.0
    return ready


def finish_times(alpha, network: BusNetwork, w_exec=None) -> np.ndarray:
    """Per-processor finishing times ``T_i`` (Eqs. 1-3).

    Parameters
    ----------
    alpha:
        Load fractions (need not be optimal or normalized; the equations
        hold for any feasible allocation).
    network:
        The instance; its ``w`` are used unless *w_exec* is given.
    w_exec:
        Optional per-unit *execution* times overriding ``network.w``
        processor-by-processor (mixed evaluation for the mechanism).
    """
    w = network.w_array if w_exec is None else np.asarray(w_exec, dtype=float)
    if w.shape != (network.m,):
        raise ValueError(f"w_exec must have shape ({network.m},), got {w.shape}")
    if (w <= 0.0).any() or not np.isfinite(w).all():
        raise ValueError(f"execution values must be positive and finite, got {w}")
    alpha = _as_alpha(alpha, network.m)
    return communication_finish_times(alpha, network) + alpha * w


def makespan(alpha, network: BusNetwork, w_exec=None) -> float:
    """Total execution time ``T(alpha) = max_i T_i(alpha)``."""
    return float(finish_times(alpha, network, w_exec).max())


def optimal_makespan(network: BusNetwork) -> float:
    """Makespan of the closed-form optimal allocation for *network*."""
    return makespan(allocate(network), network)
