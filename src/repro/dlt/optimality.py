"""Independent baselines certifying Theorem 2.1.

Theorem 2.1 states the optimal solution has every processor participate
and finish at the same instant.  The closed forms in
:mod:`repro.dlt.closed_form` are *derived* from that condition, so using
them to test it would be circular.  This module provides two independent
optimizers:

* :func:`lp_optimal_allocation` — the makespan minimization is a linear
  program (``T_i`` is linear in ``alpha``); we solve it exactly with
  :func:`scipy.optimize.linprog` (HiGHS).
* :func:`grid_refine_allocation` — a derivative-free projected search,
  deliberately naive, used as a second opinion in property tests.

Both must agree with the closed form to certify the reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import finish_times, makespan

__all__ = [
    "lp_optimal_allocation",
    "grid_refine_allocation",
    "simultaneous_finish_residual",
    "all_participate",
]


def _finish_time_matrix(network: BusNetwork) -> np.ndarray:
    """Matrix ``A`` with ``T(alpha) = A @ alpha`` (finishing times are linear).

    Row ``i`` encodes Eq. (1), (2) or (3): the communication prefix terms
    ``z`` for the fractions ``P_i`` waits on, plus ``w_i`` on the
    diagonal.
    """
    m, z, w = network.m, network.z, network.w_array
    A = np.zeros((m, m))
    lower = np.tril(np.ones((m, m)))
    if network.kind is NetworkKind.CP:
        A = z * lower
    elif network.kind is NetworkKind.NCP_FE:
        A = z * lower
        A[:, 0] = 0.0  # alpha_1 is never transmitted
        A[0, :] = 0.0  # P_1 waits on nothing
    else:  # NCP_NFE
        A = z * lower
        A[m - 1, m - 1] = 0.0  # P_m receives nothing; computes after sending
    A[np.arange(m), np.arange(m)] += w
    return A


def lp_optimal_allocation(network: BusNetwork) -> tuple[np.ndarray, float]:
    """Solve BUS-LINEAR-* exactly as an LP.

    Variables are ``(alpha_1..alpha_m, t)``; minimize ``t`` subject to
    ``A @ alpha - t <= 0``, ``sum(alpha) = 1`` and ``alpha >= 0``.

    Returns
    -------
    (alpha, t):
        The optimal allocation and its makespan.
    """
    from scipy.optimize import linprog

    m = network.m
    A = _finish_time_matrix(network)
    c = np.zeros(m + 1)
    c[-1] = 1.0
    A_ub = np.hstack([A, -np.ones((m, 1))])
    b_ub = np.zeros(m)
    A_eq = np.zeros((1, m + 1))
    A_eq[0, :m] = 1.0
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * m + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - HiGHS solves these trivially
        raise RuntimeError(f"LP solver failed: {res.message}")
    return res.x[:m], float(res.x[-1])


def grid_refine_allocation(
    network: BusNetwork,
    *,
    rounds: int = 60,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, float]:
    """Derivative-free second-opinion optimizer (coordinate perturbation).

    Starts from the uniform allocation and repeatedly moves load between
    the currently latest and earliest finishers, shrinking the step when
    no improvement is found.  Converges slowly but needs nothing beyond
    the finishing-time oracle, which makes it a genuinely independent
    check on both the LP and the closed form.
    """
    m = network.m
    alpha = np.full(m, 1.0 / m)
    best = makespan(alpha, network)
    step = 0.25
    rng = rng or np.random.default_rng(0)
    for _ in range(rounds):
        improved = False
        T = finish_times(alpha, network)
        order = np.argsort(T)
        donors = list(order[::-1][: max(1, m // 2)])
        takers = list(order[: max(1, m // 2)])
        for d in donors:
            for t in takers:
                if d == t or alpha[d] <= 0.0:
                    continue
                delta = min(step * alpha[d], alpha[d])
                cand = alpha.copy()
                cand[d] -= delta
                cand[t] += delta
                val = makespan(cand, network)
                if val < best - 1e-15:
                    alpha, best, improved = cand, val, True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return alpha, best


def simultaneous_finish_residual(alpha, network: BusNetwork) -> float:
    """Max pairwise spread of finishing times, normalized by makespan.

    Theorem 2.1 predicts 0 (up to float noise) at the optimum.
    """
    T = finish_times(alpha, network)
    span = float(np.max(T))
    if span <= 0.0:
        return 0.0
    return float((np.max(T) - np.min(T)) / span)


def all_participate(alpha, *, atol: float = 1e-12) -> bool:
    """Whether every processor receives strictly positive load."""
    return bool(np.all(np.asarray(alpha) > atol))
