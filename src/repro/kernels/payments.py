"""Batched payment algebra: leave-one-out exclusions, bonuses, payments.

The hot object is ``excluded_makespans_batch``: the exclusion values
``T(alpha(b_{-i}), b_{-i})`` for **all m workers of all S scenarios**
with no Python loop over either axis.  It is the chain-splice algebra
of :mod:`repro.core.fast_exclusion` (which now delegates here with
``S = 1``), promoted to a grid:

* the middle removals ``j = 1 .. m-2`` are one fused array expression —
  the splice ratio ``r_j = k'_{j-1} / (k_{j-1} k_j)`` and the spliced
  weight sum ``S'_j = P_{j-1} + r_j (S - P_j)`` are computed for every
  ``(scenario, j)`` cell at once;
* the head, tail, NFE-penultimate and originator columns are written
  over the corresponding columns afterwards (each is itself a batched
  expression over the scenario axis);
* the originator's exclusion — the residual CP-distributor system —
  reuses the already-computed chain ratios: removing the FE originator
  (column 0) leaves the ratio columns ``k[:, 1:]``, removing the NFE
  originator (column m-1) leaves ``k[:, :m-2]``.

Expression order mirrors the scalar loop exactly, so row 0 of the
``S = 1`` case is bit-identical to the historical per-``j`` loop — the
property suite in ``tests/core/test_fast_exclusion.py`` and the digest
suite in ``tests/kernels/`` both pin this.

``bonus_vector_batch`` / ``payments_batch`` / ``utilities_batch``
mirror :mod:`repro.core.payments` (Eqs. 10-12) row-wise, including the
prefix/suffix running-maxima trick for the substituted realized
makespans.
"""

from __future__ import annotations

import numpy as np

from repro.dlt.platform import NetworkKind
from repro.kernels.closed_form import (
    _with_leading_ones,
    allocate_batch,
    as_grid,
    z_column,
)
from repro.kernels.timing import communication_finish_times_batch

__all__ = [
    "excluded_makespans_batch",
    "compensation_batch",
    "bonus_vector_batch",
    "payments_batch",
    "utilities_batch",
]


def excluded_makespans_batch(W, z, kind: NetworkKind) -> np.ndarray:
    """``T(alpha(b_{-i}), b_{-i})`` for every worker of every row.

    ``W`` is the ``(S, m)`` grid of bid vectors; returns ``(S, m)``.
    Semantics per row are identical to
    :func:`repro.core.payments.excluded_optimal_makespan` per index
    (the scalar naive reference), evaluated through the O(m) splice
    algebra.  Requires ``m >= 2``.
    """
    W = as_grid(W)
    S, m = W.shape
    if m < 2:
        raise ValueError("the mechanism requires m >= 2 workers")
    zc = z_column(z, S)

    # Chain ratios and weights of the full (receiving) system; NCP-NFE
    # replaces the last weight with the z-free coupling (Eq. 9).
    k = W[:, :-1] / (zc + W[:, 1:])                   # (S, m-1)
    u = _with_leading_ones(k.cumprod(axis=1))         # (S, m)
    if kind is NetworkKind.NCP_NFE:
        u[:, m - 1] = u[:, m - 2] * W[:, m - 2] / W[:, m - 1]
    P = u.cumsum(axis=1)                              # (S, m)
    total = P[:, -1]                                  # (S,)

    # First-worker completion coefficient of the full system: a
    # front-ended originator pays no reception delay, everyone else
    # pays z.  (Mirror of the scalar loop's head_coeff.)
    if kind is NetworkKind.NCP_FE:
        c1 = W[:, 0]
    else:
        c1 = (zc + W[:, :1])[:, 0]

    out = np.empty((S, m), dtype=float)

    # Middle removals j = 1 .. m-2: pure splice, one array expression.
    if m > 2:
        k_splice = W[:, : m - 2] / (zc + W[:, 2:])    # column j-1 <-> removal j
        r = k_splice / (k[:, :-1] * k[:, 1:])
        S_mid = P[:, : m - 2] + r * (total[:, None] - P[:, 1 : m - 1])
        out[:, 1 : m - 1] = c1[:, None] / S_mid

    # Tail removal j = m-1: the prefix sum is already the spliced total.
    out[:, m - 1] = c1 / P[:, m - 2]

    # Head removal j = 0: rescale the remaining chain by 1/u_2; the old
    # second worker now receives first.  An NFE originator left alone
    # holds its own data and simply computes it (no bus at all).
    if kind is NetworkKind.NCP_NFE and m == 2:
        out[:, 0] = W[:, 1]
    else:
        S_head = (total - u[:, 0]) / u[:, 1]
        out[:, 0] = ((zc + W[:, 1:2])[:, 0]) / S_head

    # NFE penultimate removal j = m-2 (m >= 3): splice directly onto the
    # originator's z-free coupling.
    if kind is NetworkKind.NCP_NFE and m > 2:
        S_pen = P[:, m - 3] + u[:, m - 3] * W[:, m - 3] / W[:, m - 1]
        out[:, m - 2] = c1 / S_pen

    # Originator removal (NCP kinds): the originator keeps distributing
    # and stops computing — the residual is the CP system over the
    # remaining workers, whose chain ratios are a slice of k.
    originator = kind.originator_index(m)
    if originator is not None:
        if originator == 0:                           # NCP-FE
            first = W[:, 1]
            k_cp = k[:, 1:]
        else:                                         # NCP-NFE, index m-1
            first = W[:, 0]
            k_cp = k[:, : m - 2]
        u_cp = _with_leading_ones(k_cp.cumprod(axis=1))
        out[:, originator] = ((zc + first[:, None])[:, 0]
                              / u_cp.sum(axis=1))
    return out


def compensation_batch(A, W_exec) -> np.ndarray:
    """``C_i = alpha_i * w~_i`` for every row (Eq. 11)."""
    return as_grid(A) * as_grid(W_exec)


def _others_running_max(T_base: np.ndarray) -> np.ndarray:
    """``max_{j != i} T_j`` per row via prefix/suffix running maxima."""
    S, m = T_base.shape
    prefix = np.maximum.accumulate(T_base, axis=1)
    suffix = np.maximum.accumulate(T_base[:, ::-1], axis=1)[:, ::-1]
    others = np.empty((S, m), dtype=float)
    others[:, 0] = suffix[:, 1] if m > 1 else -np.inf
    others[:, m - 1] = prefix[:, m - 2] if m > 1 else -np.inf
    if m > 2:
        others[:, 1 : m - 1] = np.maximum(prefix[:, : m - 2], suffix[:, 2:])
    return others


def bonus_vector_batch(W, z, kind: NetworkKind, W_exec, *,
                       A=None, excl=None) -> np.ndarray:
    """All bonuses ``B_1..B_m`` for every row (Eq. 12).

    ``A`` and ``excl`` accept precomputed allocation / exclusion grids
    so :func:`payments_batch` avoids re-solving.  Row-wise mirror of
    :func:`repro.core.payments.bonus_vector`.
    """
    W = as_grid(W)
    W_exec = as_grid(W_exec)
    if A is None:
        A = allocate_batch(W, z, kind)
    if excl is None:
        excl = excluded_makespans_batch(W, z, kind)
    ready = communication_finish_times_batch(A, z, kind)
    T_base = ready + A * W
    T_sub = ready + A * W_exec        # T_i with w~_i substituted
    realized = np.maximum(T_sub, _others_running_max(T_base))
    return excl - realized


def payments_batch(W, z, kind: NetworkKind, W_exec) -> np.ndarray:
    """``Q_i = C_i + B_i`` for every worker of every row (Eq. 12)."""
    W = as_grid(W)
    W_exec = as_grid(W_exec)
    A = allocate_batch(W, z, kind)
    return compensation_batch(A, W_exec) + bonus_vector_batch(
        W, z, kind, W_exec, A=A)


def utilities_batch(W, z, kind: NetworkKind, W_exec) -> np.ndarray:
    """``U_i = Q_i + V_i = B_i`` via the payment decomposition.

    Mirrors :func:`repro.core.payments.utilities` (payments plus the
    negated compensation, not a shortcut to the bonus) so the batch and
    scalar paths stay digest-interchangeable.
    """
    W = as_grid(W)
    W_exec = as_grid(W_exec)
    A = allocate_batch(W, z, kind)
    value = -compensation_batch(A, W_exec)
    return payments_batch(W, z, kind, W_exec) + value
