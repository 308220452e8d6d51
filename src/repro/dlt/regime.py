"""DLT regime diagnostics.

Several guarantees in this library are conditional on the classical
DLT regime of cheap communication (DESIGN.md §3.5): Algorithm 2.2's
optimality and, through it, NCP-NFE voluntary participation and
bid-space dominance.  This module gives adopters a first-class way to
*check* an instance instead of discovering the boundary in production:

* :func:`nfe_in_regime` — the sharp analytic condition ``z < w_m``
  (participation of the last chain link is beneficial iff shipping a
  marginal unit costs less than the originator computing it);
* :func:`regime_margin` — signed distance to the boundary, normalized;
* :func:`participation_is_optimal` — the ground-truth LP check: does
  the closed form attain the true optimum for this exact instance?
* :func:`diagnose` — one-call report combining all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dlt.closed_form import allocate
from repro.dlt.optimality import lp_optimal_allocation
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import makespan

__all__ = [
    "nfe_in_regime",
    "regime_margin",
    "participation_is_optimal",
    "RegimeReport",
    "diagnose",
]


def nfe_in_regime(network: BusNetwork) -> bool:
    """Analytic regime check.

    CP and NCP-FE are regime-free (their closed forms are globally
    optimal at any ``z``); NCP-NFE requires ``z < w_m``.
    """
    if network.kind is not NetworkKind.NCP_NFE:
        return True
    return network.z < network.w[-1]


def regime_margin(network: BusNetwork) -> float:
    """Signed, normalized distance to the regime boundary.

    Positive = inside the regime, negative = outside; for CP/NCP-FE the
    margin is ``+inf`` (no boundary).  Defined as
    ``(w_m - z) / w_m`` so that 1.0 means communication is free and 0
    is the boundary itself.
    """
    if network.kind is not NetworkKind.NCP_NFE:
        return float("inf")
    return (network.w[-1] - network.z) / network.w[-1]


def participation_is_optimal(network: BusNetwork, *, rtol: float = 1e-9) -> bool:
    """Ground truth: does the closed form attain the LP optimum here?"""
    t_cf = makespan(allocate(network), network)
    _, t_lp = lp_optimal_allocation(network)
    return bool(t_cf <= t_lp * (1.0 + rtol))


@dataclass(frozen=True)
class RegimeReport:
    """One-call diagnostic for an instance."""

    kind: NetworkKind
    in_regime: bool
    margin: float
    closed_form_optimal: bool
    closed_form_makespan: float
    lp_makespan: float

    @property
    def gap(self) -> float:
        """Relative excess of the closed form over the true optimum."""
        return (self.closed_form_makespan - self.lp_makespan) / self.lp_makespan

    @property
    def mechanism_guarantees_hold(self) -> bool:
        """Whether the strategyproofness/participation theorems apply
        unconditionally to this instance's true values."""
        return self.in_regime and self.closed_form_optimal


def diagnose(network: BusNetwork) -> RegimeReport:
    """Full regime diagnostic for *network*."""
    t_cf = makespan(allocate(network), network)
    _, t_lp = lp_optimal_allocation(network)
    return RegimeReport(
        kind=network.kind,
        in_regime=nfe_in_regime(network),
        margin=regime_margin(network),
        closed_form_optimal=bool(t_cf <= t_lp * (1.0 + 1e-9)),
        closed_form_makespan=float(t_cf),
        lp_makespan=float(t_lp),
    )
