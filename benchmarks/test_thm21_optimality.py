"""E4 — Theorem 2.1: the closed forms are optimal; all processors
participate and finish simultaneously.

Certified against the independent LP baseline (HiGHS) over random
instances in the DLT regime, for all three system models, and the
regime boundary for NCP-NFE is reported explicitly (see DESIGN.md).
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.dlt.closed_form import allocate
from repro.dlt.optimality import (
    all_participate,
    lp_optimal_allocation,
    simultaneous_finish_residual,
)
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import makespan

INSTANCES = 200


def run_certification(seed=0, instances=INSTANCES):
    rng = np.random.default_rng(seed)
    worst_gap = 0.0
    worst_residual = 0.0
    per_kind = {k: 0 for k in NetworkKind}
    for _ in range(instances):
        m = int(rng.integers(2, 33))
        kind = list(NetworkKind)[int(rng.integers(3))]
        w = rng.uniform(1.0, 10.0, m)
        z = float(rng.uniform(0.05, 0.8) * w.min())  # DLT regime
        net = BusNetwork(tuple(w), z, kind)
        alpha = allocate(net)
        t_cf = makespan(alpha, net)
        _, t_lp = lp_optimal_allocation(net)
        worst_gap = max(worst_gap, abs(t_cf - t_lp) / t_lp)
        worst_residual = max(worst_residual,
                             simultaneous_finish_residual(alpha, net))
        assert all_participate(alpha)
        per_kind[kind] += 1
    return worst_gap, worst_residual, per_kind


def test_thm21_closed_form_is_lp_optimal(benchmark, report):
    worst_gap, worst_residual, per_kind = benchmark.pedantic(
        run_certification, rounds=1, iterations=1)
    assert worst_gap < 1e-7
    assert worst_residual < 1e-9
    report(format_table(
        ("metric", "value"),
        [("instances", INSTANCES),
         ("instances per kind", str({k.value: v for k, v in per_kind.items()})),
         ("worst |T_cf - T_lp| / T_lp", worst_gap),
         ("worst finish-time spread / T", worst_residual)],
        title="Theorem 2.1: closed form vs LP optimum (m in [2,32], DLT regime)"))


def test_thm21_nfe_regime_boundary(benchmark, report):
    """Where Algorithm 2.2 stops being optimal: z crossing w_m."""

    def sweep():
        rows = []
        w = (1.0, 1.0)
        for z in (0.25, 0.5, 0.9, 1.0, 1.5, 2.0):
            net = BusNetwork(w, z, NetworkKind.NCP_NFE)
            t_cf = makespan(allocate(net), net)
            _, t_lp = lp_optimal_allocation(net)
            rows.append((z, t_cf, t_lp, "yes" if abs(t_cf - t_lp) < 1e-9 else "NO"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(format_table(
        ("z", "closed form T", "LP optimum T", "closed form optimal?"), rows,
        title="NCP-NFE regime boundary (w = (1, 1)); Algorithm 2.2 is optimal iff z < w_m"))
    in_regime = [r for r in rows if r[0] < 1.0]
    out_regime = [r for r in rows if r[0] > 1.0]
    assert all(r[3] == "yes" for r in in_regime)
    assert all(r[3] == "NO" for r in out_regime)
