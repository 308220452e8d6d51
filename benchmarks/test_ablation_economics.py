"""E15 (ablation) — the price of truthfulness.

The user pays compensation (bare cost) plus bonuses (each processor's
marginal contribution) — the premium that buys strategyproofness.  This
ablation quantifies the premium: it decays toward zero as the system
grows (marginal contributions shrink) and varies with the communication
rate.  The practical upshot for adopters: incentive compatibility is
nearly free on large clusters.
"""

import numpy as np

from repro.analysis.economics import overpayment_sweep, user_cost_breakdown
from repro.analysis.reporting import format_table
from repro.dlt.platform import NetworkKind


def test_premium_vs_system_size(benchmark, report):
    ms = (2, 4, 8, 16, 32)
    rows = benchmark.pedantic(overpayment_sweep, args=(ms,),
                              kwargs={"trials": 20}, rounds=1, iterations=1)
    means = [r[1] for r in rows]
    assert means[-1] < means[0]          # premium decays with m
    assert all(m >= 1.0 - 1e-12 for m in means)
    report(format_table(
        ("m", "mean sum(Q)/sum(C)", "max sum(Q)/sum(C)"), rows,
        title="Price of truthfulness vs system size (CP, z=0.2, 20 trials "
              "each): the premium decays as marginal contributions shrink"))


def test_premium_vs_communication_rate(benchmark, report):
    def sweep():
        rng = np.random.default_rng(4)
        w = rng.uniform(1.0, 10.0, 8)
        rows = []
        for z in (0.05, 0.1, 0.2, 0.4, 0.8):
            bd = user_cost_breakdown(w, NetworkKind.CP, z)
            rows.append((z, bd.compensation_total, bd.bonus_total,
                         bd.overpayment_ratio))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(format_table(
        ("z", "compensation total", "bonus total", "sum(Q)/sum(C)"), rows,
        title="Cost decomposition vs communication rate (m=8, CP)"))
    assert all(r[3] >= 1.0 - 1e-12 for r in rows)


def test_premium_across_kinds(benchmark, report):
    def sweep():
        rng = np.random.default_rng(6)
        w = rng.uniform(1.0, 10.0, 8)
        z = 0.2
        return [(k.value, user_cost_breakdown(w, k, z).overpayment_ratio)
                for k in NetworkKind]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(format_table(("kind", "sum(Q)/sum(C)"), rows,
                        title="Truthfulness premium per system model (m=8)"))
    assert all(r[1] >= 1.0 - 1e-12 for r in rows)
