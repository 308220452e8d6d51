"""E7 — Theorems 3.2 / 5.3: voluntary participation.

Truthful, full-speed processors never end a mechanism run with negative
utility.  Swept over random instances for all three system models (the
DLT regime for NCP-NFE, any z for CP / NCP-FE), plus the payments-cover-
costs corollary: Q_i >= C_i.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.dls_bl import DLSBL
from repro.dlt.platform import NetworkKind

INSTANCES = 500


def sweep(seed=0, instances=INSTANCES):
    rng = np.random.default_rng(seed)
    min_utility = np.inf
    min_margin = np.inf  # Q_i - C_i
    negative = 0
    for _ in range(instances):
        m = int(rng.integers(2, 17))
        w = rng.uniform(1.0, 10.0, m)
        kind = list(NetworkKind)[int(rng.integers(3))]
        if kind is NetworkKind.NCP_NFE:
            z = float(rng.uniform(0.05, 0.8) * w.min())
        else:
            z = float(rng.uniform(0.05, 2.0))
        r = DLSBL(kind, z).truthful_run(w)
        u_min = min(r.utilities)
        min_utility = min(min_utility, u_min)
        if u_min < -1e-9:
            negative += 1
        min_margin = min(min_margin,
                         min(q - c for q, c in zip(r.payments, r.compensations)))
    return min_utility, min_margin, negative


def test_thm32_truthful_never_lose(benchmark, report):
    min_u, min_margin, negative = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert negative == 0
    assert min_u >= -1e-9
    assert min_margin >= -1e-9
    report(format_table(
        ("metric", "value"),
        [("random instances", INSTANCES),
         ("runs with a losing truthful agent", negative),
         ("minimum truthful utility observed", min_u),
         ("minimum payment margin Q_i - C_i", min_margin)],
        title="Theorem 3.2/5.3: voluntary participation over random instances"))


def test_thm32_utility_breakdown_example(benchmark, report):
    """One concrete instance, fully decomposed (the paper's Eq. 10-12)."""
    w = [2.0, 3.0, 5.0, 4.0]

    def run():
        return DLSBL(NetworkKind.NCP_FE, 0.5).truthful_run(w)

    r = benchmark(run)
    rows = [(f"P{i+1}", r.alpha[i], r.compensations[i], r.bonuses[i],
             r.payments[i], r.utilities[i]) for i in range(len(w))]
    report(format_table(
        ("proc", "alpha_i", "C_i", "B_i", "Q_i", "U_i"), rows,
        title=f"Truthful DLS-BL run (NCP-FE, w={w}, z=0.5); "
              f"user cost = {r.user_cost:.4f}"))
    assert all(u >= 0 for u in r.utilities)
