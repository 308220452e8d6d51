"""E20 — robustness of the reproduced claims across workload families.

Every headline property (closed form = LP optimum, strategyproofness,
voluntary participation) re-verified on each named workload family, so
the reproduction is demonstrably not an artifact of the uniform
distribution used elsewhere in the harness.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.strategyproofness import agent_utility, best_response_bid_factor
from repro.analysis.workloads import family_names, generate
from repro.core.dls_bl import DLSBL
from repro.dlt.closed_form import allocate
from repro.dlt.optimality import lp_optimal_allocation
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import makespan

GRID = [0.6, 0.8, 1.0, 1.25, 1.6]


def verify_family(family: str, trials: int = 25, seed: int = 0):
    rng = np.random.default_rng(seed)
    worst_lp_gap = 0.0
    profitable = 0
    min_truthful_u = np.inf
    for _ in range(trials):
        m = int(rng.integers(2, 12))
        w = generate(family, m, rng)
        z = float(rng.uniform(0.05, 0.6) * w.min())
        kind = list(NetworkKind)[int(rng.integers(3))]
        net = BusNetwork(tuple(w), z, kind)
        t_cf = makespan(allocate(net), net)
        _, t_lp = lp_optimal_allocation(net)
        worst_lp_gap = max(worst_lp_gap, abs(t_cf - t_lp) / t_lp)
        r = DLSBL(kind, z).truthful_run(w)
        min_truthful_u = min(min_truthful_u, min(r.utilities))
        i = int(rng.integers(m))
        _, u_best = best_response_bid_factor(net, i, GRID)
        if u_best > agent_utility(net, i) + 1e-9:
            profitable += 1
    return worst_lp_gap, profitable, float(min_truthful_u)


def test_claims_hold_across_families(benchmark, report):
    def sweep():
        return {family: verify_family(family) for family in family_names()}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for family, (gap, profitable, min_u) in sorted(results.items()):
        rows.append((family, gap, profitable, min_u))
        assert gap < 1e-7, family
        assert profitable == 0, family
        assert min_u >= -1e-9, family
    report(format_table(
        ("workload family", "worst LP gap", "profitable misreports",
         "min truthful utility"), rows,
        title="Headline claims re-verified per workload family "
              "(25 random instances each, all three kinds)"))
