"""E13 (ablation) — coalition manipulation: where strategyproofness ends.

Theorem 3.1 is an *individual* guarantee.  This ablation quantifies the
mechanism's exposure to coalitions with side payments: for every pair
of agents, grid-search joint bid deviations and report the best gain.
The characteristic pattern — a partner overbids to inflate the other's
exclusion term ``T(alpha(b_{-i}), b_{-i})`` — motivates the authors'
follow-up line on coalitional divisible-load scheduling.
"""

from repro.analysis.coalitions import coalition_sweep
from repro.analysis.reporting import format_table
from repro.dlt.platform import BusNetwork, NetworkKind

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.4
GRID = (0.75, 1.0, 1.25, 1.5, 2.0)


def test_pairs_can_profit_singletons_cannot(benchmark, report):
    def sweep():
        net = BusNetwork(W, Z, NetworkKind.CP)
        singles = coalition_sweep(net, size=1, grid=GRID)
        pairs = coalition_sweep(net, size=2, grid=GRID)
        return singles, pairs

    singles, pairs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(not r.profitable for r in singles)     # Theorem 3.1
    assert any(r.profitable for r in pairs)           # not group-SP

    report(format_table(
        ("coalition", "best joint bid factors", "joint gain", "profitable"),
        [(str(tuple(f"P{i+1}" for i in r.members)), str(r.best_factors),
          r.gain, "yes" if r.profitable else "no") for r in pairs],
        title=f"Pairwise coalition deviations (CP, w={list(W)}, z={Z}); "
              "individual deviations all unprofitable"))


def test_coalition_exposure_across_kinds(benchmark, report):
    def sweep():
        rows = []
        for kind in NetworkKind:
            net = BusNetwork(W, Z, kind)
            pairs = coalition_sweep(net, size=2, grid=GRID)
            best = max(pairs, key=lambda r: r.gain)
            rows.append((kind.value,
                         sum(1 for r in pairs if r.profitable), len(pairs),
                         best.gain,
                         str(tuple(f"P{i+1}" for i in best.members))))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(format_table(
        ("kind", "profitable pairs", "total pairs", "max joint gain",
         "best coalition"), rows,
        title="Coalition exposure per system model (ablation; the paper "
              "claims only individual strategyproofness)"))
    assert any(r[1] > 0 for r in rows)
