"""E5 — Theorem 2.2: any allocation order is optimal on bus networks.

Exhaustively permutes the receiving processors (the originator slot is
positional) and reports the makespan per order: the spread must vanish.
A star-network contrast shows the invariance is a bus phenomenon.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.dlt.architectures import StarNetwork, star_best_order
from repro.dlt.platform import BusNetwork, NetworkKind, random_network
from repro.dlt.sequencing import makespan_by_order, makespan_spread

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.6


def exhaustive_rows(kind):
    net = BusNetwork(W, Z, kind)
    return makespan_by_order(net, limit=None)


def test_thm22_exhaustive_small(benchmark, report):
    all_rows = benchmark.pedantic(
        lambda: {k: exhaustive_rows(k) for k in NetworkKind},
        rounds=1, iterations=1)
    for kind, rows in all_rows.items():
        values = [t for _, t in rows]
        assert max(values) - min(values) <= 1e-9 * max(values), kind
    sample = all_rows[NetworkKind.CP][:6]
    report(format_table(
        ("order", "optimal makespan"),
        [(str(o), t) for o, t in sample],
        title=f"Theorem 2.2 (CP, first 6 of {len(all_rows[NetworkKind.CP])} orders): "
              f"identical makespan"))
    report(format_table(
        ("kind", "orders checked", "relative spread"),
        [(k.value, len(rows),
          (max(t for _, t in rows) - min(t for _, t in rows))
          / max(t for _, t in rows))
         for k, rows in all_rows.items()]))


def test_thm22_sampled_larger_m(benchmark, report):
    def spread_sweep():
        rng = np.random.default_rng(7)
        rows = []
        for m in (6, 8, 10):
            for kind in NetworkKind:
                net = random_network(m, kind, rng, z=0.4)
                rows.append((m, kind.value, makespan_spread(net, limit=48)))
        return rows

    rows = benchmark.pedantic(spread_sweep, rounds=1, iterations=1)
    assert all(r[2] < 1e-9 for r in rows)
    report(format_table(("m", "kind", "relative spread over 48 orders"), rows,
                        title="Theorem 2.2 at larger m (sampled orders)"))


def test_thm22_fails_on_heterogeneous_star(benchmark, report):
    """Contrast: with per-link z_i the order matters (bus-only theorem)."""

    def contrast():
        star = StarNetwork((2.0, 3.0, 2.5, 4.0), (2.0, 0.2, 0.9, 0.4))
        return star_best_order(star)

    order, best, worst = benchmark.pedantic(contrast, rounds=1, iterations=1)
    assert worst > best * 1.01
    report(format_table(
        ("metric", "value"),
        [("best order", str(order)), ("best makespan", best),
         ("worst makespan", worst), ("worst / best", worst / best)],
        title="Star network with heterogeneous links: order invariance FAILS "
              "(expected; Theorem 2.2 is specific to buses)"))
