"""E21 (extension) — bus saturation: why more workers stop helping.

Regenerates the classic DLT diminishing-returns curve: optimal makespan
versus worker count on a homogeneous bus, converging to the saturation
limit (``z`` for CP/NCP-NFE, ``wz/(z+w)`` for NCP-FE).  The knee in
this curve is the quantitative motivation for the multiround and tree
extensions benchmarked in E11.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.dlt.bounds import saturation_limit, speedup
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import optimal_makespan

W, Z = 2.0, 0.5
MS = (1, 2, 4, 8, 16, 32, 64, 128)


def test_saturation_curve(benchmark, report):
    def sweep():
        rows = []
        limits = {k: saturation_limit(W, Z, k) for k in NetworkKind}
        for m in MS:
            row = [m]
            for kind in NetworkKind:
                row.append(optimal_makespan(BusNetwork((W,) * m, Z, kind)))
            rows.append(tuple(row))
        return limits, rows

    limits, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for col, kind in enumerate(NetworkKind, start=1):
        series = [r[col] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        assert series[-1] == pytest.approx(limits[kind], rel=1e-6)

    report(format_table(
        ("m", "T (CP)", "T (NCP-FE)", "T (NCP-NFE)"), rows,
        title=f"Saturation (homogeneous w={W}, z={Z}); limits: "
              f"CP/NFE -> {limits[NetworkKind.CP]:.4f}, "
              f"FE -> {limits[NetworkKind.NCP_FE]:.4f}"))


def test_speedup_caps(benchmark, report):
    def sweep():
        rows = []
        for kind in NetworkKind:
            s = speedup(BusNetwork((W,) * 256, Z, kind))
            lim = saturation_limit(W, Z, kind)
            baseline = (Z + W) if kind is NetworkKind.CP else W
            rows.append((kind.value, s, baseline / lim))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for kind_name, s, cap in rows:
        assert s <= cap + 1e-6
    report(format_table(
        ("kind", "speedup at m=256", "asymptotic cap"), rows,
        title="Speedup saturates: the bus, not the workers, is the "
              "binding resource at scale"))
