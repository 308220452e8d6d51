"""E14 (ablation) — affine overheads: where full participation breaks.

The paper's linear cost model makes Theorem 2.1 ("all processors
participate") unconditional (in the DLT regime).  Real systems pay
startup latencies; this ablation adds affine costs and regenerates the
classic participation knee: the optimal cohort size grows with the load
volume and shrinks with the communication startup ``s_c``.
"""

from repro.analysis.reporting import format_table
from repro.dlt.affine import AffineBus, optimal_cohort

M = 8
W = (1.0,) * M
Z = 0.2


def test_cohort_vs_load(benchmark, report):
    def sweep():
        rows = []
        for load in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0):
            bus = AffineBus(W, Z, s_c=0.3, s_p=0.1, load=load)
            size, _, t = optimal_cohort(bus)
            rows.append((load, size, t, t / load))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = [r[1] for r in rows]
    assert sizes == sorted(sizes)          # cohort grows with load
    assert sizes[0] < M <= sizes[-1] + 1   # knee actually visible
    report(format_table(
        ("load L", "optimal cohort", "makespan", "makespan / unit load"),
        rows,
        title=f"Participation knee (m={M}, s_c=0.3, s_p=0.1): small loads "
              "cannot amortize startups"))


def test_cohort_vs_startup(benchmark, report):
    def sweep():
        rows = []
        for s_c in (0.0, 0.05, 0.1, 0.3, 0.6, 1.2):
            bus = AffineBus(W, Z, s_c=s_c, s_p=0.1, load=1.0)
            size, _, t = optimal_cohort(bus)
            rows.append((s_c, size, t))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    sizes = [r[1] for r in rows]
    assert sizes == sorted(sizes, reverse=True)  # cohort shrinks with s_c
    assert sizes[0] == M                          # linear model: everyone
    report(format_table(
        ("comm startup s_c", "optimal cohort", "makespan"), rows,
        title="Cohort vs communication startup (L=1): s_c=0 recovers "
              "Theorem 2.1's full participation"))
