"""E17 (extension) — long-run deterrence in a repeated market.

One engagement's fine (Section 4's F) translates into a lasting
earnings gap in a repeated market: the deviant forfeits an engagement
plus the fine while its peers pocket informer rewards.  This benchmark
runs an 8-job market — each job one ``repro.api.execute`` of an
``EngagementRequest`` on the same processors — where P2 deviates in
job 0, and plots the running cumulative utilities against the
all-honest counterfactual.
"""

from repro.analysis.reporting import format_table
from repro.api import EngagementRequest, execute

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.4
JOBS = 8


def run_market(deviate: bool) -> dict[str, list[float]]:
    """Running cumulative utility per processor after each job."""
    series: dict[str, list[float]] = {}
    for job in range(JOBS):
        deviants = ((1, "multiple-bids"),) if deviate and job == 0 else ()
        outcome = execute(EngagementRequest(w=W, z=Z,
                                            deviants=deviants)).outcome
        for name, utility in outcome["utilities"].items():
            running = series.setdefault(name, [])
            running.append((running[-1] if running else 0.0) + utility)
    return series


def test_long_run_deterrence(benchmark, report):
    cheat, honest = benchmark.pedantic(
        lambda: (run_market(True), run_market(False)), rounds=1, iterations=1)

    series_cheat = cheat["P2"]
    series_honest = honest["P2"]
    rows = [(j + 1, series_honest[j], series_cheat[j],
             series_honest[j] - series_cheat[j]) for j in range(JOBS)]
    report(format_table(
        ("jobs played", "P2 cumulative (honest)", "P2 cumulative "
         "(deviated job 1)", "gap"), rows,
        title="Long-run cost of one deviation (NCP-FE market, F = 2x "
              "compensation bill)"))

    # The gap never closes: later jobs are identical for both worlds.
    gaps = [r[3] for r in rows]
    assert all(abs(g - gaps[0]) < 1e-9 for g in gaps)
    assert gaps[0] > 0
    # And the informers stay ahead forever.
    for name in ("P1", "P3", "P4"):
        assert cheat[name][-1] > honest[name][-1]


def test_deviation_payback_horizon(benchmark, report):
    """How many honest jobs would the deviant need to break even if the
    market granted it extra work?  (It cannot — peers keep playing too —
    but the horizon expresses the fine in 'jobs of profit' units.)"""

    def compute():
        honest = run_market(False)["P2"]
        cheat = run_market(True)["P2"]
        per_job = honest[0]
        gap = honest[-1] - cheat[-1]
        return per_job, gap, gap / per_job

    per_job, gap, horizon = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert horizon > 5
    report(format_table(
        ("metric", "value"),
        [("per-job honest profit", per_job),
         ("one-deviation earnings gap", gap),
         ("payback horizon (jobs)", horizon)],
        title="The fine expressed in jobs of honest profit"))
