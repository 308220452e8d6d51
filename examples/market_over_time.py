#!/usr/bin/env python3
"""A compute market over many jobs: why one deviation never pays.

The single-engagement analysis says a deviant is fined more than it can
gain.  This example runs the market for a season — 10 jobs — in two
parallel worlds (P2 cheats once in job 1 vs. P2 stays honest) and plots
the cumulative earnings race.  The fine turns into a permanent gap that
honest jobs can never close, while the informers bank their rewards.

Run:  python examples/market_over_time.py
"""

from repro.analysis.reporting import format_table
from repro.api import EngagementRequest, execute

W = [2.0, 3.0, 5.0, 4.0]
Z = 0.4
JOBS = 10


def run_world(deviate_in_job: int | None) -> dict[str, list[float]]:
    """Each processor's cumulative utility after each job; P2 cheats
    (equivocates in bidding) in job *deviate_in_job* only."""
    series: dict[str, list[float]] = {}
    for job in range(JOBS):
        deviants = ((1, "multiple-bids"),) if job == deviate_in_job else ()
        outcome = execute(EngagementRequest(w=tuple(W), z=Z,
                                            deviants=deviants)).outcome
        for name, utility in outcome["utilities"].items():
            running = series.setdefault(name, [])
            running.append((running[-1] if running else 0.0) + utility)
    return series


def sparkline(series, lo, hi, width=32) -> str:
    cells = " .:-=+*#%@"
    span = hi - lo or 1.0
    return "".join(cells[min(9, int((v - lo) / span * 9.99))] for v in series)


def main() -> None:
    honest = run_world(None)
    cheat = run_world(0)

    print(f"Market: w={W}, z={Z}, {JOBS} jobs, F = 2x compensation bill\n")

    rows = []
    for j in range(JOBS):
        rows.append((
            j + 1,
            round(honest["P2"][j], 3),
            round(cheat["P2"][j], 3),
            round(cheat["P1"][j], 3),
        ))
    print(format_table(
        ("after job", "P2 cumulative (honest world)",
         "P2 cumulative (cheated job 1)", "P1 cumulative (informer)"),
        rows,
        title="Cumulative utility race"))

    all_values = honest["P2"] + cheat["P2"]
    lo, hi = min(all_values), max(all_values)
    print("\nP2 honest:  " + sparkline(honest["P2"], lo, hi))
    print("P2 cheated: " + sparkline(cheat["P2"], lo, hi))

    gap = honest["P2"][-1] - cheat["P2"][-1]
    per_job = honest["P2"][0]
    print(f"\nPermanent gap: {gap:.4f} = {gap / per_job:.1f} jobs of honest "
          "profit, forfeited by a single deviation.")
    print("Informers P1/P3/P4 finished ahead of their honest-world selves by "
          f"{cheat['P1'][-1] - honest['P1'][-1]:.4f} each.")


if __name__ == "__main__":
    main()
