"""A repeated market as a stream of engagements through ``repro.api``.

Each job is one ``execute(EngagementRequest(...))`` on the same
processors; a processor's long-run earnings are the running sum of its
per-job utilities.  These tests pin the deterrence story E17 tabulates.
"""

import pytest

from repro.api import ApiError, EngagementRequest, execute

W = (2.0, 3.0, 5.0)
Z = 0.4
CHEAT = ((1, "multiple-bids"),)  # P2 equivocates in its bidding


def run_jobs(jobs: int, deviate_in: int | None = None) -> list[dict]:
    """Outcome records of *jobs* engagements; P2 deviates in job
    *deviate_in* only."""
    return [execute(EngagementRequest(
        w=W, z=Z, deviants=CHEAT if j == deviate_in else ())).outcome
        for j in range(jobs)]


def earnings(outcomes: list[dict], name: str) -> list[float]:
    """Running cumulative utility of *name* after each job."""
    series, total = [], 0.0
    for outcome in outcomes:
        total += outcome["utilities"][name]
        series.append(total)
    return series


class TestBasics:
    def test_requires_two_processors(self):
        with pytest.raises(ApiError, match="at least 2"):
            EngagementRequest(w=(2.0,), z=Z)

    def test_honest_engagements_accumulate_positively(self):
        outcomes = run_jobs(5)
        for name in ("P1", "P2", "P3"):
            series = earnings(outcomes, name)
            assert len(series) == 5 and series[-1] > 0
            assert all(b >= a for a, b in zip(series, series[1:]))

    def test_each_engagement_is_independent(self):
        a, b = run_jobs(2)
        assert a["payments"] == b["payments"]  # same instance, same outcome
        assert a is not b


class TestLongRunDeterrence:
    def test_one_deviation_sets_earnings_back_for_many_jobs(self):
        # The deterrence arithmetic the fine bound buys: after deviating
        # once in job 0, P2 needs many honest jobs to recover what its
        # peers earned meanwhile.
        cheat = earnings(run_jobs(8, deviate_in=0), "P2")
        honest = earnings(run_jobs(8), "P2")
        gap = honest[-1] - cheat[-1]
        per_job = honest[0]
        assert gap > 5 * per_job  # the fine costs > 5 honest jobs' profit

    def test_informers_come_out_ahead(self):
        cheat = run_jobs(3, deviate_in=0)
        honest = run_jobs(3)
        for name in ("P1", "P3"):
            assert earnings(cheat, name)[-1] > earnings(honest, name)[-1]

    def test_only_the_deviants_job_carries_a_fine(self):
        outcomes = run_jobs(4, deviate_in=2)
        fined = [[f["who"] for v in o["verdicts"] for f in v["fines"]]
                 for o in outcomes]
        assert fined == [[], [], ["P2"], []]
        assert outcomes[2]["fine_amount"] > 0
