"""Tests for the price-of-truthfulness analysis."""

import pytest

from repro.analysis.economics import (
    overpayment_ratio,
    overpayment_sweep,
    user_cost_breakdown,
)
from repro.core.dls_bl import DLSBL

W = [2.0, 3.0, 5.0, 4.0]


class TestBreakdown:
    def test_components_match_mechanism(self, kind):
        bd = user_cost_breakdown(W, kind, 0.4)
        r = DLSBL(kind, 0.4).truthful_run(W)
        assert bd.user_cost == pytest.approx(r.user_cost)
        assert bd.compensation_total == pytest.approx(sum(r.compensations))
        assert bd.bonus_total == pytest.approx(sum(r.bonuses))

    def test_ratio_at_least_one_for_truthful(self, kind):
        # Truthful bonuses are non-negative, so the user never pays
        # below cost.
        assert overpayment_ratio(W, kind, 0.4) >= 1.0 - 1e-12


class TestSweep:
    def test_rows_per_m(self):
        rows = overpayment_sweep([2, 4, 8], trials=5)
        assert [r[0] for r in rows] == [2, 4, 8]
        assert all(r[1] >= 1.0 - 1e-12 for r in rows)
        assert all(r[2] >= r[1] - 1e-12 for r in rows)  # max >= mean

    def test_premium_decays_with_m(self):
        # Marginal contributions shrink in larger systems: the mean
        # truthfulness premium at m=16 is below the premium at m=2.
        rows = overpayment_sweep([2, 16], trials=20)
        assert rows[-1][1] < rows[0][1]

    def test_deterministic_for_seed(self):
        a = overpayment_sweep([4], trials=5, seed=7)
        b = overpayment_sweep([4], trials=5, seed=7)
        assert a == b
