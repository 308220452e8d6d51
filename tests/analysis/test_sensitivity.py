"""Tests for sensitivity / conditioning analysis."""

import pytest
from hypothesis import given, settings

from repro.analysis.sensitivity import (
    allocation_sensitivity,
    payment_sensitivity,
    worst_case_condition,
)
from repro.dlt.platform import BusNetwork, NetworkKind
from tests.conftest import regime_network_strategy

NET = BusNetwork((2.0, 3.0, 5.0, 4.0), 0.4, NetworkKind.CP)


class TestAllocationSensitivity:
    def test_positive_and_finite(self):
        for i in range(NET.m):
            s = allocation_sensitivity(NET, i)
            assert 0 < s < 10

    @given(regime_network_strategy(min_m=2, max_m=8))
    @settings(max_examples=40, deadline=None)
    def test_conditioning_is_order_one(self, net):
        # Smooth rational closed forms: relative output change stays
        # within a small constant of the relative input change.
        s = max(allocation_sensitivity(net, i) for i in range(net.m))
        assert s < 25

    def test_slower_processor_less_influential(self):
        # The slowest processor carries the least load; bumping it moves
        # the allocation less than bumping the fastest.
        net = BusNetwork((1.0, 20.0), 0.2, NetworkKind.CP)
        assert allocation_sensitivity(net, 0) > allocation_sensitivity(net, 1)


class TestPaymentSensitivity:
    def test_positive_and_finite(self):
        for i in range(NET.m):
            s = payment_sensitivity(NET, i)
            assert 0 < s < 50

    def test_eps_stability(self):
        # The estimate is a derivative: halving eps should not move it
        # materially (no catastrophic cancellation).
        a = payment_sensitivity(NET, 1, eps=1e-4)
        b = payment_sensitivity(NET, 1, eps=5e-5)
        assert a == pytest.approx(b, rel=1e-2)


class TestWorstCase:
    def test_reports_both_channels(self):
        wc = worst_case_condition(NET)
        assert set(wc) == {"allocation", "payments"}
        assert wc["payments"] >= 0 and wc["allocation"] >= 0
