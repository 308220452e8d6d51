"""Tests for the regime diagnostics."""

import pytest
from hypothesis import given, settings

from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.regime import (
    diagnose,
    nfe_in_regime,
    participation_is_optimal,
    regime_margin,
)
from tests.conftest import network_strategy


class TestAnalyticCheck:
    def test_cp_and_fe_always_in_regime(self):
        for kind in (NetworkKind.CP, NetworkKind.NCP_FE):
            net = BusNetwork((1.0, 1.0), 50.0, kind)
            assert nfe_in_regime(net)
            assert regime_margin(net) == float("inf")

    def test_nfe_boundary_at_w_m(self):
        inside = BusNetwork((1.0, 2.0), 1.9, NetworkKind.NCP_NFE)
        outside = BusNetwork((1.0, 2.0), 2.1, NetworkKind.NCP_NFE)
        assert nfe_in_regime(inside)
        assert not nfe_in_regime(outside)

    def test_margin_sign_and_scale(self):
        net = BusNetwork((1.0, 2.0), 1.0, NetworkKind.NCP_NFE)
        assert regime_margin(net) == pytest.approx(0.5)
        out = BusNetwork((1.0, 2.0), 3.0, NetworkKind.NCP_NFE)
        assert regime_margin(out) == pytest.approx(-0.5)


class TestGroundTruthAgreement:
    @given(network_strategy(min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_analytic_check_predicts_lp_for_m2_and_cp_fe(self, net):
        # For CP/NCP-FE (any m) and NCP-NFE with m=2 the analytic
        # condition is exact.  For larger NFE instances z >= w_m is
        # still necessary-for-violation, checked below.
        if net.kind is not NetworkKind.NCP_NFE or net.m == 2:
            if nfe_in_regime(net):
                assert participation_is_optimal(net)

    @given(network_strategy(kinds=(NetworkKind.NCP_NFE,), min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_out_of_regime_is_necessary_for_suboptimality(self, net):
        if not participation_is_optimal(net):
            assert not nfe_in_regime(net)


class TestDiagnose:
    def test_report_fields_consistent(self):
        net = BusNetwork((1.0, 1.0), 2.0, NetworkKind.NCP_NFE)
        rep = diagnose(net)
        assert not rep.in_regime
        assert not rep.closed_form_optimal
        assert rep.gap > 0
        assert not rep.mechanism_guarantees_hold

    def test_in_regime_report(self):
        net = BusNetwork((2.0, 3.0, 5.0), 0.5, NetworkKind.NCP_NFE)
        rep = diagnose(net)
        assert rep.in_regime and rep.closed_form_optimal
        assert rep.gap == pytest.approx(0.0, abs=1e-9)
        assert rep.mechanism_guarantees_hold

    def test_cp_always_guaranteed(self):
        net = BusNetwork((2.0, 3.0), 5.0, NetworkKind.CP)
        assert diagnose(net).mechanism_guarantees_hold
