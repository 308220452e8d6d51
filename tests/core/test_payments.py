"""Tests for the compensation-and-bonus payment structure (Eqs. 10-12)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.payments import (
    bonus,
    bonus_vector,
    compensation,
    excluded_optimal_makespan,
    payments,
    utilities,
)
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import makespan
from tests.conftest import network_strategy, regime_network_strategy


def net_of(w, kind=NetworkKind.CP, z=0.5):
    return BusNetwork(tuple(w), z, kind)


class TestCompensation:
    def test_reimburses_observed_cost(self):
        c = compensation([0.5, 0.3], [2.0, 4.0])
        assert c == pytest.approx([1.0, 1.2])

    def test_zero_allocation_zero_compensation(self):
        assert compensation([0.0], [5.0]) == pytest.approx([0.0])


class TestExcludedMakespan:
    def test_matches_manual_reduction(self, kind):
        net = net_of([2.0, 3.0, 5.0], kind)
        reduced = net.without(1)
        expected = makespan(allocate(reduced), reduced)
        assert excluded_optimal_makespan(net, 1) == pytest.approx(expected)

    def test_requires_two_processors(self, kind):
        with pytest.raises(ValueError, match="m >= 2"):
            excluded_optimal_makespan(net_of([2.0], kind), 0)

    def test_excluding_is_never_faster(self, kind, rng):
        # Removing a processor can only slow the (regime-valid) optimum:
        # this is what makes truthful bonuses non-negative.
        for _ in range(20):
            w = rng.uniform(1, 10, 5)
            net = net_of(w, kind, z=0.3 * float(w.min()))
            full = makespan(allocate(net), net)
            for i in range(5):
                assert excluded_optimal_makespan(net, i) >= full - 1e-12

    def test_originator_exclusion_leaves_a_distributor(self):
        # "P_lo does not participate" on an NCP network removes its
        # compute, not its data: the residual is the CP system over the
        # remaining workers, NOT a smaller NCP network (which would
        # promote another processor into the free-compute slot).
        net = net_of([1.0, 0.5], NetworkKind.NCP_FE, z=1.0)
        cp_residual = BusNetwork((0.5,), 1.0, NetworkKind.CP)
        expected = makespan(allocate(cp_residual), cp_residual)
        assert excluded_optimal_makespan(net, 0) == pytest.approx(expected)
        # and that is slower than the full NCP-FE optimum, as it must be
        assert expected > makespan(allocate(net), net)

    def test_nfe_originator_exclusion(self):
        net = net_of([2.0, 3.0, 4.0], NetworkKind.NCP_NFE, z=0.5)
        cp_residual = BusNetwork((2.0, 3.0), 0.5, NetworkKind.CP)
        expected = makespan(allocate(cp_residual), cp_residual)
        assert excluded_optimal_makespan(net, 2) == pytest.approx(expected)


class TestBonus:
    def test_truthful_bonus_is_marginal_contribution(self, kind):
        net = net_of([2.0, 3.0, 5.0], kind)
        a = allocate(net)
        for i in range(3):
            expected = excluded_optimal_makespan(net, i) - makespan(a, net)
            assert bonus(net, i, net.w[i]) == pytest.approx(expected)

    def test_slow_execution_reduces_bonus(self, kind):
        net = net_of([2.0, 3.0, 5.0], kind)
        assert bonus(net, 1, 6.0) < bonus(net, 1, 3.0)

    def test_bonus_can_go_negative(self, kind):
        # Executing far slower than bid makes the realized makespan
        # exceed the without-me optimum.
        net = net_of([2.0, 3.0, 5.0], kind)
        assert bonus(net, 1, 300.0) < 0

    def test_precomputed_alpha_consistent(self, kind):
        net = net_of([2.0, 3.0, 5.0], kind)
        a = allocate(net)
        assert bonus(net, 1, 3.0, alpha=a) == pytest.approx(bonus(net, 1, 3.0))

    def test_rejects_bad_exec_value(self, kind):
        net = net_of([2.0, 3.0], kind)
        with pytest.raises(ValueError):
            bonus(net, 0, 0.0)
        with pytest.raises(ValueError):
            bonus(net, 0, float("nan"))


class TestPaymentDecomposition:
    @given(network_strategy(min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_q_equals_c_plus_b(self, net):
        w_exec = np.asarray(net.w) * 1.1
        q = payments(net, w_exec)
        c = compensation(allocate(net), w_exec)
        b = bonus_vector(net, w_exec)
        assert np.allclose(q, c + b)

    @given(network_strategy(min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_utility_equals_bonus(self, net):
        # U_i = Q_i - alpha_i w~_i must collapse to the bonus (Eq. 10-12
        # algebra); this is the identity the whole analysis rides on.
        w_exec = np.asarray(net.w) * 1.25
        assert np.allclose(utilities(net, w_exec), bonus_vector(net, w_exec))

    def test_shape_validation(self, kind):
        net = net_of([2.0, 3.0], kind)
        with pytest.raises(ValueError):
            payments(net, [2.0])
        with pytest.raises(ValueError):
            payments(net, [2.0, -3.0])


class TestTruthfulProperties:
    @given(network_strategy(kinds=(NetworkKind.CP, NetworkKind.NCP_FE),
                            min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_voluntary_participation_truthful_cp_fe(self, net):
        # Theorem 3.2: truthful, full-speed agents never lose.  Holds at
        # any z for CP and NCP-FE (their closed forms are globally
        # optimal at any z, so exclusion can never beat participation).
        u = utilities(net, np.asarray(net.w))
        assert np.all(u >= -1e-10)

    @given(regime_network_strategy(kinds=(NetworkKind.NCP_NFE,),
                                   min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_voluntary_participation_truthful_nfe_in_regime(self, net):
        # For NCP-NFE, Algorithm 2.2 is optimal only in the DLT regime
        # (z < w_m); voluntary participation inherits that premise.
        u = utilities(net, np.asarray(net.w))
        assert np.all(u >= -1e-10)

    def test_nfe_out_of_regime_can_lose(self):
        # Documentation of the regime boundary: out of regime the
        # interior closed form exceeds the pure-distributor exclusion
        # makespan and a truthful non-originator's bonus goes negative.
        net = net_of([1.0, 1.0], NetworkKind.NCP_NFE, z=2.0)
        u = utilities(net, np.asarray(net.w))
        assert np.min(u) < 0
