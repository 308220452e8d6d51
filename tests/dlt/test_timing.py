"""Tests for the finishing-time equations (1)-(3)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import (
    communication_finish_times,
    finish_times,
    makespan,
    optimal_makespan,
)
from tests.conftest import network_strategy


def cp_net(w, z=0.5):
    return BusNetwork(tuple(w), z, NetworkKind.CP)


class TestEquationOne:
    """Eq (1): T_i = z * sum_{j<=i} alpha_j + alpha_i w_i."""

    def test_explicit(self):
        net = cp_net([2.0, 4.0], z=1.0)
        a = np.array([0.6, 0.4])
        T = finish_times(a, net)
        assert T[0] == pytest.approx(1.0 * 0.6 + 0.6 * 2.0)
        assert T[1] == pytest.approx(1.0 * (0.6 + 0.4) + 0.4 * 4.0)

    def test_every_worker_pays_comm_prefix(self):
        net = cp_net([1.0, 1.0, 1.0], z=2.0)
        a = np.array([1 / 3] * 3)
        ready = communication_finish_times(a, net)
        assert ready == pytest.approx([2 / 3, 4 / 3, 2.0])


class TestEquationTwo:
    """Eq (2): P1 computes from t=0; comm starts with alpha_2."""

    def test_p1_no_delay(self):
        net = BusNetwork((2.0, 4.0, 3.0), 1.0, NetworkKind.NCP_FE)
        a = np.array([0.5, 0.3, 0.2])
        T = finish_times(a, net)
        assert T[0] == pytest.approx(0.5 * 2.0)  # alpha_1 w_1 only

    def test_comm_prefix_excludes_alpha1(self):
        net = BusNetwork((2.0, 4.0, 3.0), 1.0, NetworkKind.NCP_FE)
        a = np.array([0.5, 0.3, 0.2])
        T = finish_times(a, net)
        assert T[1] == pytest.approx(1.0 * 0.3 + 0.3 * 4.0)
        assert T[2] == pytest.approx(1.0 * (0.3 + 0.2) + 0.2 * 3.0)

    def test_recursion_seven_holds_at_optimum(self):
        net = BusNetwork((2.0, 4.0, 3.0), 0.6, NetworkKind.NCP_FE)
        a = allocate(net)
        T = finish_times(a, net)
        assert np.allclose(T, T[0])


class TestEquationThree:
    """Eq (3): P_m computes after all its transmissions, receives nothing."""

    def test_originator_waits_for_all_sends(self):
        net = BusNetwork((2.0, 4.0, 3.0), 1.0, NetworkKind.NCP_NFE)
        a = np.array([0.4, 0.3, 0.3])
        T = finish_times(a, net)
        # P3 starts after sending alpha_1 + alpha_2
        assert T[2] == pytest.approx(1.0 * 0.7 + 0.3 * 3.0)
        # Others pay their own reception prefix
        assert T[0] == pytest.approx(1.0 * 0.4 + 0.4 * 2.0)
        assert T[1] == pytest.approx(1.0 * 0.7 + 0.3 * 4.0)

    def test_recursions_hold_at_optimum(self):
        net = BusNetwork((2.0, 4.0, 3.0, 6.0), 0.8, NetworkKind.NCP_NFE)
        a = allocate(net)
        T = finish_times(a, net)
        assert np.allclose(T, T[0])


class TestMixedEvaluation:
    def test_w_exec_overrides_processing_only(self, kind):
        net = BusNetwork((2.0, 4.0), 0.5, kind)
        a = np.array([0.5, 0.5])
        base = finish_times(a, net)
        slowed = finish_times(a, net, w_exec=[2.0, 8.0])
        # Communication part unchanged; P2's compute doubled.
        assert slowed[0] == pytest.approx(base[0])
        assert slowed[1] == pytest.approx(base[1] + 0.5 * 4.0)

    def test_w_exec_validation(self, kind):
        net = BusNetwork((2.0, 4.0), 0.5, kind)
        a = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            finish_times(a, net, w_exec=[2.0])
        with pytest.raises(ValueError):
            finish_times(a, net, w_exec=[2.0, -1.0])


class TestMakespan:
    def test_is_max_of_finish_times(self, kind):
        net = BusNetwork((2.0, 4.0, 3.0), 0.5, kind)
        a = np.array([0.2, 0.5, 0.3])
        assert makespan(a, net) == pytest.approx(float(np.max(finish_times(a, net))))

    def test_optimal_makespan_matches_allocate(self, kind):
        net = BusNetwork((2.0, 4.0, 3.0), 0.5, kind)
        assert optimal_makespan(net) == pytest.approx(makespan(allocate(net), net))

    def test_alpha_validation(self, kind):
        net = BusNetwork((2.0, 4.0), 0.5, kind)
        with pytest.raises(ValueError):
            finish_times([0.5], net)
        with pytest.raises(ValueError):
            finish_times([-0.1, 1.1], net)


class TestCrossSystemRelations:
    @given(network_strategy(min_m=2, max_m=8))
    @settings(max_examples=100, deadline=None)
    def test_slowing_any_processor_never_helps(self, net):
        a = allocate(net)
        base = makespan(a, net)
        w_slow = np.asarray(net.w) * 1.5
        assert makespan(a, net, w_exec=w_slow) >= base - 1e-12

    def test_ncp_systems_beat_cp_on_same_instance(self):
        # A computing originator strictly dominates the CP system: with
        # the *same* allocation, every NCP-FE finish time drops by
        # z*alpha_1 versus CP, and NCP-NFE's originator saves its own
        # reception delay, so both optima are <= the CP optimum.
        # (NCP-FE vs NCP-NFE is *not* ordered in general: the originator
        # role lands on different processors.)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = tuple(rng.uniform(1, 10, 5))
            z = float(rng.uniform(0.1, 2.0))
            t = {k: optimal_makespan(BusNetwork(w, z, k)) for k in NetworkKind}
            assert t[NetworkKind.NCP_FE] <= t[NetworkKind.CP] + 1e-12
            assert t[NetworkKind.NCP_NFE] <= t[NetworkKind.CP] + 1e-12

    def test_zero_comm_limit_equalizes_kinds(self):
        # As z -> 0 the three models converge to the same makespan
        # 1 / sum(1/w_i) (pure processor-sharing bound).
        w = (2.0, 3.0, 6.0)
        bound = 1.0 / sum(1.0 / x for x in w)
        for kind in NetworkKind:
            t = optimal_makespan(BusNetwork(w, 1e-9, kind))
            assert t == pytest.approx(bound, rel=1e-6)
