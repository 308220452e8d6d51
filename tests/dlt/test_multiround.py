"""Tests for the multi-installment scheduling extension."""

import pytest

from repro.dlt.multiround import multiround_makespan, round_sweep
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import optimal_makespan


class TestSingleRoundEquivalence:
    def test_one_round_equals_closed_form(self, kind, rng):
        # The pipelined simulator with R=1 must reproduce Eqs (1)-(3).
        for _ in range(10):
            net = BusNetwork(tuple(rng.uniform(1, 10, 5)), float(rng.uniform(0.1, 2)), kind)
            res = multiround_makespan(net, 1)
            assert res.makespan == pytest.approx(optimal_makespan(net), rel=1e-9)


class TestMultiround:
    def test_never_worse_than_single_round_cp(self, rng):
        for _ in range(10):
            net = BusNetwork(tuple(rng.uniform(1, 10, 5)), 1.0, NetworkKind.CP)
            res = multiround_makespan(net, 8)
            assert res.makespan <= res.single_round_makespan + 1e-9

    def test_improves_comm_bound_instances(self):
        # Large z makes reception the bottleneck; splitting installments
        # lets later workers start much earlier.
        net = BusNetwork((2.0, 2.0, 2.0, 2.0), 2.0, NetworkKind.CP)
        res = multiround_makespan(net, 8)
        assert res.speedup > 1.05

    def test_diminishing_returns(self):
        net = BusNetwork((2.0, 2.0, 2.0), 1.0, NetworkKind.CP)
        sweep = round_sweep(net, 12)
        gains = [sweep[i].makespan - sweep[i + 1].makespan for i in range(len(sweep) - 1)]
        # Early rounds buy much more than late rounds.
        assert gains[0] > gains[-1] - 1e-12

    def test_per_round_fractions_recorded(self):
        net = BusNetwork((2.0, 3.0), 0.5, NetworkKind.CP)
        res = multiround_makespan(net, 3)
        assert len(res.per_round_alpha) == 3
        total = sum(sum(r) for r in res.per_round_alpha)
        assert total == pytest.approx(1.0)

    def test_rejects_zero_rounds(self):
        net = BusNetwork((2.0, 3.0), 0.5, NetworkKind.CP)
        with pytest.raises(ValueError):
            multiround_makespan(net, 0)

    def test_nfe_originator_still_waits_for_sends_each_round(self):
        # In NCP-NFE the originator cannot overlap: its first compute
        # start is >= the first round's total transmission time.
        net = BusNetwork((2.0, 2.0, 2.0), 1.0, NetworkKind.NCP_NFE)
        res = multiround_makespan(net, 4)
        assert res.makespan <= res.single_round_makespan + 1e-9

    def test_sweep_lengths(self):
        net = BusNetwork((2.0, 3.0), 0.5, NetworkKind.CP)
        sweep = round_sweep(net, 5)
        assert [r.rounds for r in sweep] == [1, 2, 3, 4, 5]


class TestSimulateInstallments:
    def test_matches_equal_split_helper(self):
        from repro.dlt.multiround import simulate_installments

        net = BusNetwork((2.0, 3.0, 4.0), 1.0, NetworkKind.CP)
        t = simulate_installments(net, [0.25] * 4)
        assert t == pytest.approx(multiround_makespan(net, 4).makespan)

    def test_validates_gammas(self):
        from repro.dlt.multiround import simulate_installments

        net = BusNetwork((2.0, 3.0), 0.5, NetworkKind.CP)
        with pytest.raises(ValueError):
            simulate_installments(net, [0.5, 0.4])  # does not sum to 1
        with pytest.raises(ValueError):
            simulate_installments(net, [1.5, -0.5])


class TestOptimizedInstallments:
    def test_never_worse_than_equal_split(self, rng):
        from repro.dlt.multiround import optimize_installments

        for _ in range(5):
            net = BusNetwork(tuple(rng.uniform(1, 5, 4)),
                             float(rng.uniform(0.3, 2.0)), NetworkKind.CP)
            eq = multiround_makespan(net, 5)
            opt = optimize_installments(net, 5)
            assert opt.makespan <= eq.makespan + 1e-12

    def test_strict_improvement_on_balanced_instance(self):
        from repro.dlt.multiround import optimize_installments

        net = BusNetwork((2.0, 2.0, 2.0, 2.0), 0.5, NetworkKind.CP)
        eq = multiround_makespan(net, 6)
        opt = optimize_installments(net, 6)
        assert opt.makespan < eq.makespan * 0.99

    def test_single_round_passthrough(self):
        from repro.dlt.multiround import optimize_installments

        net = BusNetwork((2.0, 3.0), 0.5, NetworkKind.CP)
        assert optimize_installments(net, 1).makespan == pytest.approx(
            multiround_makespan(net, 1).makespan)

    def test_gammas_sum_to_one(self):
        from repro.dlt.multiround import optimize_installments

        net = BusNetwork((2.0, 2.0, 2.0), 0.8, NetworkKind.CP)
        opt = optimize_installments(net, 4)
        total = sum(sum(r) for r in opt.per_round_alpha)
        assert total == pytest.approx(1.0, abs=1e-6)
