"""Golden regression tests: exact reference values, derived by hand.

These pin the numerical identities of the reproduction to hand-derived
closed forms on tiny instances, so that any future refactor that
changes semantics (rather than just implementation) fails loudly with
numbers a human can re-derive on paper.
"""

import pytest

from repro.core.dls_bl import DLSBL
from repro.core.payments import bonus, excluded_optimal_makespan
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import finish_times, makespan


class TestHandDerivedAllocations:
    def test_cp_two_equal_processors(self):
        # w = (1, 1), z = 1:  alpha_1 w_1 = alpha_2 (z + w_2)
        # => alpha_1 = 2 alpha_2 => alpha = (2/3, 1/3)
        # T = z*(2/3) + (2/3)*1 = 4/3
        net = BusNetwork((1.0, 1.0), 1.0, NetworkKind.CP)
        a = allocate(net)
        assert a == pytest.approx([2 / 3, 1 / 3])
        assert makespan(a, net) == pytest.approx(4 / 3)

    def test_fe_two_equal_processors(self):
        # Same fractions as CP; T = alpha_1 w_1 = 2/3.
        net = BusNetwork((1.0, 1.0), 1.0, NetworkKind.NCP_FE)
        a = allocate(net)
        assert a == pytest.approx([2 / 3, 1 / 3])
        assert makespan(a, net) == pytest.approx(2 / 3)

    def test_nfe_two_equal_processors(self):
        # Eq (9): alpha_1 w_1 = alpha_2 w_2 => alpha = (1/2, 1/2)
        # T = z/2 + 1/2 = 3/4 at z = 1/2 (inside the regime z < w_2).
        net = BusNetwork((1.0, 1.0), 0.5, NetworkKind.NCP_NFE)
        a = allocate(net)
        assert a == pytest.approx([0.5, 0.5])
        assert makespan(a, net) == pytest.approx(0.75)

    def test_cp_three_processors_chain(self):
        # w = (1, 2, 3), z = 1:
        # k1 = 1/(1+2) = 1/3, k2 = 2/(1+3) = 1/2
        # weights (1, 1/3, 1/6); sum = 3/2  => alpha = (2/3, 2/9, 1/9)
        net = BusNetwork((1.0, 2.0, 3.0), 1.0, NetworkKind.CP)
        a = allocate(net)
        assert a == pytest.approx([2 / 3, 2 / 9, 1 / 9])
        T = finish_times(a, net)
        # T_1 = 2/3 + 2/3 = 4/3; all equal.
        assert T == pytest.approx([4 / 3] * 3)


class TestHandDerivedPayments:
    def test_cp_two_processors_truthful_payments(self):
        # w = (1, 1), z = 1, truthful run.
        # alpha = (2/3, 1/3); T = 4/3.
        # Without P1: single processor w=1: T_{-1} = z*1 + 1 = 2.
        # Without P2: T_{-2} = 2 as well (symmetric).
        # B_i = 2 - 4/3 = 2/3 for both.
        # C = alpha * w = (2/3, 1/3); Q = C + B = (4/3, 1).
        mech = DLSBL(NetworkKind.CP, 1.0)
        r = mech.truthful_run([1.0, 1.0])
        assert r.alpha == pytest.approx([2 / 3, 1 / 3])
        assert r.bonuses == pytest.approx([2 / 3, 2 / 3])
        assert r.payments == pytest.approx([4 / 3, 1.0])
        assert r.utilities == pytest.approx([2 / 3, 2 / 3])
        assert r.user_cost == pytest.approx(7 / 3)

    def test_exclusion_value_by_hand(self):
        net = BusNetwork((1.0, 1.0), 1.0, NetworkKind.CP)
        assert excluded_optimal_makespan(net, 0) == pytest.approx(2.0)
        assert excluded_optimal_makespan(net, 1) == pytest.approx(2.0)

    def test_fe_originator_exclusion_by_hand(self):
        # NCP-FE, w = (1, 1), z = 1.  Excluding the originator leaves a
        # CP distributor with one worker: T = z + w = 2.
        # Full FE optimum: T = 2/3.  Bonus of P1 = 2 - 2/3 = 4/3.
        net = BusNetwork((1.0, 1.0), 1.0, NetworkKind.NCP_FE)
        assert excluded_optimal_makespan(net, 0) == pytest.approx(2.0)
        assert bonus(net, 0, 1.0) == pytest.approx(4 / 3)

    def test_slow_execution_penalty_by_hand(self):
        # CP, w = (1, 1), z = 1; P2 executes at w~ = 2 (twice as slow).
        # Realized T = max(4/3, 1 + 1/3*2) = max(4/3, 5/3) = 5/3.
        # B_2 = 2 - 5/3 = 1/3 (down from 2/3 when honest).
        net = BusNetwork((1.0, 1.0), 1.0, NetworkKind.CP)
        assert bonus(net, 1, 2.0) == pytest.approx(1 / 3)


class TestReferenceInstance:
    """The benchmark suite's reference instance, frozen to 12 digits."""

    def test_reference_allocation(self):
        net = BusNetwork((2.0, 3.0, 5.0, 4.0), 0.6, NetworkKind.NCP_FE)
        a = allocate(net)
        assert a == pytest.approx(
            [0.459416613824, 0.255231452124, 0.136731135067, 0.148620798985],
            abs=1e-11)
        assert makespan(a, net) == pytest.approx(0.918833227647, abs=1e-11)

    def test_reference_payments(self):
        r = DLSBL(NetworkKind.NCP_FE, 0.5).truthful_run([2.0, 3.0, 5.0, 4.0])
        assert r.user_cost == pytest.approx(4.24270659666, abs=1e-10)
        assert min(r.utilities) > 0
