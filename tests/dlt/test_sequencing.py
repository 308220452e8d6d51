"""Theorem 2.2: any allocation order is optimal on bus networks.

The order permutes the *receiving* processors; the originator slot is
positional (first for NCP-FE, last for NCP-NFE) and stays fixed — see
repro.dlt.sequencing's module docstring.
"""

import math

import numpy as np
from hypothesis import given, settings

from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.sequencing import iter_orders, makespan_by_order, makespan_spread
from tests.conftest import network_strategy


class TestIterOrders:
    def test_exhaustive_when_small(self):
        orders = list(iter_orders(3))
        assert len(orders) == math.factorial(3)
        assert len(set(orders)) == len(orders)

    def test_fixed_position_respected(self):
        orders = list(iter_orders(4, fixed=3))
        assert len(orders) == math.factorial(3)
        assert all(o[3] == 3 for o in orders)

    def test_fixed_first_position(self):
        orders = list(iter_orders(4, fixed=0))
        assert all(o[0] == 0 for o in orders)
        assert len(orders) == math.factorial(3)

    def test_limit_caps_and_dedupes(self):
        orders = list(iter_orders(6, limit=10))
        assert len(orders) == 10
        assert len(set(orders)) == 10

    def test_limit_includes_identity(self):
        orders = list(iter_orders(5, limit=5))
        assert tuple(range(5)) in orders

    def test_limit_respects_fixed(self):
        orders = list(iter_orders(6, fixed=5, limit=12))
        assert all(o[5] == 5 for o in orders)

    def test_limit_above_factorial_goes_exhaustive(self):
        orders = list(iter_orders(3, limit=1000))
        assert len(orders) == 6


class TestTheorem22:
    @given(network_strategy(min_m=2, max_m=5))
    @settings(max_examples=60, deadline=None)
    def test_order_invariance_exhaustive(self, net):
        values = [t for _, t in makespan_by_order(net, limit=None)]
        assert max(values) - min(values) <= 1e-9 * max(values)

    def test_spread_is_tiny_for_larger_m(self, kind, rng):
        net = BusNetwork(tuple(rng.uniform(1, 10, 8)), 0.4, kind)
        assert makespan_spread(net, limit=40) < 1e-9

    def test_moving_the_originator_is_a_different_instance(self):
        # Swapping a processor into the NCP-FE originator slot changes
        # the makespan — which is why Theorem 2.2's orders keep the
        # originator fixed.
        net = BusNetwork((1.0, 0.5), 1.0, NetworkKind.NCP_FE)
        t_as_given = makespan_by_order(net, orders=[(0, 1)])[0][1]
        swapped = net.permuted([1, 0])
        t_swapped = makespan_by_order(swapped, orders=[(0, 1)])[0][1]
        assert abs(t_as_given - t_swapped) > 0.01

    def test_fractions_do_change_with_order(self):
        # The *makespan* is invariant but the individual fractions move:
        # the theorem is about the optimum value, not the allocation.
        net = BusNetwork((1.0, 9.0, 3.0), 0.8, NetworkKind.CP)
        a_fwd = allocate(net)
        a_rev = allocate(net.permuted([2, 1, 0]))
        assert not np.allclose(a_fwd, a_rev[::-1])

    def test_rows_report_every_requested_order(self):
        net = BusNetwork((1.0, 2.0, 3.0), 0.5, NetworkKind.NCP_FE)
        orders = [(0, 1, 2), (0, 2, 1)]
        rows = makespan_by_order(net, orders=orders)
        assert [o for o, _ in rows] == orders
