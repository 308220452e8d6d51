"""Exclusion monotonicity across every architecture.

Voluntary participation ultimately rests on one inequality: removing a
(truthful) processor never speeds the optimum up.  These property
tests pin that inequality per architecture, including the subtle
exclusion semantics (distributor originators, relay hubs, merged
hops) — if any of those semantics regress, this file is the tripwire.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dls_chain import chain_excluded_makespan
from repro.core.dls_star import star_excluded_makespan, star_optimal_makespan
from repro.core.dls_tree import tree_excluded_makespan
from repro.core.payments import excluded_optimal_makespan
from repro.dlt.architectures import (
    StarNetwork,
    allocate_linear,
    allocate_tree,
    linear_finish_times,
    tree_finish_times,
)
from repro.dlt.closed_form import allocate
from repro.dlt.timing import makespan
from tests.conftest import regime_network_strategy


class TestBusExclusion:
    @given(regime_network_strategy(min_m=2, max_m=8))
    @settings(max_examples=80, deadline=None)
    def test_exclusion_never_faster(self, net):
        full = makespan(allocate(net), net)
        for i in range(net.m):
            assert excluded_optimal_makespan(net, i) >= full - 1e-10


class TestStarExclusion:
    @given(st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=2,
                    max_size=7),
           st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=2,
                    max_size=7))
    @settings(max_examples=80, deadline=None)
    def test_exclusion_never_faster_any_links(self, w, z):
        n = min(len(w), len(z))
        star = StarNetwork(tuple(w[:n]), tuple(z[:n]))
        full = star_optimal_makespan(star)
        for i in range(star.m):
            assert star_excluded_makespan(star, i) >= full - 1e-10


class TestChainExclusion:
    @given(st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=2,
                    max_size=6),
           st.lists(st.floats(min_value=0.02, max_value=5.0), min_size=1,
                    max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_exclusion_never_faster_any_links(self, w, hops):
        m = min(len(w), len(hops) + 1)
        w = np.asarray(w[:m])
        hops = np.asarray(hops[: m - 1])
        alpha = allocate_linear(w, hops if m > 1 else 1.0)
        full = float(np.max(linear_finish_times(alpha, w,
                                                hops if m > 1 else 1.0)))
        for i in range(m):
            assert chain_excluded_makespan(w, hops, i) >= full - 1e-10


class TestTreeExclusion:
    @given(st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=2,
                    max_size=7),
           st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1,
                    max_size=6),
           st.lists(st.integers(min_value=0, max_value=10), min_size=1,
                    max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_exclusion_never_faster(self, ws, zs, parents):
        from repro.core.dls_tree import DLSTree

        n = min(len(ws), len(zs) + 1, len(parents) + 1)
        g = nx.DiGraph()
        names = [f"n{i}" for i in range(n)]
        g.add_node(names[0], w=ws[0])
        for i in range(1, n):
            g.add_node(names[i], w=ws[i])
            g.add_edge(names[parents[i - 1] % i], names[i], z=zs[i - 1])
        # Use the mechanism's canonicalized topology so full and
        # excluded values share the service-order convention.
        mech = DLSTree(g, names[0])
        tree = mech.topology
        shares = allocate_tree(tree, names[0])
        full = max(tree_finish_times(tree, names[0], shares).values())
        for node in names:
            assert (tree_excluded_makespan(tree, names[0], node)
                    >= full - 1e-10), node
