"""Tests for the star / linear / tree extensions (paper future work)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlt.architectures import (
    StarNetwork,
    allocate_linear,
    allocate_star,
    allocate_tree,
    collapse_tree,
    linear_finish_times,
    star_best_order,
    star_finish_times,
)
from repro.dlt.closed_form import allocate_cp
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import finish_times as bus_finish_times


class TestStarNetwork:
    def test_construction_validates(self):
        with pytest.raises(ValueError):
            StarNetwork((1.0, 2.0), (0.5,))
        with pytest.raises(ValueError):
            StarNetwork((1.0, -2.0), (0.5, 0.5))

    def test_homogeneous_star_reduces_to_cp_bus(self):
        # With z_i == z for all links, the star is exactly the CP bus.
        w = [2.0, 3.0, 5.0]
        z = 0.6
        star = StarNetwork(tuple(w), (z, z, z))
        a_star = allocate_star(star)
        a_bus = allocate_cp(np.array(w), z)
        assert np.allclose(a_star, a_bus)
        net = BusNetwork(tuple(w), z, NetworkKind.CP)
        assert np.allclose(star_finish_times(a_star, star),
                           bus_finish_times(a_bus, net))

    def test_simultaneous_finish(self):
        star = StarNetwork((2.0, 3.0, 5.0), (0.2, 0.9, 0.4))
        T = star_finish_times(allocate_star(star), star)
        assert np.allclose(T, T[0])

    def test_single_worker(self):
        star = StarNetwork((2.0,), (0.5,))
        assert allocate_star(star) == pytest.approx([1.0])

    @given(st.lists(st.floats(min_value=0.5, max_value=10), min_size=2, max_size=6),
           st.lists(st.floats(min_value=0.1, max_value=2), min_size=2, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_normalized_positive(self, w, z):
        n = min(len(w), len(z))
        star = StarNetwork(tuple(w[:n]), tuple(z[:n]))
        a = allocate_star(star)
        assert np.isclose(a.sum(), 1.0)
        assert np.all(a > 0)


class TestStarOrdering:
    def test_heterogeneous_links_break_theorem_22(self):
        # On a star with very different link speeds the service order
        # matters — the bus invariance (Thm 2.2) does not extend.
        star = StarNetwork((2.0, 2.0, 2.0), (0.1, 1.0, 3.0))
        _, best, worst = star_best_order(star)
        assert worst > best * 1.01

    def test_best_order_is_fastest_link_first(self):
        star = StarNetwork((2.0, 3.0, 2.5), (2.0, 0.2, 0.9))
        order, _, _ = star_best_order(star)
        z_served = [star.z[i] for i in order]
        assert z_served == sorted(z_served)

    def test_homogeneous_links_recover_invariance(self):
        star = StarNetwork((2.0, 5.0, 3.0), (0.5, 0.5, 0.5))
        _, best, worst = star_best_order(star)
        assert worst == pytest.approx(best, rel=1e-9)


class TestLinearChain:
    def test_equal_finish_conditions(self):
        w = [2.0, 3.0, 4.0, 5.0]
        z = 0.3
        a = allocate_linear(w, z)
        T = linear_finish_times(a, w, z)
        assert np.allclose(T, T[0])

    def test_normalized_positive(self):
        a = allocate_linear([2.0, 3.0, 4.0], 0.5)
        assert a.sum() == pytest.approx(1.0)
        assert np.all(a > 0)

    def test_single_processor(self):
        assert allocate_linear([2.0], 0.5) == pytest.approx([1.0])

    def test_zero_comm_limit_matches_processor_sharing(self):
        w = [2.0, 3.0, 6.0]
        a = allocate_linear(w, 1e-9)
        T = linear_finish_times(a, w, 1e-9)
        assert T[0] == pytest.approx(1.0 / sum(1.0 / x for x in w), rel=1e-6)

    def test_downstream_gets_less_with_expensive_links(self):
        # Forwarding costs accumulate: with homogeneous processors the
        # head of the chain must get more load than the tail.
        a = allocate_linear([2.0, 2.0, 2.0, 2.0], 1.0)
        assert np.all(np.diff(a) < 0)

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            allocate_linear([1.0, 2.0], 0.0)


def star_tree(w_root, children):
    """Helper: one-level tree == star with a computing root."""
    g = nx.DiGraph()
    g.add_node("root", w=w_root)
    for i, (z, w) in enumerate(children):
        g.add_node(f"c{i}", w=w)
        g.add_edge("root", f"c{i}", z=z)
    return g


class TestTree:
    def test_leaf_equivalent_is_its_own_w(self):
        g = nx.DiGraph()
        g.add_node("only", w=3.5)
        eq = collapse_tree(g, "only")
        assert eq.w_equivalent == pytest.approx(3.5)
        assert eq.size == 1

    def test_equivalent_faster_than_any_member(self):
        g = star_tree(4.0, [(0.5, 3.0), (0.3, 6.0)])
        eq = collapse_tree(g, "root")
        assert eq.w_equivalent < 3.0  # pooling beats the best single node
        assert eq.size == 3

    def test_collapse_is_recursive(self):
        # A two-level tree: collapsing the inner star first by hand must
        # match the recursive result.
        g = nx.DiGraph()
        g.add_node("r", w=4.0)
        g.add_node("m", w=3.0)
        g.add_node("l", w=2.0)
        g.add_edge("r", "m", z=0.4)
        g.add_edge("m", "l", z=0.2)
        inner = star_tree(3.0, [(0.2, 2.0)])
        w_m_eq = collapse_tree(inner, "root").w_equivalent
        outer = star_tree(4.0, [(0.4, w_m_eq)])
        expected = collapse_tree(outer, "root").w_equivalent
        assert collapse_tree(g, "r").w_equivalent == pytest.approx(expected)

    def test_allocate_tree_shares_sum_to_one(self):
        g = nx.DiGraph()
        g.add_node("r", w=4.0)
        for i, (z, w) in enumerate([(0.5, 3.0), (0.3, 6.0)]):
            g.add_node(f"c{i}", w=w)
            g.add_edge("r", f"c{i}", z=z)
        g.add_node("gc", w=2.0)
        g.add_edge("c0", "gc", z=0.2)
        shares = allocate_tree(g, "r")
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(v > 0 for v in shares.values())
        assert set(shares) == {"r", "c0", "c1", "gc"}

    def test_rejects_non_arborescence(self):
        g = nx.DiGraph()
        g.add_node("a", w=1.0)
        g.add_node("b", w=1.0)
        g.add_edge("a", "b", z=0.1)
        g.add_edge("b", "a", z=0.1)
        with pytest.raises(ValueError):
            collapse_tree(g, "a")

    def test_rejects_missing_root(self):
        g = nx.DiGraph()
        g.add_node("a", w=1.0)
        with pytest.raises(KeyError):
            collapse_tree(g, "zz")


class TestDisabledCollapse:
    """Relay semantics: disabled nodes forward but do not compute."""

    def two_level(self):
        g = nx.DiGraph()
        g.add_node("r", w=2.0)
        g.add_node("c", w=3.0)
        g.add_node("gc", w=4.0)
        g.add_edge("r", "c", z=0.3)
        g.add_edge("c", "gc", z=0.2)
        return g

    def test_disabled_root_is_pure_distributor(self):
        g = self.two_level()
        full = collapse_tree(g, "r").w_equivalent
        relay = collapse_tree(g, "r", disabled={"r"}).w_equivalent
        assert relay > full
        # The relay-root star over the single collapsed child equals
        # z + w_eq(child subtree).
        child_eq = collapse_tree(g.subgraph(["c", "gc"]).copy(), "c")
        assert relay == pytest.approx(0.3 + child_eq.w_equivalent)

    def test_disabled_middle_keeps_grandchild_reachable(self):
        g = self.two_level()
        relay = collapse_tree(g, "r", disabled={"c"}).w_equivalent
        full = collapse_tree(g, "r").w_equivalent
        assert full < relay < np.inf
        # The grandchild still contributes through the relay: better
        # than amputating the whole c-subtree (root alone).
        g_alone = g.copy()
        g_alone.remove_node("gc")
        g_alone.remove_node("c")
        root_alone = collapse_tree(g_alone, "r").w_equivalent
        assert relay < root_alone
        # The relayed subtree equals gc behind its own hop.
        assert relay == pytest.approx(
            collapse_tree(self._r_with_child_eq(0.3, 0.2 + 4.0), "r").w_equivalent)

    @staticmethod
    def _r_with_child_eq(z, w_eq):
        g = nx.DiGraph()
        g.add_node("r", w=2.0)
        g.add_node("x", w=w_eq)
        g.add_edge("r", "x", z=z)
        return g

    def test_disabled_leaf_rejected(self):
        g = self.two_level()
        with pytest.raises(ValueError, match="disabled leaf"):
            collapse_tree(g, "r", disabled={"gc"})

    def test_relay_chain_of_two(self):
        # Both interior nodes disabled: only the grandchild computes,
        # behind both hops: T = (z1 + z2 + w_gc) for unit load... the
        # hub one-port star degenerate case: single worker through two
        # sequential relays.
        g = self.two_level()
        t = collapse_tree(g, "r", disabled={"r", "c"}).w_equivalent
        assert t == pytest.approx(0.3 + 0.2 + 4.0)
