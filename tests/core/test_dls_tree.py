"""Tests for the tree mechanism extension (DLS-TR)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dls_tree import (
    DLSTree,
    tree_excluded_makespan,
    tree_with_bids,
)
from repro.dlt.architectures import collapse_tree


def simple_tree(zs=(0.3, 0.2, 0.4)):
    g = nx.DiGraph()
    g.add_node("r", w=4.0)
    g.add_node("a", w=3.0)
    g.add_node("b", w=6.0)
    g.add_node("a1", w=2.0)
    g.add_edge("r", "a", z=zs[0])
    g.add_edge("r", "b", z=zs[1])
    g.add_edge("a", "a1", z=zs[2])
    return g


def random_tree_strategy(min_n=2, max_n=7):
    def build(ws, zs, parents):
        n = min(len(ws), len(zs) + 1, len(parents) + 1)
        g = nx.DiGraph()
        names = [f"n{i}" for i in range(n)]
        g.add_node(names[0], w=ws[0])
        for i in range(1, n):
            g.add_node(names[i], w=ws[i])
            parent = names[parents[i - 1] % i]
            g.add_edge(parent, names[i], z=zs[i - 1])
        return g, names

    return st.builds(
        build,
        st.lists(st.floats(min_value=0.5, max_value=10), min_size=min_n,
                 max_size=max_n),
        st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=min_n - 1,
                 max_size=max_n - 1),
        st.lists(st.integers(min_value=0, max_value=10), min_size=min_n - 1,
                 max_size=max_n - 1),
    )


class TestApi:
    def test_requires_arborescence(self):
        g = nx.DiGraph()
        g.add_node("a", w=1.0)
        g.add_node("b", w=1.0)
        g.add_edge("a", "b", z=0.1)
        g.add_edge("b", "a", z=0.1)
        with pytest.raises(ValueError):
            DLSTree(g, "a")

    def test_requires_two_nodes(self):
        g = nx.DiGraph()
        g.add_node("a", w=1.0)
        with pytest.raises(ValueError):
            DLSTree(g, "a")

    def test_requires_positive_links(self):
        g = simple_tree()
        g.edges["r", "a"]["z"] = 0.0
        with pytest.raises(ValueError):
            DLSTree(g, "r")

    def test_bids_validation(self):
        g = simple_tree()
        with pytest.raises(ValueError, match="missing bids"):
            tree_with_bids(g, {"r": 1.0})
        with pytest.raises(KeyError):
            tree_with_bids(g, {"ghost": 1.0})
        with pytest.raises(ValueError):
            tree_with_bids(g, {"r": -1.0, "a": 1.0, "b": 1.0, "a1": 1.0})

    def test_missing_exec_rejected(self):
        mech = DLSTree(simple_tree(), "r")
        w = {"r": 4.0, "a": 3.0, "b": 6.0, "a1": 2.0}
        bad = dict(w)
        del bad["b"]
        with pytest.raises(ValueError, match="w_exec"):
            mech.run(w, bad)


class TestCanonicalOrder:
    def test_insertion_order_irrelevant(self):
        # Same topology inserted in two different child orders must
        # produce identical mechanism outcomes.
        g1 = nx.DiGraph()
        g1.add_node("r", w=4.0)
        g1.add_node("a", w=3.0)
        g1.add_node("b", w=6.0)
        g1.add_edge("r", "a", z=0.5)   # slow link inserted first
        g1.add_edge("r", "b", z=0.1)
        g2 = nx.DiGraph()
        g2.add_node("r", w=4.0)
        g2.add_node("b", w=6.0)
        g2.add_node("a", w=3.0)
        g2.add_edge("r", "b", z=0.1)   # fast link inserted first
        g2.add_edge("r", "a", z=0.5)
        w = {"r": 4.0, "a": 3.0, "b": 6.0}
        r1 = DLSTree(g1, "r").truthful_run(w)
        r2 = DLSTree(g2, "r").truthful_run(w)
        assert r1.makespan_reported == pytest.approx(r2.makespan_reported)
        assert sorted(r1.payments) == pytest.approx(sorted(r2.payments))

    def test_canonical_beats_bad_order(self):
        # The reordering is not cosmetic: it strictly improves the
        # makespan when the insertion order was fast-link-last.
        g_bad = nx.DiGraph()
        g_bad.add_node("r", w=2.0)
        g_bad.add_node("slow", w=2.0)
        g_bad.add_node("fast", w=2.0)
        g_bad.add_edge("r", "slow", z=3.0)
        g_bad.add_edge("r", "fast", z=0.1)
        t_bad = collapse_tree(g_bad, "r").w_equivalent
        mech = DLSTree(g_bad, "r")
        t_canon = collapse_tree(mech.topology, "r").w_equivalent
        assert t_canon < t_bad


class TestExclusionSemantics:
    def test_leaf_exclusion_drops_node(self):
        g = tree_with_bids(simple_tree(),
                           {"r": 4.0, "a": 3.0, "b": 6.0, "a1": 2.0})
        t = tree_excluded_makespan(g, "r", "b")
        reduced = g.copy()
        reduced.remove_node("b")
        assert t == pytest.approx(collapse_tree(reduced, "r").w_equivalent)

    def test_internal_exclusion_keeps_relay(self):
        g = tree_with_bids(simple_tree(),
                           {"r": 4.0, "a": 3.0, "b": 6.0, "a1": 2.0})
        t = tree_excluded_makespan(g, "r", "a")
        assert t == pytest.approx(
            collapse_tree(g, "r", disabled={"a"}).w_equivalent)
        # a1 is still reachable through the relay: the exclusion value is
        # finite and larger than full participation.
        full = collapse_tree(g, "r").w_equivalent
        assert full < t < np.inf

    def test_root_exclusion_is_relay(self):
        g = tree_with_bids(simple_tree(),
                           {"r": 4.0, "a": 3.0, "b": 6.0, "a1": 2.0})
        t = tree_excluded_makespan(g, "r", "r")
        assert t == pytest.approx(
            collapse_tree(g, "r", disabled={"r"}).w_equivalent)


class TestMechanismProperties:
    @given(random_tree_strategy())
    @settings(max_examples=60, deadline=None)
    def test_voluntary_participation_any_links(self, built):
        g, names = built
        mech = DLSTree(g, names[0])
        w = {n: g.nodes[n]["w"] for n in names}
        r = mech.truthful_run(w)
        assert min(r.utilities) >= -1e-9

    @given(random_tree_strategy(),
           st.integers(min_value=0, max_value=6),
           st.floats(min_value=0.4, max_value=2.5))
    @settings(max_examples=80, deadline=None)
    def test_strategyproofness_any_links(self, built, i_raw, factor):
        g, names = built
        mech = DLSTree(g, names[0])
        w = {n: g.nodes[n]["w"] for n in names}
        node = names[i_raw % len(names)]
        idx = mech.nodes.index(node)
        u_truth = mech.truthful_run(w).utilities[idx]
        bids = dict(w)
        bids[node] = factor * w[node]
        assert mech.run(bids, w).utilities[idx] <= u_truth + 1e-9

    @given(random_tree_strategy(),
           st.integers(min_value=0, max_value=6),
           st.floats(min_value=1.0, max_value=2.5))
    @settings(max_examples=50, deadline=None)
    def test_slacking_dominated(self, built, i_raw, factor):
        g, names = built
        mech = DLSTree(g, names[0])
        w = {n: g.nodes[n]["w"] for n in names}
        node = names[i_raw % len(names)]
        idx = mech.nodes.index(node)
        u_truth = mech.truthful_run(w).utilities[idx]
        w_exec = dict(w)
        w_exec[node] = factor * w[node]
        assert mech.run(w, w_exec).utilities[idx] <= u_truth + 1e-9

    def test_payment_identities(self):
        mech = DLSTree(simple_tree(), "r")
        w = {"r": 4.0, "a": 3.0, "b": 6.0, "a1": 2.0}
        r = mech.truthful_run(w)
        for q, c, b in zip(r.payments, r.compensations, r.bonuses):
            assert q == pytest.approx(c + b)
        for u, b in zip(r.utilities, r.bonuses):
            assert u == pytest.approx(b)
