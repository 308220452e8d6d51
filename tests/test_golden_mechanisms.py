"""Golden tests for the architecture-extension mechanisms.

Hand-derived reference values for tiny star / chain / tree instances,
pinning the exclusion semantics (the one design decision per topology)
to numbers a reviewer can recompute on paper.
"""

import networkx as nx
import pytest

from repro.core.dls_chain import DLSChain, chain_excluded_makespan
from repro.core.dls_star import DLSStar, star_excluded_makespan
from repro.core.dls_tree import DLSTree
from repro.dlt.architectures import StarNetwork


class TestStarGolden:
    """Star with w = (1, 1), z = (1, 1) == CP bus with z = 1.

    alpha = (2/3, 1/3); T = alpha_1 (z + w) = 4/3.
    Excluding either worker: single worker over its link: T = z + w = 2.
    Bonus = 2 - 4/3 = 2/3 each; Q = C + B = alpha + 2/3.
    """

    def test_values(self):
        mech = DLSStar([1.0, 1.0])
        r = mech.truthful_run([1.0, 1.0])
        assert r.alpha == pytest.approx([2 / 3, 1 / 3])
        assert r.makespan_reported == pytest.approx(4 / 3)
        assert r.bonuses == pytest.approx([2 / 3, 2 / 3])
        assert r.payments == pytest.approx([2 / 3 + 2 / 3, 1 / 3 + 2 / 3])

    def test_exclusions(self):
        star = StarNetwork((1.0, 1.0), (1.0, 1.0))
        assert star_excluded_makespan(star, 0) == pytest.approx(2.0)
        assert star_excluded_makespan(star, 1) == pytest.approx(2.0)

    def test_canonical_order_golden(self):
        # w = (1, 1), z = (2, 1): canonical order serves link 2 first.
        # Sorted: worker B (z=1) then A (z=2).
        # k = w_B / (z_A + w_A) = 1/3 -> weights (1, 1/3), alpha_sorted
        # = (3/4, 1/4); T = alpha_B z_B + alpha_B w_B = 3/4 + 3/4 = 3/2.
        mech = DLSStar([2.0, 1.0])
        r = mech.truthful_run([1.0, 1.0])
        assert r.makespan_reported == pytest.approx(1.5)
        # original indexing: worker 0 (slow link) got 1/4.
        assert r.alpha == pytest.approx([1 / 4, 3 / 4])


class TestChainGolden:
    """Chain w = (1, 1), hop z = 1.

    Equal finish: a1 w1 = z a2 + a2 w2 -> a1 = 2 a2 -> alpha = (2/3, 1/3).
    T = a1 w1 = 2/3 (head computes from t = 0).
    Excluding the tail: head alone: T = 1.
    Excluding the head (it keeps relaying): entry delay z*1 = 1 plus the
    tail alone: T = 1 + 1 = 2.
    """

    def test_values(self):
        mech = DLSChain([1.0])
        r = mech.truthful_run([1.0, 1.0])
        assert r.alpha == pytest.approx([2 / 3, 1 / 3])
        assert r.makespan_reported == pytest.approx(2 / 3)

    def test_exclusions(self):
        assert chain_excluded_makespan([1.0, 1.0], [1.0], 1) == pytest.approx(1.0)
        assert chain_excluded_makespan([1.0, 1.0], [1.0], 0) == pytest.approx(2.0)

    def test_bonuses(self):
        r = DLSChain([1.0]).truthful_run([1.0, 1.0])
        # B_head = 2 - 2/3 = 4/3; B_tail = 1 - 2/3 = 1/3
        assert r.bonuses == pytest.approx([4 / 3, 1 / 3])


class TestTreeGolden:
    """Two-node tree: root(w=1) --z=1--> leaf(w=1).

    This is exactly the NCP-FE bus with m = 2, z = 1:
    alpha = (2/3, 1/3), T = 2/3.
    Excluding the leaf: root alone: T = 1.
    Excluding the root (relay): leaf behind a z=1 link with a
    pure-distributor hub: T = z + w = 2.
    """

    def test_values(self):
        g = nx.DiGraph()
        g.add_node("r", w=1.0)
        g.add_node("l", w=1.0)
        g.add_edge("r", "l", z=1.0)
        mech = DLSTree(g, "r")
        r = mech.truthful_run({"r": 1.0, "l": 1.0})
        assert r.alpha == pytest.approx([2 / 3, 1 / 3])
        assert r.makespan_reported == pytest.approx(2 / 3)
        assert r.bonuses == pytest.approx([4 / 3, 1 / 3])

    def test_matches_ncp_fe_bus(self):
        from repro.core.dls_bl import DLSBL
        from repro.dlt.platform import NetworkKind

        g = nx.DiGraph()
        g.add_node("r", w=2.0)
        g.add_node("l", w=3.0)
        g.add_edge("r", "l", z=0.5)
        tree_r = DLSTree(g, "r").truthful_run({"r": 2.0, "l": 3.0})
        bus_r = DLSBL(NetworkKind.NCP_FE, 0.5).truthful_run([2.0, 3.0])
        assert tree_r.alpha == pytest.approx(bus_r.alpha)
        assert tree_r.payments == pytest.approx(bus_r.payments)
        assert tree_r.makespan_reported == pytest.approx(bus_r.makespan_reported)
