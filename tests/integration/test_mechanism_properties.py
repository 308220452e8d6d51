"""End-to-end mechanism properties through the full distributed protocol.

These tests exercise Theorems 5.1-5.3 at the *protocol* level (bus,
signatures, referee), complementing the algebraic tests in
tests/core/: the distributed mechanism must exhibit the same incentive
structure as the centralized one it redundantly computes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.behaviors import AgentBehavior, misreport, slow_execution
from repro.core.dls_bl import DLSBL
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind


def ncp_instances():
    return st.tuples(
        st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=2, max_size=6),
        st.floats(min_value=0.05, max_value=0.45),
        st.sampled_from([NetworkKind.NCP_FE, NetworkKind.NCP_NFE]),
    )


class TestProtocolMatchesAlgebra:
    @given(ncp_instances())
    @settings(max_examples=40, deadline=None)
    def test_honest_protocol_settles_dls_bl_payments(self, inst):
        w_raw, frac, kind = inst
        w = list(np.asarray(w_raw))
        z = frac * min(w)
        out = DLSBLNCP(w, kind, z).run()
        central = DLSBL(kind, z).truthful_run(w)
        assert out.completed
        for i, name in enumerate(out.order):
            assert out.payments[name] == pytest.approx(central.payments[i],
                                                       rel=1e-9, abs=1e-9)


class TestStrategyproofnessThroughProtocol:
    @given(ncp_instances(),
           st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.5, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_misreporting_never_beats_truth(self, inst, i_raw, factor):
        w_raw, frac, kind = inst
        w = list(np.asarray(w_raw))
        z = frac * min(w)
        i = i_raw % len(w)
        truth = DLSBLNCP(w, kind, z).run()
        lied = DLSBLNCP(w, kind, z, behaviors={i: misreport(factor)}).run()
        name = truth.order[i]
        assert lied.utilities[name] <= truth.utilities[name] + 1e-9

    @given(ncp_instances(),
           st.integers(min_value=0, max_value=5),
           st.floats(min_value=1.0, max_value=2.5))
    @settings(max_examples=40, deadline=None)
    def test_slacking_never_beats_full_speed(self, inst, i_raw, factor):
        w_raw, frac, kind = inst
        w = list(np.asarray(w_raw))
        z = frac * min(w)
        i = i_raw % len(w)
        truth = DLSBLNCP(w, kind, z).run()
        slow = DLSBLNCP(w, kind, z, behaviors={i: slow_execution(factor)}).run()
        name = truth.order[i]
        assert slow.utilities[name] <= truth.utilities[name] + 1e-9


class TestStrategyproofnessAcrossTransports:
    @given(ncp_instances(),
           st.integers(min_value=0, max_value=5),
           st.floats(min_value=0.5, max_value=2.0),
           st.sampled_from(["commit", "naive"]))
    @settings(max_examples=30, deadline=None)
    def test_misreporting_never_beats_truth_p2p(self, inst, i_raw, factor,
                                                mode):
        # Incentives are transport-independent for *consistent* bids:
        # point-to-point delivery with or without commitments settles
        # the same payments, so misreporting stays dominated.
        w_raw, frac, kind = inst
        w = list(np.asarray(w_raw))
        z = frac * min(w)
        i = i_raw % len(w)
        truth = DLSBLNCP(w, kind, z, bidding_mode=mode).run()
        lied = DLSBLNCP(w, kind, z, behaviors={i: misreport(factor)},
                        bidding_mode=mode).run()
        name = truth.order[i]
        assert lied.utilities[name] <= truth.utilities[name] + 1e-9


class TestVoluntaryParticipationThroughProtocol:
    @given(ncp_instances())
    @settings(max_examples=40, deadline=None)
    def test_truthful_agents_never_lose(self, inst):
        w_raw, frac, kind = inst
        w = list(np.asarray(w_raw))
        z = frac * min(w)
        out = DLSBLNCP(w, kind, z).run()
        assert all(u >= -1e-9 for u in out.utilities.values())


class TestLedgerInvariants:
    @given(ncp_instances(),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_money_conserved_under_deviation(self, inst, deviant_raw):
        from repro.agents.behaviors import Deviation

        w_raw, frac, kind = inst
        w = list(np.asarray(w_raw))
        z = frac * min(w)
        i = deviant_raw % len(w)
        mech = DLSBLNCP(w, kind, z, behaviors={i: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})})
        out = mech.run()
        # Every coin a deviant loses lands with a non-deviant (or stays
        # escrowed); nothing is minted.
        escrow = mech.engine.infra.balance("escrow")
        assert sum(out.balances.values()) + escrow == pytest.approx(0.0, abs=1e-9)
        assert escrow >= -1e-12
