"""Integration tests for the DLS-BL-NCP protocol engine."""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation, misreport, slow_execution, truthful
from repro.core.dls_bl import DLSBL
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.core.fines import FinePolicy
from repro.dlt.platform import NetworkKind
from repro.network.messages import MessageKind
from repro.protocol.phases import Phase
from tests.conftest import PROTO_W3, PROTO_Z, run_protocol

W = PROTO_W3
Z = PROTO_Z


def run(kind=NetworkKind.NCP_FE, behaviors=None, w=W, z=Z, **kw):
    return run_protocol(kind, behaviors, w=w, z=z, **kw)


class TestApiValidation:
    def test_rejects_cp_kind(self):
        with pytest.raises(ValueError, match="without control processors"):
            DLSBLNCP(W, NetworkKind.CP, Z)

    def test_rejects_single_processor(self):
        with pytest.raises(ValueError):
            DLSBLNCP([2.0], NetworkKind.NCP_FE, Z)

    def test_behavior_list_length_checked(self):
        with pytest.raises(ValueError):
            DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors=[truthful()])


class TestHonestRun:
    def test_completes_with_phase_complete(self, ncp_kind):
        out = run(ncp_kind)
        assert out.completed
        assert out.terminal_phase is Phase.COMPLETE
        assert out.verdicts == ()

    def test_matches_centralized_mechanism(self, ncp_kind):
        # The distributed protocol must settle exactly the payments the
        # centralized DLS-BL computes (Theorem 5.2's reduction).
        out = run(ncp_kind)
        central = DLSBL(ncp_kind, Z).truthful_run(W)
        for i, name in enumerate(out.order):
            assert out.payments[name] == pytest.approx(central.payments[i])
            assert out.utilities[name] == pytest.approx(central.utilities[i])

    def test_utilities_nonnegative(self, ncp_kind):
        out = run(ncp_kind)
        assert all(u >= -1e-10 for u in out.utilities.values())

    def test_money_conserved(self, ncp_kind):
        out = run(ncp_kind)
        total = sum(out.balances.values())
        assert total == pytest.approx(0.0, abs=1e-9)

    def test_user_pays_sum_of_payments(self, ncp_kind):
        out = run(ncp_kind)
        assert out.user_cost == pytest.approx(sum(out.payments.values()))

    def test_traffic_recorded(self, ncp_kind):
        out = run(ncp_kind)
        assert out.traffic.by_kind[MessageKind.BID] == 3
        assert out.traffic.by_kind[MessageKind.PAYMENT_VECTOR] == 3
        assert out.traffic.by_kind[MessageKind.LOAD] == 2  # originator keeps its share
        assert out.traffic.by_kind[MessageKind.METER] == 1

    def test_deterministic(self, ncp_kind):
        a, b = run(ncp_kind), run(ncp_kind)
        assert a.payments == b.payments
        assert a.traffic.messages == b.traffic.messages


class TestMisreportingWithinProtocol:
    def test_misreport_completes_but_pays_less(self, ncp_kind):
        honest = run(ncp_kind)
        lied = run(ncp_kind, behaviors={1: misreport(1.5)})
        assert lied.completed  # misreporting is NOT a protocol offence
        assert lied.utilities["P2"] <= honest.utilities["P2"] + 1e-9

    def test_slow_execution_completes_but_pays_less(self, ncp_kind):
        honest = run(ncp_kind)
        slow = run(ncp_kind, behaviors={2: slow_execution(1.5)})
        assert slow.completed
        assert slow.utilities["P3"] <= honest.utilities["P3"] + 1e-9
        assert slow.phi["P3"] == pytest.approx(slow.alpha["P3"] * 5.0 * 1.5)


class TestBiddingPhaseDeviations:
    def test_multiple_bids_terminates_in_bidding(self, ncp_kind):
        out = run(ncp_kind, behaviors={1: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})})
        assert not out.completed
        assert out.terminal_phase is Phase.BIDDING
        assert list(out.fined) == ["P2"]
        assert out.fined["P2"] == pytest.approx(out.fine_amount)

    def test_informers_rewarded_evenly(self, ncp_kind):
        out = run(ncp_kind, behaviors={1: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})})
        share = out.fine_amount / 2
        assert out.balances["P1"] == pytest.approx(share)
        assert out.balances["P3"] == pytest.approx(share)
        assert out.balances["P2"] == pytest.approx(-out.fine_amount)

    def test_deviant_utility_negative_compliant_positive(self, ncp_kind):
        out = run(ncp_kind, behaviors={1: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})})
        assert out.utilities["P2"] < 0
        assert out.utilities["P1"] > 0 and out.utilities["P3"] > 0

    def test_false_equivocation_claim_fines_claimant(self, ncp_kind):
        out = run(ncp_kind, behaviors={0: AgentBehavior(
            deviations={Deviation.FALSE_EQUIVOCATION_CLAIM},
            deviation_params={"victim": "P3"})})
        assert not out.completed
        assert list(out.fined) == ["P1"]

    def test_detection_survives_silent_observers(self, ncp_kind):
        # One honest monitor suffices.
        out = run(ncp_kind, behaviors={
            0: AgentBehavior(deviations={Deviation.SILENT_OBSERVER}),
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS}),
        })
        assert list(out.fined) == ["P2"]

    def test_all_silent_lets_cheat_pass_bidding(self, ncp_kind):
        # If nobody monitors, no claim is filed and the protocol runs on
        # (using the first bid).  This is why informer rewards exist.
        out = run(ncp_kind, behaviors={
            0: AgentBehavior(deviations={Deviation.SILENT_OBSERVER}),
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS,
                                         Deviation.SILENT_OBSERVER}),
            2: AgentBehavior(deviations={Deviation.SILENT_OBSERVER}),
        })
        assert out.completed


class TestAllocationPhaseDeviations:
    def originator_index(self, kind):
        return 0 if kind is NetworkKind.NCP_FE else len(W) - 1

    def test_short_allocation_fines_originator(self, ncp_kind):
        lo = self.originator_index(ncp_kind)
        victim = "P2"
        out = run(ncp_kind, behaviors={lo: AgentBehavior(
            deviations={Deviation.SHORT_ALLOCATION},
            deviation_params={"victim": victim, "delta_blocks": 3})})
        assert not out.completed
        assert out.terminal_phase is Phase.ALLOCATING_LOAD
        lo_name = f"P{lo + 1}"
        assert list(out.fined) == [lo_name]
        assert out.fined[lo_name] == pytest.approx(out.fine_amount)

    def test_over_allocation_fines_originator(self, ncp_kind):
        lo = self.originator_index(ncp_kind)
        out = run(ncp_kind, behaviors={lo: AgentBehavior(
            deviations={Deviation.OVER_ALLOCATION},
            deviation_params={"victim": "P2", "delta_blocks": 3})})
        assert not out.completed
        assert list(out.fined) == [f"P{lo + 1}"]

    def test_false_allocation_claim_fines_claimant(self, ncp_kind):
        claimant = 1  # not the originator in either kind (m=3)
        out = run(ncp_kind, behaviors={claimant: AgentBehavior(
            deviations={Deviation.FALSE_ALLOCATION_CLAIM})})
        assert not out.completed
        assert list(out.fined) == ["P2"]

    def test_workers_already_started_are_compensated(self):
        # NCP-FE: the originator P1 computes from t=0; when P3 disputes,
        # P1 (and P2, who received before P3) must be compensated.
        out = run(NetworkKind.NCP_FE, behaviors={
            0: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P3", "delta_blocks": 2})})
        assert not out.completed
        # P2 commenced work before the dispute; its compensation shows up
        # as a positive balance component beyond the informer share.
        v = out.verdicts[0]
        assert "P2" in v.compensated

    def test_manipulated_bid_vector_fines_manipulator(self, ncp_kind):
        # The claimant manipulates its own entry in the vector handed to
        # the referee after a genuine shortage: both get fined (the
        # originator case stays separate), the manipulator for
        # equivocated bids.
        lo = self.originator_index(ncp_kind)
        out = run(ncp_kind, behaviors={
            lo: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                              deviation_params={"victim": "P2", "delta_blocks": 3}),
            1: AgentBehavior(deviations={Deviation.MANIPULATED_BID_VECTOR}),
        })
        assert not out.completed
        assert "P2" in out.fined


class TestPaymentPhaseDeviations:
    def test_wrong_payments_fined_but_settles(self, ncp_kind):
        out = run(ncp_kind, behaviors={1: AgentBehavior(
            deviations={Deviation.WRONG_PAYMENTS})})
        assert out.completed  # work is done; referee recomputes Q
        assert list(out.fined) == ["P2"]
        # Correct processors split x*F/(m-x) on top of their payment.
        reward = out.fine_amount / 2
        honest = run(ncp_kind)
        assert out.balances["P1"] == pytest.approx(
            honest.balances["P1"] + reward)

    def test_contradictory_payment_vectors_fined(self, ncp_kind):
        out = run(ncp_kind, behaviors={2: AgentBehavior(
            deviations={Deviation.CONTRADICTORY_PAYMENTS})})
        assert out.completed
        assert list(out.fined) == ["P3"]

    def test_deviant_net_utility_below_honest(self, ncp_kind):
        honest = run(ncp_kind)
        out = run(ncp_kind, behaviors={1: AgentBehavior(
            deviations={Deviation.WRONG_PAYMENTS})})
        assert out.utilities["P2"] < honest.utilities["P2"]


class TestFineMagnitude:
    def test_fine_exceeds_compensation_sum(self, ncp_kind):
        out = run(ncp_kind, policy=FinePolicy(2.0))
        total_comp = sum(out.alpha[n] * W[i] for i, n in enumerate(out.order))
        assert out.fine_amount >= total_comp

    def test_sub_threshold_fine_can_make_deviation_pay(self):
        # With a fine far below the paper's bound, a bidding-phase
        # deviant can lose less than the honest utility it would forgo —
        # the deterrence argument (Lemma 5.1) needs F >= sum alpha_j w_j.
        tiny = FinePolicy(0.01)
        out = run(NetworkKind.NCP_FE, behaviors={1: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})}, policy=tiny)
        assert out.fined["P2"] < 0.1
