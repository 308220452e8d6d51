"""Bidding modes: atomic broadcast vs point-to-point with/without
commitments (paper footnote 1)."""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind
from repro.protocol.phases import Phase
from tests.conftest import PROTO_W4, PROTO_Z, run_protocol

W = PROTO_W4
Z = PROTO_Z
MODES = ("atomic", "commit", "naive")


def run(mode, behaviors=None, kind=NetworkKind.NCP_FE):
    return run_protocol(kind, behaviors, bidding_mode=mode)


def split_bids(victim="P3", factor=0.5):
    return {1: AgentBehavior(deviations={Deviation.SPLIT_BIDS},
                             deviation_params={"victim": victim,
                                               "split_bid_factor": factor})}


class TestHonestEquivalence:
    @pytest.mark.parametrize("mode", MODES)
    def test_honest_outcomes_identical_across_modes(self, mode, ncp_kind):
        base = DLSBLNCP(W, ncp_kind, Z).run()
        out = DLSBLNCP(W, ncp_kind, Z, bidding_mode=mode).run()
        assert out.completed
        for n in out.order:
            assert out.payments[n] == pytest.approx(base.payments[n])

    def test_commit_mode_publishes_commitments(self):
        from repro.network.messages import MessageKind

        mech = DLSBLNCP(W, NetworkKind.NCP_FE, Z, bidding_mode="commit")
        out = mech.run()
        assert out.traffic.by_kind[MessageKind.COMMITMENT] == len(W)

    def test_p2p_bid_traffic_is_quadratic(self):
        from repro.network.messages import MessageKind

        mech_a = DLSBLNCP(W, NetworkKind.NCP_FE, Z)
        out_a = mech_a.run()
        mech_p = DLSBLNCP(W, NetworkKind.NCP_FE, Z, bidding_mode="naive")
        out_p = mech_p.run()
        m = len(W)
        assert out_a.traffic.by_kind[MessageKind.BID] == m        # broadcasts
        assert out_p.traffic.by_kind[MessageKind.BID] == m * (m - 1)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="bidding_mode"):
            DLSBLNCP(W, NetworkKind.NCP_FE, Z, bidding_mode="gossip")


class TestSignsPerEngagement:
    """An honest engagement signs one bid and one payment vector per
    processor: the own point-to-point bid is signed once, and load
    blocks are signed only when the referee reads them."""

    @pytest.mark.parametrize("mode", MODES)
    def test_honest_engagement_signs_two_messages_per_processor(
            self, mode, monkeypatch):
        from repro.crypto.signatures import SigningKey

        signers = []
        real_sign = SigningKey.sign

        def counting_sign(key, message, **kwargs):
            signers.append(key.name)
            return real_sign(key, message, **kwargs)

        monkeypatch.setattr(SigningKey, "sign", counting_sign)
        out = run(mode)
        assert out.completed
        assert sorted(signers) == sorted(out.order * 2)

    @pytest.mark.parametrize("mode", ["commit", "naive"])
    def test_own_bid_reaches_peers_with_its_verdict_stamp(self, mode):
        out = run(mode)
        bidding = next(s for s in out.spans if s.phase == "BIDDING")
        m = len(W)
        # m distinct bids: one HMAC each, at the sender's own archive.
        # Each of the m (m - 1) receptions checks the bid once, reading
        # the stamp that check left.
        assert bidding.sig_cache_misses == m
        assert bidding.sig_cache_hits == m * (m - 1)


class TestSplitBidsUnderCommitments:
    def test_caught_in_bidding_phase(self, ncp_kind):
        out = run("commit", split_bids(), ncp_kind)
        assert not out.completed
        assert out.terminal_phase is Phase.BIDDING
        assert list(out.fined) == ["P2"]
        assert out.verdicts[0].fines[0].offence == "commitment-violation"

    def test_no_work_wasted(self):
        out = run("commit", split_bids())
        assert all(c == 0.0 for c in out.costs.values())

    def test_informers_rewarded(self):
        out = run("commit", split_bids())
        for n in ("P1", "P3", "P4"):
            assert out.balances[n] > 0


class TestSplitBidsNaive:
    def test_slips_past_bidding_caught_at_allocation(self, ncp_kind):
        out = run("naive", split_bids(), ncp_kind)
        assert not out.completed
        assert out.terminal_phase is Phase.ALLOCATING_LOAD
        assert list(out.fined) == ["P2"]

    def test_work_already_wasted(self):
        # The victim disputes only after earlier workers started: the
        # cost of the missing commitments is measurable wasted compute.
        out = run("naive", split_bids(victim="P4"))
        started = [n for n, c in out.costs.items() if c > 0]
        assert started  # somebody burned cycles before detection

    def test_small_split_survives_to_payment_phase(self):
        # A split too small to move any block count slips through the
        # allocation phase too; the payment-phase equivocation
        # cross-check still pins the right culprit (never a victim).
        out = run("naive", split_bids(factor=0.999999))
        if out.fined:
            assert list(out.fined) == ["P2"]
        # Whatever happened, no honest agent was fined (Lemma 5.2).
        for n in ("P1", "P3", "P4"):
            assert n not in out.fined


class TestSplitBidsImpossibleUnderAtomicBroadcast:
    def test_atomic_mode_ignores_split_flag(self):
        # Atomic broadcast physically delivers one message to all: the
        # deviation degenerates to an ordinary (single) bid.
        out = run("atomic", split_bids())
        assert out.completed
        assert out.fined == {}
