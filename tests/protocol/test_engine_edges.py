"""Protocol engine edge cases: granularity extremes, tiny markets,
multiple simultaneous deviants, phase precedence."""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind
from repro.protocol.phases import Phase
from tests.conftest import PROTO_W4 as W, PROTO_Z as Z


class TestGranularityExtremes:
    def test_fewer_blocks_than_processors(self):
        # 2 blocks, 4 processors: two workers are entitled to 0 blocks.
        # Nobody should dispute (entitlements are common knowledge) and
        # payments still settle on the continuous alpha.
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, num_blocks=2).run()
        assert out.completed
        assert out.fined == {}
        assert sum(out.alpha.values()) == pytest.approx(1.0)

    def test_single_block(self):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, num_blocks=1).run()
        assert out.completed

    def test_huge_block_count(self):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, num_blocks=5000).run()
        assert out.completed
        assert out.traffic.by_kind.total() > 0

    def test_short_allocation_with_coarse_blocks_still_caught(self):
        # Even at 10 blocks, shipping one block short is detected.
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, num_blocks=10,
                       behaviors={0: AgentBehavior(
                           deviations={Deviation.SHORT_ALLOCATION},
                           deviation_params={"victim": "P2",
                                             "delta_blocks": 1})}).run()
        assert not out.completed
        assert list(out.fined) == ["P1"]


class TestTinyMarkets:
    def test_two_processors_honest(self, ncp_kind):
        out = DLSBLNCP([2.0, 3.0], ncp_kind, Z).run()
        assert out.completed
        assert all(u >= -1e-10 for u in out.utilities.values())

    def test_two_processors_deviant(self, ncp_kind):
        out = DLSBLNCP([2.0, 3.0], ncp_kind, Z, behaviors={
            0: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}).run()
        assert not out.completed
        assert list(out.fined) == ["P1"]
        # The single informer takes the whole fine.
        assert out.balances["P2"] == pytest.approx(out.fine_amount)


class TestMultipleDeviants:
    def test_earlier_phase_wins(self):
        # A bidding-phase offence terminates before the allocation-phase
        # offence can even occur.
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS}),
            0: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P3",
                                               "delta_blocks": 2}),
        }).run()
        assert out.terminal_phase is Phase.BIDDING
        assert list(out.fined) == ["P2"]

    def test_two_payment_phase_deviants_both_fined(self):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            1: AgentBehavior(deviations={Deviation.WRONG_PAYMENTS}),
            2: AgentBehavior(deviations={Deviation.CONTRADICTORY_PAYMENTS}),
        }).run()
        assert out.completed
        assert set(out.fined) == {"P2", "P3"}
        # 2F split between the 2 correct processors: F each.
        honest = DLSBLNCP(W, NetworkKind.NCP_FE, Z).run()
        assert out.balances["P1"] == pytest.approx(
            honest.balances["P1"] + out.fine_amount)

    def test_misreport_plus_deviation_composes(self):
        # A deviant that also lies about capacity: the fine applies, and
        # the misreport was baked into the fine base (computed on bids).
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            1: AgentBehavior(bid_factor=1.5,
                             deviations={Deviation.MULTIPLE_BIDS})}).run()
        assert list(out.fined) == ["P2"]
        assert out.bids["P2"] == pytest.approx(4.5)


class TestResultRecordConsistency:
    def test_alpha_defaults_zero_on_early_termination(self):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}).run()
        assert set(out.alpha) == set(out.order)
        assert all(v == 0.0 for v in out.alpha.values())

    def test_phi_empty_before_processing_phase(self):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            0: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P2",
                                               "delta_blocks": 2})}).run()
        assert out.phi == {}
        assert out.makespan_realized is None

    def test_costs_nonzero_only_for_started_workers(self):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            0: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P4",
                                               "delta_blocks": 2})}).run()
        # P4 (last recipient) disputes; P1 (originator) and P2, P3 have
        # commenced.
        assert out.costs["P4"] == 0.0
        assert out.costs["P2"] > 0 and out.costs["P3"] > 0
