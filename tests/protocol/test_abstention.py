"""Non-participation: 'If P_i does not wish to participate, it does not
broadcast a bid and it receives a utility of 0' (Section 4, Bidding)."""

import pytest

from repro.agents.behaviors import abstaining
from repro.core.dls_bl import DLSBL
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind
from repro.protocol.phases import Phase
from tests.conftest import PROTO_W4 as W, PROTO_Z as Z


class TestAbstention:
    def test_abstainer_gets_zero_everything(self, ncp_kind):
        # A non-originator abstains; the rest proceed without it.
        idx = 1
        out = DLSBLNCP(W, ncp_kind, Z, behaviors={idx: abstaining()}).run()
        assert out.completed
        assert "P2" not in out.participants
        assert out.utilities["P2"] == 0.0
        assert out.payments["P2"] == 0.0
        assert out.alpha["P2"] == 0.0

    def test_remaining_participants_reschedule(self, ncp_kind):
        out = DLSBLNCP(W, ncp_kind, Z, behaviors={1: abstaining()}).run()
        active = [n for n in out.order if n != "P2"]
        assert list(out.participants) == active
        assert sum(out.alpha[n] for n in active) == pytest.approx(1.0)
        # The reduced engagement equals DLS-BL on the reduced instance.
        reduced_w = [w for i, w in enumerate(W) if i != 1]
        central = DLSBL(ncp_kind, Z).truthful_run(reduced_w)
        for i, name in enumerate(active):
            assert out.payments[name] == pytest.approx(central.payments[i])

    def test_abstention_is_not_an_offence(self, ncp_kind):
        out = DLSBLNCP(W, ncp_kind, Z, behaviors={2: abstaining()}).run()
        assert out.fined == {}
        assert out.verdicts == ()

    def test_originator_abstaining_aborts_engagement(self, ncp_kind):
        lo = 0 if ncp_kind is NetworkKind.NCP_FE else len(W) - 1
        out = DLSBLNCP(W, ncp_kind, Z, behaviors={lo: abstaining()}).run()
        assert not out.completed
        assert out.terminal_phase is Phase.BIDDING
        assert out.participants != tuple(out.order)
        assert all(u == 0.0 for u in out.utilities.values())
        assert out.fined == {}

    def test_all_but_one_abstain_aborts(self, ncp_kind):
        behaviors = {i: abstaining() for i in range(1, len(W))}
        if ncp_kind is NetworkKind.NCP_NFE:
            behaviors = {i: abstaining() for i in range(len(W) - 1)}
        out = DLSBLNCP(W, ncp_kind, Z, behaviors=behaviors).run()
        assert not out.completed
        assert all(u == 0.0 for u in out.utilities.values())

    def test_voluntary_participation_makes_abstention_dominated(self, ncp_kind):
        # Truthful participation yields utility >= 0 = abstention:
        # voluntary participation is why rational agents join at all.
        joined = DLSBLNCP(W, ncp_kind, Z).run()
        out = DLSBLNCP(W, ncp_kind, Z, behaviors={1: abstaining()}).run()
        assert joined.utilities["P2"] >= out.utilities["P2"] - 1e-12

    def test_detection_still_works_with_abstainers(self, ncp_kind):
        from repro.agents.behaviors import AgentBehavior, Deviation

        behaviors = {
            1: abstaining(),
            2: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS}),
        }
        out = DLSBLNCP(W, ncp_kind, Z, behaviors=behaviors).run()
        assert list(out.fined) == ["P3"]
        # The abstainer is not among the reward beneficiaries.
        assert out.balances["P2"] == 0.0
