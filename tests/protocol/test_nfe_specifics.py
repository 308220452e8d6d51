"""NCP-NFE-specific protocol behaviour.

The no-front-end system has asymmetries the generic tests can gloss
over: the originator is the *last* processor, it never computes before
its sends finish, and terminated-run compensation must reflect that it
had not commenced work.
"""

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind
from repro.protocol.phases import Phase
from tests.conftest import PROTO_W4 as W, PROTO_Z as Z


class TestOriginatorRole:
    def test_originator_is_last(self):
        mech = DLSBLNCP(W, NetworkKind.NCP_NFE, Z)
        assert mech.engine.originator.name == "P4"

    def test_originator_ships_everyone_else(self):
        from repro.network.messages import MessageKind

        mech = DLSBLNCP(W, NetworkKind.NCP_NFE, Z)
        out = mech.run()
        loads = [m for m in mech.engine.bus.log
                 if m.kind is MessageKind.LOAD]
        assert len(loads) == len(W) - 1
        assert all(m.sender == "P4" for m in loads)
        assert {m.recipients[0] for m in loads} == {"P1", "P2", "P3"}


class TestTerminationCompensation:
    def test_nfe_originator_never_compensated_for_uncommenced_work(self):
        # Dispute by P2: in NFE the originator (P4) has NOT begun
        # computing (no front end), so the verdict must not compensate
        # it; only P1 (received before P2) has commenced.
        out = DLSBLNCP(W, NetworkKind.NCP_NFE, Z, behaviors={
            3: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P2",
                                               "delta_blocks": 2})}).run()
        assert out.terminal_phase is Phase.ALLOCATING_LOAD
        v = out.verdicts[0]
        assert "P4" not in v.compensated
        assert "P1" in v.compensated
        assert out.costs["P4"] == 0.0
        assert out.costs["P1"] > 0

    def test_fe_originator_always_compensated_on_dispute(self):
        # Contrast: the FE originator computes from t = 0, so it is
        # compensated whenever a later dispute terminates the run —
        # unless it is itself the fined party.
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            2: AgentBehavior(deviations={Deviation.FALSE_ALLOCATION_CLAIM})
        }).run()
        v = out.verdicts[0]
        assert list(out.fined) == ["P3"]
        assert "P1" in v.compensated  # FE originator had commenced


class TestDisputeOrdering:
    def test_earliest_recipient_claims_first(self):
        # Two victims short-shipped: the first in allocation order files
        # the claim (its name appears in the CLAIM message).
        from repro.network.messages import MessageKind

        mech = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors={
            0: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P2",
                                               "delta_blocks": 2})})
        # also short P3 by manipulating the plan through a second victim
        # is not expressible via one deviation; instead verify the
        # single-victim case files from the victim itself.
        out = mech.run()
        claims = [m for m in mech.engine.bus.log
                  if m.kind is MessageKind.CLAIM]
        assert claims
        assert claims[0].sender == "P2"

    def test_nfe_dispute_claimant_index_semantics(self):
        # NFE: the originator P4 short-ships P3 (the last recipient);
        # P1, P2 commenced before P3's dispute, P4 did not.
        out = DLSBLNCP(W, NetworkKind.NCP_NFE, Z, behaviors={
            3: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P3",
                                               "delta_blocks": 2})}).run()
        assert set(out.verdicts[0].compensated) == {"P1", "P2"}
