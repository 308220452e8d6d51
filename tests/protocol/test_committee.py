"""Engine integration for the referee committee.

Pins the tentpole guarantees:

* **f = 0 equivalence** — an all-honest committee settles byte-identically
  to the single trusted referee on honest, deviant and faulty runs;
* **Byzantine tolerance** — N = 4 with one Byzantine member (every
  strategy) produces the same verdicts as the trusted referee and the
  ledger still conserves;
* **certificate enforcement** — a verdict without a verifying quorum
  certificate can never move money.
"""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.agents.processor import ProcessorAgent
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.core.quorum import (
    BYZANTINE_STRATEGIES,
    CommitteeConfig,
    QuorumError,
)
from repro.core.referee import verdict_to_dict
from repro.dlt.platform import NetworkKind
from repro.io import protocol_result_to_dict
from repro.network.faults import (
    CrashFault,
    FaultPlan,
    MessageFault,
    RefereeFault,
)
from repro.network.messages import MessageKind
from repro.protocol.phases import Phase

W = [2.0, 3.0, 5.0, 4.0]
Z = 0.4
KIND = NetworkKind.NCP_FE

DEVIANT = {1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}
WRONG_PAYER = {2: AgentBehavior(deviations={Deviation.WRONG_PAYMENTS})}


def run(committee=None, *, behaviors=None, fault_plan=None,
        bidding_mode="atomic", seed=17):
    return DLSBLNCP(W, KIND, Z, config=EngineConfig(
        behaviors=behaviors, num_blocks=60, pki_seed=seed,
        fault_plan=fault_plan, bidding_mode=bidding_mode,
        committee=committee)).run()


def settlement(result) -> dict:
    """The archival dump minus telemetry (traffic, spans, certificates)."""
    doc = protocol_result_to_dict(result)
    for key in ("traffic", "spans", "certificates"):
        doc.pop(key, None)
    return doc


SCENARIOS = {
    "honest": {},
    "deviant": {"behaviors": DEVIANT},
    "wrong-payments": {"behaviors": WRONG_PAYER},
    "crash": {"fault_plan": FaultPlan(crashes=(
        CrashFault("P2", phase=Phase.PROCESSING_LOAD, progress=0.5),))},
    "droppy-commit": {"bidding_mode": "commit",
                      "fault_plan": FaultPlan(seed=11, messages=(
                          MessageFault(kind=MessageKind.BID,
                                       probability=0.2),))},
}


class TestHonestCommitteeEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_settlement_identical_to_single_referee(self, scenario):
        kwargs = SCENARIOS[scenario]
        baseline = run(None, **kwargs)
        quorum = run(CommitteeConfig(size=4), **kwargs)
        assert settlement(quorum) == settlement(baseline)

    def test_every_verdict_carries_a_certificate(self):
        result = run(CommitteeConfig(size=4), behaviors=DEVIANT)
        assert result.verdicts
        assert len(result.certificates) >= len(result.verdicts)

    def test_single_member_committee_still_certifies(self):
        result = run(CommitteeConfig(size=1), behaviors=DEVIANT)
        assert settlement(result) == settlement(run(None, behaviors=DEVIANT))
        assert result.certificates


class TestByzantineTolerance:
    @pytest.mark.parametrize("strategy", BYZANTINE_STRATEGIES)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_one_byzantine_member_changes_nothing(self, scenario, strategy):
        kwargs = SCENARIOS[scenario]
        baseline = run(None, **kwargs)
        quorum = run(CommitteeConfig(size=4, byzantine=((0, strategy),)),
                     **kwargs)
        assert ([verdict_to_dict(v) for v in quorum.verdicts]
                == [verdict_to_dict(v) for v in baseline.verdicts])
        assert quorum.payments == baseline.payments
        assert quorum.balances == baseline.balances

    @pytest.mark.parametrize("strategy", BYZANTINE_STRATEGIES)
    def test_ledger_conserves_under_quorum_redistribution(self, strategy):
        result = run(CommitteeConfig(size=4, byzantine=((0, strategy),)),
                     behaviors=DEVIANT)
        assert result.verdicts, "the deviant must be convicted"
        assert abs(sum(result.balances.values())) < 1e-9
        fined = sum(result.balances[n] for n in result.verdicts[0].fined_names)
        assert fined < 0  # the offender pays...
        workers = set(result.balances) - {"user"}
        assert all(result.balances[n] > 0 for n in workers
                   if n not in result.verdicts[0].fined_names)  # ...others gain

    def test_byzantine_rounds_show_up_in_spans(self):
        result = run(CommitteeConfig(size=4, byzantine=((0, "silent"),)),
                     behaviors=DEVIANT)
        assert sum(s.quorum_rounds for s in result.spans) >= 2

    def test_fault_plan_injects_referee_strategy(self):
        plan = FaultPlan(referees=(
            RefereeFault("referee-1", action="fine-steal"),))
        baseline = run(None, behaviors=DEVIANT)
        quorum = run(CommitteeConfig(size=4), behaviors=DEVIANT,
                     fault_plan=plan)
        assert ([verdict_to_dict(v) for v in quorum.verdicts]
                == [verdict_to_dict(v) for v in baseline.verdicts])

    def test_crashed_member_burns_its_leadership_round(self):
        plan = FaultPlan(referees=(RefereeFault("referee-1",
                                                action="crash"),))
        quorum = run(CommitteeConfig(size=4), behaviors=DEVIANT,
                     fault_plan=plan)
        baseline = run(None, behaviors=DEVIANT)
        assert ([verdict_to_dict(v) for v in quorum.verdicts]
                == [verdict_to_dict(v) for v in baseline.verdicts])
        assert sum(s.quorum_rounds for s in quorum.spans) >= 2


class TestQuorumFailure:
    def test_whole_committee_silent_raises(self):
        committee = CommitteeConfig(
            size=4, byzantine=tuple((i, "silent") for i in range(4)),
            max_rounds=4)
        with pytest.raises(QuorumError, match="no quorum"):
            run(committee, behaviors=DEVIANT)


class TestCertificateEnforcement:
    def test_uncertified_verdict_is_rejected(self):
        from repro.core.fines import FinePolicy
        from repro.core.quorum import RefereeCommittee
        from repro.core.referee import Fine, RefereeVerdict
        from repro.crypto.pki import PKI
        from repro.protocol.context import (
            EngagementContext,
            PhaseDeadlines,
            RetryPolicy,
        )

        pki = PKI(seed=5)
        committee = RefereeCommittee(pki, FinePolicy())
        ctx = EngagementContext(
            agents=[], originator=None, kind=KIND, z=Z, num_blocks=60,
            bidding_mode="atomic", policy=FinePolicy(), pki=pki,
            user_key=pki.register("user"), referee=committee, infra=None,
            bus=None, memo=None, deadlines=PhaseDeadlines(),
            retry=RetryPolicy(), fault_plan=None, order=[],
            adjudicator=committee)
        forged = RefereeVerdict(
            case="forged", fines=(Fine("P1", 99.0, "invented"),),
            rewards={}, compensated={}, terminates=True)
        with pytest.raises(QuorumError, match="certificate"):
            ctx.apply_verdict(forged)

    def test_quorum_traffic_on_the_wire(self):
        result = run(CommitteeConfig(size=4), behaviors=DEVIANT)
        kinds = result.traffic.by_kind
        assert kinds[MessageKind.QUORUM_PROPOSAL] >= 3
        assert kinds[MessageKind.QUORUM_VOTE] >= 2
        assert kinds[MessageKind.QUORUM_CERT] >= 1

    def test_certificates_archived_in_dump(self):
        doc = protocol_result_to_dict(run(CommitteeConfig(size=4),
                                          behaviors=DEVIANT))
        assert doc["certificates"]
        cert = doc["certificates"][0]
        assert cert["format"] == "repro/quorum-cert/v1"
        assert len(cert["votes"]) >= 3

    def test_no_certificates_key_without_committee(self):
        doc = protocol_result_to_dict(run(None, behaviors=DEVIANT))
        assert "certificates" not in doc


class TestLazyBidVectors:
    """The payment case's bid vectors are collected once, and only when
    a payment vector is wrong, however many referees judge the case."""

    @staticmethod
    def count_collections(monkeypatch) -> list[str]:
        calls = []
        collect = ProcessorAgent.bid_vector_messages

        def counting(agent, order):
            calls.append(agent.name)
            return collect(agent, order)

        monkeypatch.setattr(ProcessorAgent, "bid_vector_messages", counting)
        return calls

    @pytest.mark.parametrize("size", [None, 4])
    def test_collected_once_per_wrong_payment_case(self, monkeypatch, size):
        calls = self.count_collections(monkeypatch)
        committee = CommitteeConfig(size=size) if size else None
        result = run(committee, behaviors=WRONG_PAYER)
        assert [v.case for v in result.verdicts] == ["payment-verification"]
        assert sorted(calls) == ["P1", "P2", "P3", "P4"]

    def test_never_collected_when_every_vector_is_right(self, monkeypatch):
        calls = self.count_collections(monkeypatch)
        run(CommitteeConfig(size=4))
        assert calls == []
