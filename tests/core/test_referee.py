"""Unit tests for the referee's evidence judging (offences i-v)."""

import numpy as np
import pytest

from repro.core.fines import FinePolicy
from repro.core.payments import payments as compute_payments
from repro.core.referee import Fine, Referee
from repro.crypto.blocks import divide_load, quantize_blocks
from repro.crypto.pki import PKI
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind

PARTICIPANTS = ["P1", "P2", "P3"]
Z = 0.5
KIND = NetworkKind.NCP_FE
FINE = 10.0


@pytest.fixture
def setup():
    pki = PKI()
    keys = {n: pki.register(n) for n in PARTICIPANTS}
    user = pki.register("user")
    referee = Referee(pki, FinePolicy())
    return pki, keys, user, referee


def signed_bid(keys, name, bid):
    return keys[name].sign({"processor": name, "bid": bid})


def bid_vector(keys, bids):
    return [signed_bid(keys, n, b) for n, b in bids.items()]


class TestEquivocationJudging:
    def test_proven_equivocation_fines_accused(self, setup):
        _, keys, _, referee = setup
        a = signed_bid(keys, "P2", 2.0)
        b = signed_bid(keys, "P2", 3.0)
        v = referee.judge_equivocation("P1", "P2", (a, b), PARTICIPANTS, FINE)
        assert v.fined_names == ("P2",)
        assert v.fines[0].offence == "equivocation"
        assert v.terminates

    def test_reward_split_among_others(self, setup):
        _, keys, _, referee = setup
        a, b = signed_bid(keys, "P2", 2.0), signed_bid(keys, "P2", 3.0)
        v = referee.judge_equivocation("P1", "P2", (a, b), PARTICIPANTS, FINE)
        assert v.rewards == {"P1": pytest.approx(5.0), "P3": pytest.approx(5.0)}
        assert v.total_collected == pytest.approx(v.total_distributed)

    def test_unfounded_claim_fines_claimant(self, setup):
        _, keys, _, referee = setup
        a = signed_bid(keys, "P2", 2.0)
        v = referee.judge_equivocation("P1", "P2", (a, a), PARTICIPANTS, FINE)
        assert v.fined_names == ("P1",)
        assert v.fines[0].offence == "unsubstantiated-claim"
        assert "P2" in v.rewards and "P3" in v.rewards

    def test_forged_evidence_fines_claimant(self, setup):
        from repro.crypto.signatures import SignedMessage

        _, keys, _, referee = setup
        real = signed_bid(keys, "P2", 2.0)
        forged = SignedMessage("P2", {"processor": "P2", "bid": 9.0}, real.signature)
        v = referee.judge_equivocation("P1", "P2", (real, forged), PARTICIPANTS, FINE)
        assert v.fined_names == ("P1",)

    def test_accusation_against_wrong_name(self, setup):
        _, keys, _, referee = setup
        a, b = signed_bid(keys, "P2", 2.0), signed_bid(keys, "P2", 3.0)
        # Evidence proves P2 equivocated, but the claim accuses P3.
        v = referee.judge_equivocation("P1", "P3", (a, b), PARTICIPANTS, FINE)
        assert v.fined_names == ("P1",)


class TestAllocationDisputes:
    def _judge(self, setup, *, received_blocks, claimant_blocks=None,
               claimant_vector=None, originator_vector=None,
               cooperates=True, num_blocks=100, work_done=None):
        pki, keys, user, referee = setup
        bids = {"P1": 2.0, "P2": 3.0, "P3": 5.0}
        return referee.judge_allocation_dispute(
            claimant="P2",
            originator="P1",
            claimant_vector=claimant_vector or bid_vector(keys, bids),
            originator_vector=originator_vector or bid_vector(keys, bids),
            participants=PARTICIPANTS,
            order=PARTICIPANTS,
            kind=KIND,
            z=Z,
            received_blocks=received_blocks,
            num_blocks=num_blocks,
            claimant_blocks=claimant_blocks or [],
            user_name="user",
            fine=FINE,
            work_done=work_done,
            originator_cooperates=cooperates,
        )

    def entitled(self, num_blocks=100):
        net = BusNetwork((2.0, 3.0, 5.0), Z, KIND)
        return quantize_blocks(allocate(net), num_blocks)[1]

    def test_under_assignment_fines_originator(self, setup):
        e = self.entitled()
        v = self._judge(setup, received_blocks=e - 2)
        assert v.fined_names == ("P1",)
        assert v.fines[0].offence == "under-assignment"

    def test_refused_remedy_label(self, setup):
        e = self.entitled()
        v = self._judge(setup, received_blocks=e - 2, cooperates=False)
        assert v.fines[0].offence == "refused-remedy"

    def test_over_assignment_fines_originator_with_block_proof(self, setup):
        _, keys, user, _ = setup
        e = self.entitled()
        blocks = divide_load(user, 1.0, 100)[: e + 3]
        v = self._judge(setup, received_blocks=e + 3, claimant_blocks=blocks)
        assert v.fined_names == ("P1",)
        assert v.fines[0].offence == "over-assignment"

    def test_over_claim_without_blocks_fines_claimant(self, setup):
        e = self.entitled()
        v = self._judge(setup, received_blocks=e + 3, claimant_blocks=[])
        assert v.fined_names == ("P2",)
        assert v.fines[0].offence == "unsubstantiated-claim"

    def test_false_claim_when_count_correct(self, setup):
        e = self.entitled()
        v = self._judge(setup, received_blocks=e)
        assert v.fined_names == ("P2",)

    def test_manipulated_own_entry_detected_as_equivocation(self, setup):
        pki, keys, user, referee = setup
        bids = {"P1": 2.0, "P2": 3.0, "P3": 5.0}
        lied = dict(bids, P2=9.0)
        v = self._judge(setup,
                        received_blocks=self.entitled(),
                        claimant_vector=bid_vector(keys, lied))
        # P2's entry differs between the two authentic vectors: only P2
        # could have signed both versions.
        assert v.fined_names == ("P2",)
        assert v.fines[0].offence == "equivocated-bid"

    def test_unverifiable_vector_fines_submitter(self, setup):
        from repro.crypto.signatures import SigningKey

        pki, keys, user, referee = setup
        rogue = SigningKey("P3")  # unregistered key for P3's entry
        bids = {"P1": 2.0, "P2": 3.0}
        vec = bid_vector(keys, bids) + [rogue.sign({"processor": "P3", "bid": 1.0})]
        v = self._judge(setup, received_blocks=self.entitled(),
                        claimant_vector=vec)
        assert "P2" in v.fined_names  # the claimant submitted a bad vector

    def test_incomplete_vector_fines_submitter(self, setup):
        _, keys, _, _ = setup
        vec = bid_vector(keys, {"P1": 2.0, "P2": 3.0})  # P3 missing
        v = self._judge(setup, received_blocks=self.entitled(),
                        originator_vector=vec)
        assert "P1" in v.fined_names

    def test_work_done_compensated_first(self, setup):
        e = self.entitled()
        v = self._judge(setup, received_blocks=e - 1,
                        work_done={"P1": 1.5})
        assert v.compensated == {}  # P1 is the fined party; no self-comp
        v2 = self._judge(setup, received_blocks=e - 1,
                         work_done={"P3": 1.5})
        assert v2.compensated == {"P3": pytest.approx(1.5)}
        # remainder split among non-deviants
        assert v2.total_distributed == pytest.approx(v2.total_collected)


class TestPaymentJudging:
    def _submissions(self, setup, scale_for=None, contradict=None, omit=None):
        pki, keys, user, referee = setup
        bids = {"P1": 2.0, "P2": 3.0, "P3": 5.0}
        w_exec = dict(bids)
        net = BusNetwork((2.0, 3.0, 5.0), Z, KIND)
        q = compute_payments(net, np.array([2.0, 3.0, 5.0]))
        subs = {}
        for name in PARTICIPANTS:
            if name == omit:
                continue
            vec = [float(x) for x in q]
            if name == scale_for:
                vec = [x * 2 for x in vec]
            msgs = [keys[name].sign({"processor": name, "Q": vec})]
            if name == contradict:
                msgs.append(keys[name].sign({"processor": name,
                                             "Q": [x * 3 for x in vec]}))
            subs[name] = msgs
        return referee, subs, bids, w_exec

    def _judge(self, referee, subs, bids, w_exec):
        return referee.judge_payment_vectors(
            subs, participants=PARTICIPANTS, order=PARTICIPANTS,
            bids=bids, w_exec=w_exec, kind=KIND, z=Z, fine=FINE)

    def test_all_correct_no_action(self, setup):
        referee, subs, bids, w_exec = self._submissions(setup)
        v = self._judge(referee, subs, bids, w_exec)
        assert v.fines == ()
        assert not v.terminates

    def test_incorrect_vector_fined(self, setup):
        referee, subs, bids, w_exec = self._submissions(setup, scale_for="P2")
        v = self._judge(referee, subs, bids, w_exec)
        assert v.fined_names == ("P2",)
        assert v.fines[0].offence == "incorrect-payments"
        # xF/(m-x): 1 * 10 / 2 = 5 each
        assert v.rewards == {"P1": pytest.approx(5.0), "P3": pytest.approx(5.0)}

    def test_contradictory_vectors_fined(self, setup):
        referee, subs, bids, w_exec = self._submissions(setup, contradict="P3")
        v = self._judge(referee, subs, bids, w_exec)
        assert v.fined_names == ("P3",)
        assert v.fines[0].offence == "contradictory-payment-vectors"

    def test_missing_vector_fined(self, setup):
        referee, subs, bids, w_exec = self._submissions(setup, omit="P1")
        v = self._judge(referee, subs, bids, w_exec)
        assert v.fined_names == ("P1",)
        assert v.fines[0].offence == "missing-payment-vector"

    def test_multiple_offenders(self, setup):
        referee, subs, bids, w_exec = self._submissions(setup, scale_for="P1",
                                                        contradict="P2")
        v = self._judge(referee, subs, bids, w_exec)
        assert set(v.fined_names) == {"P1", "P2"}
        # 2F to the single correct processor
        assert v.rewards == {"P3": pytest.approx(2 * FINE)}

    def test_malformed_payload_fined(self, setup):
        pki, keys, user, referee = setup
        bids = {"P1": 2.0, "P2": 3.0, "P3": 5.0}
        net = BusNetwork((2.0, 3.0, 5.0), Z, KIND)
        q = compute_payments(net, np.array([2.0, 3.0, 5.0]))
        subs = {n: [keys[n].sign({"processor": n, "Q": [float(x) for x in q]})]
                for n in PARTICIPANTS}
        subs["P2"] = [keys["P2"].sign({"processor": "P2", "oops": True})]
        v = self._judge(referee, subs, bids, bids)
        assert v.fined_names == ("P2",)
        assert v.fines[0].offence == "malformed-payment-vector"


class TestVerdictInvariants:
    def test_money_conservation_every_case(self, setup):
        _, keys, _, referee = setup
        a, b = signed_bid(keys, "P2", 2.0), signed_bid(keys, "P2", 3.0)
        v = referee.judge_equivocation("P1", "P2", (a, b), PARTICIPANTS, FINE)
        assert v.total_distributed <= v.total_collected + 1e-12

    def test_fine_dataclass(self):
        f = Fine("P1", 5.0, "equivocation")
        assert f.who == "P1" and f.amount == 5.0
