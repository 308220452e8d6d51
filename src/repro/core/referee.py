"""The referee: minimally-trusted conflict resolution for DLS-BL-NCP.

The referee (Section 4) differs fundamentally from the control
processor of DLS-BL: it is *passive* — it holds no processor
parameters, computes no allocations, and ships no load unless a
processor signals presumed cheating.  When signalled, it verifies the
presented evidence cryptographically and by recomputation, fines proven
deviants ``F``, fines *unfounded* accusers the same ``F`` (so finking is
truthful in equilibrium), redistributes the proceeds, and terminates
the protocol.

Offence catalogue (end of Section 4):

  (i)   multiple, inconsistent bids broadcast in the Bidding phase;
  (ii)  incorrect load assignments in the Allocating-Load phase
        (over- or under-shipping versus the computed ``alpha``);
  (iii) incorrect payment computation in the Computing-Payments phase;
  (iv)  manipulated bid vectors transmitted to the referee;
  (v)   unsubstantiated claims.

Every judging method returns a :class:`RefereeVerdict` — who is fined,
who is rewarded, and whether the protocol terminates — leaving the
monetary bookkeeping to the protocol engine so the referee itself stays
stateless between cases (it "remains passive" and "possesses no
processor parameters" when no conflict arises).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.core.fines import FinePolicy
from repro.core.payments import payments as compute_payments
from repro.crypto.blocks import LoadBlock, quantize_blocks, verify_blocks
from repro.crypto.pki import PKI
from repro.crypto.signatures import SignedMessage
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind

__all__ = [
    "Fine",
    "RefereeVerdict",
    "EvidenceCase",
    "Referee",
    "JUDGING_METHODS",
    "verdict_to_dict",
    "verdict_from_dict",
]


@dataclass(frozen=True)
class Fine:
    """A single imposed fine."""

    who: str
    amount: float
    offence: str


@dataclass(frozen=True)
class RefereeVerdict:
    """Outcome of one referee case.

    ``fines`` lists the penalized parties; ``rewards`` maps each
    beneficiary to its share of the proceeds; ``compensated`` maps
    processors that had already commenced work to their ``alpha_i w~_i``
    compensation (paid out of the collected fines before the even
    split); ``terminates`` mirrors the paper's rule that any fined
    offence ends the protocol immediately.
    """

    case: str
    fines: tuple[Fine, ...]
    rewards: dict[str, float] = field(default_factory=dict)
    compensated: dict[str, float] = field(default_factory=dict)
    terminates: bool = True

    @property
    def fined_names(self) -> tuple[str, ...]:
        return tuple(f.who for f in self.fines)

    @property
    def total_collected(self) -> float:
        return float(sum(f.amount for f in self.fines))

    @property
    def total_distributed(self) -> float:
        return float(sum(self.rewards.values()) + sum(self.compensated.values()))


def _no_action(case: str) -> RefereeVerdict:
    return RefereeVerdict(case=case, fines=(), terminates=False)


#: The referee's public judging surface.  An :class:`EvidenceCase` may
#: dispatch onto exactly these methods — the committee replays cases
#: through the same catalogue, so a malformed case can never reach a
#: private helper.
JUDGING_METHODS = frozenset({
    "judge_equivocation",
    "judge_commitment_violation",
    "judge_unresponsive",
    "judge_allocation_dispute",
    "judge_payment_vectors",
})


@dataclass(frozen=True, eq=False)
class EvidenceCase:
    """One adjudication request: a judging method plus its evidence.

    Splitting the *case* from the *judging* lets several referees
    adjudicate the same evidence independently: a committee leader
    proposes :meth:`Referee.propose_verdict` output and every validator
    re-derives it with :meth:`Referee.validate_verdict` before voting.
    ``label`` is the stable identifier quoted in quorum certificates;
    ``kwargs`` holds the evidence exactly as the engine collected it
    (signed messages, block lists, bid vectors — not serialized, so the
    case itself never leaves the process; only verdicts do).  A payment
    case's ``bid_vectors`` is the one lazy item: a callable that
    collects the agents' archives on its first call and returns that
    same snapshot to every later caller, so all referees judge one
    collection.
    """

    method: str
    kwargs: dict
    label: str = ""

    def __post_init__(self) -> None:
        if self.method not in JUDGING_METHODS:
            raise ValueError(
                f"unknown judging method {self.method!r}; "
                f"expected one of {sorted(JUDGING_METHODS)}")


def verdict_to_dict(verdict: RefereeVerdict) -> dict:
    """Plain-data encoding of a verdict — the value quorum votes certify.

    Matches the archival flattening in :mod:`repro.io` field for field,
    so a certified verdict and a dumped verdict are byte-identical under
    canonical JSON.
    """
    return {
        "case": verdict.case,
        "fines": [{"who": f.who, "amount": f.amount, "offence": f.offence}
                  for f in verdict.fines],
        "rewards": dict(verdict.rewards),
        "compensated": dict(verdict.compensated),
        "terminates": verdict.terminates,
    }


def verdict_from_dict(data: dict) -> RefereeVerdict:
    """Inverse of :func:`verdict_to_dict`."""
    return RefereeVerdict(
        case=str(data["case"]),
        fines=tuple(Fine(str(f["who"]), float(f["amount"]), str(f["offence"]))
                    for f in data["fines"]),
        rewards={str(k): float(v) for k, v in data["rewards"].items()},
        compensated={str(k): float(v)
                     for k, v in data["compensated"].items()},
        terminates=bool(data["terminates"]),
    )


class Referee:
    """Judges evidence; never initiates anything.

    Parameters
    ----------
    pki:
        The trusted key registry used to authenticate evidence.
    policy:
        Fine magnitude / redistribution policy.
    memo:
        Optional shared :class:`repro.perf.cache.ComputationCache`.
        The referee's recomputations (the alpha check in allocation
        disputes, the correct ``Q`` in payment verification) are pure
        functions of authenticated inputs, so when the engine runs
        memoized the referee reuses the same content-addressed results
        the honest agents computed.  ``None`` recomputes from scratch.
    """

    def __init__(self, pki: PKI, policy: FinePolicy | None = None,
                 *, memo=None) -> None:
        self.pki = pki
        self.policy = policy or FinePolicy()
        self.memo = memo

    # ------------------------------------------------------------------
    # proposal / validation split (committee support)
    # ------------------------------------------------------------------

    def propose_verdict(self, case: EvidenceCase) -> RefereeVerdict:
        """Adjudicate *case* by dispatching onto the judging catalogue.

        A single trusted referee proposes and applies in one step; in a
        committee the round leader proposes and N-f validators must
        independently reach the same verdict before it binds.
        """
        return getattr(self, case.method)(**case.kwargs)

    def validate_verdict(self, case: EvidenceCase,
                         verdict: RefereeVerdict) -> bool:
        """Re-derive *case* locally; True iff it encodes to *verdict*.

        Judging is deterministic given the evidence (recomputation over
        authenticated inputs), so honest validators agree bit-for-bit
        with an honest leader and reject any corrupted proposal.
        """
        return verdict_to_dict(self.propose_verdict(case)) == \
            verdict_to_dict(verdict)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _distribute(
        self,
        case: str,
        fines: list[Fine],
        participants: list[str],
        *,
        work_done: dict[str, float] | None = None,
    ) -> RefereeVerdict:
        """Build a verdict: fines in, compensation + even split out.

        ``work_done`` maps processor name to ``alpha_i * w~_i`` for
        processors that had commenced work before termination; they are
        made whole first, the remainder is split evenly among the
        non-deviating participants (Allocating-Load rules).
        """
        fined = {f.who for f in fines}
        beneficiaries = [p for p in participants if p not in fined]
        pot = sum(f.amount for f in fines)
        compensated: dict[str, float] = {}
        if work_done:
            for name, owed in work_done.items():
                if name not in fined and owed > 0:
                    pay = min(owed, pot)
                    compensated[name] = pay
                    pot -= pay
                    if pot <= 0:
                        break
        rewards: dict[str, float] = {}
        if beneficiaries and pot > 0:
            share = FinePolicy.informer_reward(pot, len(beneficiaries))
            rewards = {p: share for p in beneficiaries}
        return RefereeVerdict(case=case, fines=tuple(fines), rewards=rewards,
                              compensated=compensated, terminates=bool(fines))

    # ------------------------------------------------------------------
    # Offence (i): multiple, inconsistent bids  /  contradictory messages
    # ------------------------------------------------------------------

    def judge_equivocation(
        self,
        claimant: str,
        accused: str,
        evidence: tuple[SignedMessage, SignedMessage],
        participants: list[str],
        fine: float,
    ) -> RefereeVerdict:
        """Bidding-phase case: *claimant* presents two messages allegedly
        signed by *accused* with different contents.

        Proven ⇒ fine the accused; unfounded ⇒ fine the claimant
        (offence (v)).  Either way the reward ``F/(m-1)`` flows to the
        remaining processors and the protocol terminates.
        """
        a, b = evidence
        proven = (
            a.signer == accused
            and self.pki.proves_equivocation(a, b)
        )
        target = accused if proven else claimant
        offence = "equivocation" if proven else "unsubstantiated-claim"
        fines = [Fine(target, fine, offence)]
        return self._distribute("bidding-equivocation", fines, participants)

    def judge_commitment_violation(
        self,
        claimant: str,
        accused: str,
        evidence: tuple,
        commitment,
        participants: list[str],
        fine: float,
    ) -> RefereeVerdict:
        """Point-to-point bidding case (footnote 1): a received signed
        bid does not open the accused's published commitment.

        Proven ⇒ the accused equivocated between its commitment and a
        transmission; unfounded ⇒ the claimant is fined (offence v).
        """
        from repro.crypto.commitments import verify_commitment

        sm, nonce = evidence
        proven = (
            sm.signer == accused
            and commitment is not None
            and commitment.committer == accused
            and self.pki.verify(sm)
            and not verify_commitment(commitment, sm.payload, nonce)
        )
        target = accused if proven else claimant
        offence = "commitment-violation" if proven else "unsubstantiated-claim"
        return self._distribute("bidding-commitment",
                                [Fine(target, fine, offence)], participants)

    # ------------------------------------------------------------------
    # Fault (not offence): unresponsive processors
    # ------------------------------------------------------------------

    def judge_unresponsive(self, unresponsive: str,
                           survivors: list[str]) -> RefereeVerdict:
        """A processor stopped responding past its deadline (crash-stop).

        A crash is a *fault*, not a strategic deviation — the offence
        catalogue does not cover it, so no fine is imposed and nothing
        is redistributed.  The verdict does **not** terminate the
        protocol: the engine degrades gracefully instead, re-allocating
        the unfinished load over *survivors*.  The case string records
        who was declared dead so the verdict broadcast doubles as the
        membership change announcement.
        """
        del survivors  # recorded by the engine's reallocation, not here
        return RefereeVerdict(case=f"unresponsive:{unresponsive}",
                              fines=(), terminates=False)

    # ------------------------------------------------------------------
    # Offence (ii) + (iv): allocation disputes
    # ------------------------------------------------------------------

    def _authentic_bid_vector(
        self, vector: list[SignedMessage], participants: list[str]
    ) -> dict[str, float] | None:
        """Validate a submitted bid vector: one authentic signed bid per
        participant, no forgeries, no omissions.  Returns name->bid or
        ``None`` if the vector is manipulated (offence (iv))."""
        bids: dict[str, float] = {}
        for sm in vector:
            if not self.pki.verify(sm):
                return None
            payload = sm.payload
            if not isinstance(payload, dict) or payload.get("processor") != sm.signer:
                return None
            if sm.signer in bids:
                return None
            bids[sm.signer] = float(payload["bid"])
        if sorted(bids) != sorted(participants):
            return None
        return bids

    def judge_allocation_dispute(
        self,
        *,
        claimant: str,
        originator: str,
        claimant_vector: list[SignedMessage],
        originator_vector: list[SignedMessage],
        participants: list[str],
        order: list[str],
        kind: NetworkKind,
        z: float,
        received_blocks: int,
        num_blocks: int,
        claimant_blocks: list[LoadBlock],
        user_name: str,
        fine: float,
        work_done: dict[str, float] | None = None,
        originator_cooperates: bool = True,
    ) -> RefereeVerdict:
        """Allocating-Load case: *claimant* says its assignment differs
        from the computed ``alpha_i``.

        Both parties submit their signed bid vectors (offence (iv) if
        manipulated).  The referee recomputes ``alpha(b)``, quantizes it
        with the protocol's shared largest-remainder rule
        (:func:`repro.crypto.blocks.quantize_blocks`) and compares block
        counts:

        * over-assignment claims are substantiated by the claimant's
          possession of user-signed blocks beyond its share;
        * under-assignment is "more difficult to resolve primarily due
          to the absence of credible evidence" (Section 4); the paper
          has the referee act as an *intermediary* for the retransfer,
          which in our model means it learns the transport-verified
          delivered count (``received_blocks`` — the bus is reliable,
          atomic and tamper-proof, so delivery counts are ground truth).
          A genuine shortage fines the originator (offence ii, labelled
          ``refused-remedy`` when it also stonewalls the mediation);
          a fabricated shortage fines the claimant (offence v).

        This resolution is exactly Lemma 5.2-consistent: a processor is
        fined iff it actually deviated.
        """
        fines: list[Fine] = []
        c_bids = self._authentic_bid_vector(claimant_vector, participants)
        o_bids = self._authentic_bid_vector(originator_vector, participants)
        if c_bids is None:
            fines.append(Fine(claimant, fine, "manipulated-bid-vector"))
        if o_bids is None:
            fines.append(Fine(originator, fine, "manipulated-bid-vector"))
        if fines:
            return self._distribute("allocation-dispute", fines, participants,
                                    work_done=work_done)
        assert c_bids is not None and o_bids is not None
        if c_bids != o_bids:
            # Both vectors authenticate individually yet disagree — only
            # possible if some signer equivocated bids; the mismatching
            # entries identify the equivocator(s).
            for name in sorted(set(c_bids) | set(o_bids)):
                if c_bids.get(name) != o_bids.get(name):
                    fines.append(Fine(name, fine, "equivocated-bid"))
            return self._distribute("allocation-dispute", fines, participants,
                                    work_done=work_done)

        w = np.array([c_bids[name] for name in order])
        net = BusNetwork(tuple(w), z, kind, tuple(order))
        alpha = self.memo.allocation(net) if self.memo is not None else allocate(net)
        idx = order.index(claimant)
        entitled = quantize_blocks(alpha, num_blocks)[idx]

        if received_blocks > entitled:
            # Claim of over-assignment: blocks are the credible evidence.
            excess_proven = (
                verify_blocks(claimant_blocks, self.pki, user_name)
                and len(claimant_blocks) > entitled
            )
            target = originator if excess_proven else claimant
            offence = "over-assignment" if excess_proven else "unsubstantiated-claim"
            fines.append(Fine(target, fine, offence))
        elif received_blocks < entitled:
            # Genuine shortage established through mediation: the
            # originator deviated either by the original short shipment
            # or by refusing the remedial transfer.
            offence = "under-assignment" if originator_cooperates else "refused-remedy"
            fines.append(Fine(originator, fine, offence))
        else:
            fines.append(Fine(claimant, fine, "unsubstantiated-claim"))
        return self._distribute("allocation-dispute", fines, participants,
                                work_done=work_done)

    # ------------------------------------------------------------------
    # Offence (iii): payment-phase verification
    # ------------------------------------------------------------------

    def judge_payment_vectors(
        self,
        submissions: dict[str, list[SignedMessage]],
        *,
        participants: list[str],
        order: list[str],
        bids: dict[str, float],
        w_exec: dict[str, float],
        kind: NetworkKind,
        z: float,
        fine: float,
        bid_vectors: Callable[[], Mapping[str, list[SignedMessage]]]
                     | None = None,
    ) -> RefereeVerdict:
        """Computing-Payments case: verify the submitted ``Q`` vectors.

        *submissions* maps each processor to every signed
        ``(P_i, Q)`` message received from it.  Contradictory messages
        from one signer ⇒ fined.  Then all (single, authentic) vectors
        are compared for equality; any disagreement triggers the
        referee's own recomputation from the authenticated bids and
        meter readings, fining everyone whose vector is wrong.  Correct
        processors split ``x * F / (m - x)``.

        When *bid_vectors* is provided — a zero-argument callable
        returning each agent's archive of signed bids (the same object
        on every call), called only when some vector is wrong, the one
        case that reads them — the referee first cross-checks the
        archives for bid equivocation: on point-to-point networks a
        split-bidder poisons honest agents' views, and without this
        check the *victims'* honestly computed ``Q`` would look wrong.
        Any signer with two distinct authentic bids across the archives
        is fined instead, and nobody else is (Lemma 5.2: fines only for
        deviants).

        Returns a non-terminating, fine-free verdict when every vector
        is present, authentic, unique and correct.
        """
        fines: list[Fine] = []
        vectors: dict[str, list[float]] = {}
        for name in participants:
            msgs = submissions.get(name, [])
            authentic = [m for m in msgs if self.pki.verify(m) and m.signer == name]
            if not authentic:
                fines.append(Fine(name, fine, "missing-payment-vector"))
                continue
            payloads = {m.canonical for m in authentic}
            if len(payloads) > 1:
                fines.append(Fine(name, fine, "contradictory-payment-vectors"))
                continue
            payload = authentic[0].payload
            try:
                vectors[name] = [float(q) for q in payload["Q"]]
            except (KeyError, TypeError, ValueError):
                fines.append(Fine(name, fine, "malformed-payment-vector"))

        w = tuple(float(bids[name]) for name in order)
        exec_arr = np.array([w_exec[name] for name in order])
        if self.memo is not None:
            net = self.memo.network(w, z, kind, tuple(order))
            correct = self.memo.payments(net, exec_arr)
        else:
            correct = compute_payments(BusNetwork(w, z, kind, tuple(order)),
                                       exec_arr)
        # Exact-match fast path: honest vectors round-trip through the
        # same float list, so equality short-circuits the tolerance
        # check; only mismatching vectors pay the allclose cost.
        correct_list = [float(x) for x in correct]
        for name, q in vectors.items():
            if q == correct_list:
                continue
            if len(q) != len(order) or not np.allclose(q, correct, rtol=1e-9, atol=1e-9):
                fines.append(Fine(name, fine, "incorrect-payments"))

        if fines and bid_vectors is not None:
            equivocators = self._bid_equivocators(bid_vectors())
            if equivocators:
                # A poisoned bid view, not sloppy arithmetic, explains
                # the disagreement: fine the equivocators only.
                fines = [Fine(name, fine, "equivocated-bid")
                         for name in sorted(equivocators)]

        if not fines:
            return _no_action("payment-verification")
        return self._distribute("payment-verification", fines, participants)

    def _bid_equivocators(self, bid_vectors: Mapping[str, list[SignedMessage]]) -> set[str]:
        """Signers with >= 2 distinct authentic bids across the archives."""
        seen: dict[str, set[bytes]] = {}
        for vector in bid_vectors.values():
            for sm in vector:
                if not self.pki.verify(sm):
                    continue
                if not isinstance(sm.payload, dict):
                    continue
                if sm.payload.get("processor") != sm.signer:
                    continue
                seen.setdefault(sm.signer, set()).add(sm.canonical)
        return {name for name, payloads in seen.items() if len(payloads) > 1}
