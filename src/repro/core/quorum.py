"""Byzantine referee committee: quorum-certified verdicts.

The paper's single concession to trust is the passive referee of
Section 4 — every other role runs "without control processors".  This
module removes that last trusted box: ``N`` referees, each holding its
own key in the PKI, adjudicate every evidence case through a
DLS-consensus-shaped state machine,

* **phase-locked rounds** — round ``r`` of a case has exactly one
  leader, ``members[r mod N]``;
* **a rotating leader** that adjudicates the case locally
  (:meth:`~repro.core.referee.Referee.propose_verdict`) and sends each
  member a signed proposal;
* **votes**: every member re-derives the verdict from the same evidence
  (:meth:`~repro.core.referee.Referee.validate_verdict`) and signs a
  vote for the proposal's value digest iff it agrees;
* **a quorum certificate** (:class:`repro.crypto.certificates.QuorumCertificate`)
  of ``N - f`` votes, which the engine verifies before applying any
  fine.

With ``N >= 3f + 1`` the committee tolerates ``f`` Byzantine members:
at most ``f`` votes can back a corrupted value, and ``f < N - f``, so a
wrong verdict can never assemble a certificate (safety); rotating past
at most ``f`` faulty leaders always reaches an honest one whose honest
proposal collects the ``N - f`` honest votes (liveness).

This module is transport-free (core layer): :meth:`RefereeCommittee.decide`
runs the rounds in-process, and the protocol layer's
``CommitteeAdjudicator`` re-drives the identical member logic over the
simulated bus so proposals and votes are countable, droppable traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fines import FinePolicy
from repro.core.referee import (
    EvidenceCase,
    Referee,
    RefereeVerdict,
    verdict_from_dict,
    verdict_to_dict,
)
from repro.crypto.certificates import (
    QuorumCertificate,
    tolerated_faults,
    value_digest,
    verify_certificate,
    vote_payload,
)
from repro.crypto.pki import PKI
from repro.crypto.signatures import SignedMessage, SigningKey

__all__ = [
    "HONEST",
    "SILENT",
    "EQUIVOCATE",
    "FINE_STEAL",
    "REFEREE_STRATEGIES",
    "BYZANTINE_STRATEGIES",
    "tolerated_faults",
    "proposal_payload",
    "QuorumError",
    "CommitteeConfig",
    "CommitteeMember",
    "QuorumDecision",
    "RefereeCommittee",
]

#: Member strategies.  ``HONEST`` follows the protocol; the other three
#: are the Byzantine behaviours of the threat model: ``SILENT`` never
#: proposes or votes (crash-equivalent), ``EQUIVOCATE`` proposes
#: different verdicts to different members and rubber-stamps whatever it
#: is shown, ``FINE_STEAL`` only backs verdicts that pay itself and, as
#: leader, redirects the fine pot into its own pocket.
HONEST = "honest"
SILENT = "silent"
EQUIVOCATE = "equivocate"
FINE_STEAL = "fine-steal"
REFEREE_STRATEGIES = (HONEST, SILENT, EQUIVOCATE, FINE_STEAL)
BYZANTINE_STRATEGIES = (SILENT, EQUIVOCATE, FINE_STEAL)


class QuorumError(RuntimeError):
    """No quorum certificate could be assembled within the round budget,
    or a verdict reached the engine without a verifying certificate."""


def proposal_payload(case: str, round_index: int, verdict: dict) -> dict:
    """The payload a round leader signs when proposing *verdict*."""
    return {
        "type": "quorum-proposal",
        "case": case,
        "round": int(round_index),
        "verdict": verdict,
    }


@dataclass(frozen=True)
class CommitteeConfig:
    """Shape of a referee committee.

    ``size`` is ``N``; ``faults`` is the tolerated ``f`` (default: the
    maximum ``(N-1)//3``); ``byzantine`` assigns strategies to member
    indices, e.g. ``((0, "silent"),)`` makes the first member (and
    round-0 leader, so rotation is exercised) Byzantine.  More than
    ``faults`` Byzantine assignments are allowed — experiments beyond
    the tolerance bound are how the bound is demonstrated.
    """

    size: int = 4
    faults: int | None = None
    byzantine: tuple[tuple[int, str], ...] = ()
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"committee size must be a positive int, "
                             f"got {self.size!r}")
        if self.faults is not None:
            if not 0 <= self.faults <= tolerated_faults(self.size):
                raise ValueError(
                    f"committee of {self.size} tolerates at most "
                    f"f={tolerated_faults(self.size)} (need N >= 3f+1); "
                    f"got f={self.faults}")
        object.__setattr__(self, "byzantine",
                           tuple((int(i), str(s)) for i, s in self.byzantine))
        seen: set[int] = set()
        for index, strategy in self.byzantine:
            if not 0 <= index < self.size:
                raise ValueError(f"byzantine index {index} out of range "
                                 f"for committee of {self.size}")
            if strategy not in BYZANTINE_STRATEGIES:
                raise ValueError(
                    f"unknown referee strategy {strategy!r}; expected one "
                    f"of {list(BYZANTINE_STRATEGIES)}")
            if index in seen:
                raise ValueError(f"duplicate byzantine index {index}")
            seen.add(index)
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    @property
    def f(self) -> int:
        return tolerated_faults(self.size) if self.faults is None \
            else self.faults

    @property
    def quorum(self) -> int:
        """Votes needed for a certificate: ``N - f``."""
        return self.size - self.f

    @property
    def rounds_budget(self) -> int:
        """Leader rotations before a case is declared undecidable.

        Three full rotations: one leader per member per rotation is
        already enough to pass every faulty leader, and the headroom
        absorbs rounds lost to transport faults rather than bad leaders.
        """
        return self.max_rounds if self.max_rounds is not None \
            else 3 * self.size

    def member_names(self) -> tuple[str, ...]:
        return tuple(f"referee-{i + 1}" for i in range(self.size))

    def strategy_for(self, index: int) -> str:
        for i, strategy in self.byzantine:
            if i == index:
                return strategy
        return HONEST


def _exonerating(verdict: RefereeVerdict) -> RefereeVerdict:
    """An equivocator's alternate story: nobody deviated, nothing moves."""
    return RefereeVerdict(case=verdict.case, fines=(), rewards={},
                          compensated={}, terminates=False)


def _stolen(verdict: RefereeVerdict, thief: str) -> RefereeVerdict:
    """A fine-stealer's story: the whole pot is 'redistributed' to it."""
    pot = verdict.total_collected
    return RefereeVerdict(case=verdict.case, fines=verdict.fines,
                          rewards={thief: pot}, compensated={},
                          terminates=verdict.terminates)


@dataclass
class CommitteeMember:
    """One referee in the committee: a key, a local judge, a strategy."""

    name: str
    key: SigningKey
    referee: Referee
    strategy: str = HONEST

    def adjudicate(self, case: EvidenceCase) -> RefereeVerdict:
        return self.referee.propose_verdict(case)

    # -- leader role --------------------------------------------------------

    def proposals(self, case: EvidenceCase, round_index: int,
                  recipients: tuple[str, ...],
                  ) -> dict[str, SignedMessage] | None:
        """Signed proposal per recipient; ``None`` if this leader stalls.

        An honest (or fine-stealing) leader sends everyone the same
        proposal object; an equivocating leader splits the committee,
        telling even-indexed recipients the true verdict and odd-indexed
        ones that nobody deviated.
        """
        if self.strategy == SILENT:
            return None
        verdict = self.adjudicate(case)
        if self.strategy == FINE_STEAL:
            verdict = _stolen(verdict, self.name)
        out: dict[str, SignedMessage] = {}
        signed_true: SignedMessage | None = None
        signed_alt: SignedMessage | None = None
        for j, recipient in enumerate(recipients):
            if self.strategy == EQUIVOCATE and j % 2 == 1:
                if signed_alt is None:
                    signed_alt = self.key.sign(proposal_payload(
                        case.label, round_index,
                        verdict_to_dict(_exonerating(verdict))))
                out[recipient] = signed_alt
            else:
                if signed_true is None:
                    signed_true = self.key.sign(proposal_payload(
                        case.label, round_index, verdict_to_dict(verdict)))
                out[recipient] = signed_true
        return out

    # -- validator role -----------------------------------------------------

    def vote_on(self, case: EvidenceCase, round_index: int,
                proposal: SignedMessage, *, leader: str,
                pki: PKI) -> SignedMessage | None:
        """A signed vote for the proposal's value digest, or ``None``.

        Honest members accept only a well-formed proposal, signed by the
        expected round leader, whose verdict matches their own
        independent adjudication of the same evidence.
        """
        if self.strategy == SILENT:
            return None
        payload = proposal.payload
        well_formed = (
            isinstance(payload, dict)
            and payload.get("type") == "quorum-proposal"
            and payload.get("case") == case.label
            and payload.get("round") == round_index
            and isinstance(payload.get("verdict"), dict)
            and proposal.signer == leader
            and pki.verify(proposal)
        )
        if not well_formed:
            return None
        verdict_data = payload["verdict"]
        if self.strategy == EQUIVOCATE:
            agree = True  # rubber-stamps anything it is shown
        elif self.strategy == FINE_STEAL:
            rewards = verdict_data.get("rewards", {})
            agree = bool(rewards.get(self.name))
        else:
            agree = self.referee.validate_verdict(
                case, verdict_from_dict(verdict_data))
        if not agree:
            return None
        return self.key.sign(vote_payload(
            case.label, round_index, value_digest(verdict_data)))


@dataclass(frozen=True)
class QuorumDecision:
    """A decided case: the binding verdict plus its certificate."""

    case: str
    verdict: RefereeVerdict
    certificate: QuorumCertificate
    rounds: int


class RefereeCommittee:
    """Drop-in replacement for the trusted :class:`Referee`.

    Exposes the same five ``judge_*`` methods, but every call runs the
    quorum state machine: the verdict returned is the one decoded from
    a verified :class:`QuorumCertificate`, retrievable afterwards via
    :meth:`certificate_for` (the engine demands it before applying
    fines).  With ``f = 0`` honest members, round 0 decides immediately
    and the verdict is bit-identical to what the lone trusted referee
    would have produced — the differential tests pin exactly that.
    """

    def __init__(self, pki: PKI, policy: FinePolicy | None = None, *,
                 config: CommitteeConfig | None = None, memo=None) -> None:
        self.pki = pki
        self.policy = policy or FinePolicy()
        self.config = config or CommitteeConfig()
        self.members: list[CommitteeMember] = []
        for index, name in enumerate(self.config.member_names()):
            key = pki.register(name)
            judge = Referee(pki, self.policy, memo=memo)
            self.members.append(CommitteeMember(
                name, key, judge, self.config.strategy_for(index)))
        self._case_seq = 0
        self._pending: dict[int, QuorumCertificate] = {}
        self.certificates: list[QuorumCertificate] = []
        self.rounds_used = 0

    # -- roster -------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.members)

    def leader_for(self, round_index: int) -> CommitteeMember:
        return self.members[round_index % len(self.members)]

    def set_strategy(self, name: str, strategy: str) -> None:
        """Reassign one member's strategy (fault-plan injection hook)."""
        if strategy not in REFEREE_STRATEGIES:
            raise ValueError(f"unknown referee strategy {strategy!r}")
        for member in self.members:
            if member.name == name:
                member.strategy = strategy
                return
        raise ValueError(f"no committee member named {name!r}")

    # -- case lifecycle -----------------------------------------------------

    def new_case(self, method: str, **kwargs) -> EvidenceCase:
        self._case_seq += 1
        return EvidenceCase(method, kwargs,
                            label=f"{method}#{self._case_seq}")

    def assemble(self, case: EvidenceCase, round_index: int, leader: str,
                 proposals: dict[str, SignedMessage],
                 votes: list[SignedMessage],
                 ) -> QuorumCertificate | None:
        """Build a certificate if any proposed value reached quorum.

        The assembler is untrusted plumbing: it groups votes by value
        digest, and only a digest with ``N - f`` votes *and* a matching
        proposal (so the certified value itself is known) yields a
        certificate — which the engine then re-verifies independently.
        """
        values: dict[str, dict] = {}
        for signed in proposals.values():
            payload = signed.payload
            if isinstance(payload, dict) and isinstance(
                    payload.get("verdict"), dict):
                values[value_digest(payload["verdict"])] = payload["verdict"]
        tally: dict[str, list[SignedMessage]] = {}
        for vote in votes:
            payload = vote.payload
            if not isinstance(payload, dict):
                continue
            digest = payload.get("value")
            if digest in values:
                tally.setdefault(digest, []).append(vote)
        for digest, backing in tally.items():
            distinct: dict[str, SignedMessage] = {}
            for vote in backing:
                distinct.setdefault(vote.signer, vote)
            if len(distinct) >= self.config.quorum:
                return QuorumCertificate(
                    case=case.label, round_index=round_index, leader=leader,
                    value=values[digest],
                    votes=tuple(distinct.values()),
                    committee=self.names, threshold=self.config.quorum)
        return None

    def record_decision(self, case: EvidenceCase, round_index: int,
                        cert: QuorumCertificate) -> QuorumDecision:
        """Book a verified certificate and mint the binding verdict."""
        self.rounds_used += round_index + 1
        self.certificates.append(cert)
        verdict = verdict_from_dict(cert.value)
        self._pending[id(verdict)] = cert
        return QuorumDecision(case.label, verdict, cert, round_index + 1)

    def certificate_for(self, verdict: RefereeVerdict,
                        ) -> QuorumCertificate | None:
        """The certificate backing *verdict*, if this committee minted it."""
        return self._pending.get(id(verdict))

    # -- transport-free decision loop --------------------------------------

    def decide(self, case: EvidenceCase, *,
               unreachable: frozenset[str] = frozenset()) -> QuorumDecision:
        """Run rounds in-process until a certificate verifies.

        *unreachable* simulates crashed members (no proposals, no
        votes); the protocol layer's adjudicator instead derives
        reachability from the fault plan and moves every proposal and
        vote across the bus.
        """
        for round_index in range(self.config.rounds_budget):
            leader = self.leader_for(round_index)
            if leader.name in unreachable:
                continue
            proposals = leader.proposals(case, round_index, self.names)
            if proposals is None:
                continue
            votes = []
            for member in self.members:
                if member.name in unreachable:
                    continue
                signed = proposals.get(member.name)
                if signed is None:
                    continue
                vote = member.vote_on(case, round_index, signed,
                                      leader=leader.name, pki=self.pki)
                if vote is not None:
                    votes.append(vote)
            cert = self.assemble(case, round_index, leader.name,
                                 proposals, votes)
            if cert is not None and verify_certificate(cert, self.pki):
                return self.record_decision(case, round_index, cert)
        raise QuorumError(
            f"no quorum for case {case.label!r} after "
            f"{self.config.rounds_budget} rounds "
            f"(committee={self.config.size}, quorum={self.config.quorum})")

    # -- Referee-compatible facade ------------------------------------------

    def _judge(self, method: str, **kwargs) -> RefereeVerdict:
        return self.decide(self.new_case(method, **kwargs)).verdict

    def judge_equivocation(self, claimant, accused, evidence, participants,
                           fine) -> RefereeVerdict:
        return self._judge("judge_equivocation", claimant=claimant,
                           accused=accused, evidence=evidence,
                           participants=participants, fine=fine)

    def judge_commitment_violation(self, claimant, accused, evidence,
                                   commitment, participants,
                                   fine) -> RefereeVerdict:
        return self._judge("judge_commitment_violation", claimant=claimant,
                           accused=accused, evidence=evidence,
                           commitment=commitment, participants=participants,
                           fine=fine)

    def judge_unresponsive(self, unresponsive, survivors) -> RefereeVerdict:
        return self._judge("judge_unresponsive", unresponsive=unresponsive,
                           survivors=survivors)

    def judge_allocation_dispute(self, **kwargs) -> RefereeVerdict:
        return self._judge("judge_allocation_dispute", **kwargs)

    def judge_payment_vectors(self, submissions, **kwargs) -> RefereeVerdict:
        return self._judge("judge_payment_vectors", submissions=submissions,
                           **kwargs)
