"""Quorum certificates: N-f signed votes binding one certified value.

A certificate is the committee analogue of a single referee's word: it
proves that at least ``threshold`` distinct committee members, each
identified by its key in the :class:`~repro.crypto.pki.PKI`, signed a
vote for the *same* value (addressed by content digest) in the *same*
round of the *same* case.  The engine verifies a certificate before
applying any fines, so no single referee — leader included — can bind
the ledger on its own.

The module is deliberately value-agnostic: it certifies any canonically
serializable plain-data value (the committee layer certifies encoded
:class:`~repro.core.referee.RefereeVerdict` dicts).  Keeping it below
``repro.core`` in the layering means the crypto substrate never learns
what a verdict is, mirroring how the signature layer never learns what
a bid is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.crypto.signatures import SignedMessage, canonical_bytes

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.crypto.pki import PKI

__all__ = [
    "CERTIFICATE_FORMAT",
    "tolerated_faults",
    "QuorumCertificate",
    "value_digest",
    "vote_payload",
    "verify_certificate",
]

#: Wire-format tag carried by archived certificates.
CERTIFICATE_FORMAT = "repro/quorum-cert/v1"


def tolerated_faults(size: int) -> int:
    """Largest ``f`` with ``size >= 3f + 1`` (0 for a lone referee).

    A committee of ``size`` members tolerates ``f`` Byzantine ones and
    certifies with ``size - f`` votes.  The one home of the rule: the
    committee layer and the wire's request checks both read it here.
    """
    return max(0, (int(size) - 1) // 3)


def value_digest(value: Any) -> str:
    """Content address of a certified value (SHA-256 of canonical JSON)."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def vote_payload(case: str, round_index: int, digest: str) -> dict:
    """The exact payload a committee member signs when voting.

    Votes bind (case, round, value-digest) — not the value itself — so a
    vote is small and a member provably cannot be quoted across rounds
    or cases: replaying a vote under a different round changes the
    expected payload and the signature no longer verifies.
    """
    return {
        "type": "quorum-vote",
        "case": case,
        "round": int(round_index),
        "value": digest,
    }


@dataclass(frozen=True)
class QuorumCertificate:
    """``threshold`` verified votes for one value in one round.

    ``value`` is the certified plain-data value; ``votes`` are the
    signed vote messages (each one's payload must equal
    :func:`vote_payload` over this certificate's case, round and value
    digest); ``committee`` is the full member roster the threshold is
    measured against.  The certificate is self-describing — everything
    :func:`verify_certificate` needs travels inside it except the PKI.
    """

    case: str
    round_index: int
    leader: str
    value: Any
    votes: tuple[SignedMessage, ...]
    committee: tuple[str, ...]
    threshold: int

    @property
    def digest(self) -> str:
        """Content address of the certified value."""
        return value_digest(self.value)

    @property
    def voters(self) -> tuple[str, ...]:
        return tuple(v.signer for v in self.votes)

    @property
    def size_bytes(self) -> int:
        """Approximate wire size: certified value plus every vote."""
        return (len(canonical_bytes(self.value))
                + sum(v.size_bytes for v in self.votes))

    def to_dict(self) -> dict:
        """Archival dump (signatures hex-encoded; verifiable offline)."""
        return {
            "format": CERTIFICATE_FORMAT,
            "case": self.case,
            "round": self.round_index,
            "leader": self.leader,
            "value": self.value,
            "digest": self.digest,
            "committee": list(self.committee),
            "threshold": self.threshold,
            "votes": [
                {"signer": v.signer, "payload": v.payload,
                 "signature": v.signature.hex()}
                for v in self.votes
            ],
        }


def verify_certificate(cert: QuorumCertificate, pki: "PKI") -> bool:
    """True iff *cert* carries ``threshold`` valid, distinct votes.

    Checks, in order: the roster is well-formed (no duplicate names, a
    sane threshold, the leader on the roster); every vote is signed by a
    distinct roster member; every vote's payload is exactly the expected
    (case, round, value-digest) binding; every signature verifies under
    the PKI.  Any malformed vote invalidates the certificate outright —
    a correct assembler only includes matching votes, so a stray vote is
    evidence of tampering, not noise to be tolerated.
    """
    roster = cert.committee
    if len(set(roster)) != len(roster):
        return False
    if not 1 <= cert.threshold <= len(roster):
        return False
    if cert.leader not in roster:
        return False
    expected = canonical_bytes(
        vote_payload(cert.case, cert.round_index, cert.digest))
    voters: set[str] = set()
    for vote in cert.votes:
        if vote.signer not in roster or vote.signer in voters:
            return False
        if vote.canonical != expected:
            return False
        if not pki.verify(vote):
            return False
        voters.add(vote.signer)
    return len(voters) >= cert.threshold
