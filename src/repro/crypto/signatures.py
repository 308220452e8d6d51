"""HMAC-based simulated digital signatures.

``SIG_beta(m)`` in the paper is the secure digital signature of message
``m`` under principal beta's private key, and ``S_beta(m) = (m, SIG_beta(m))``
is the signed message.  We reproduce the interface exactly; see the
package docstring for why HMAC-SHA256 plus a trusted registry is an
adequate stand-in for asymmetric signatures here.

Messages are arbitrary JSON-serializable Python values.  They are
canonicalized (sorted keys, repr-stable float encoding) before MAC-ing
so that two semantically identical messages always carry identical
signatures and two different messages virtually never collide.

Every engagement signs and verifies a few messages per processor, so
the per-call overhead is kept to the work itself: the canonical
encoder is built once at import (``json.dumps`` with non-default
arguments builds a new encoder per call) and each MAC is one
:func:`hmac.digest` call.  Both give the same bytes as the
``json.dumps`` / ``hmac.new`` spelling.
"""

from __future__ import annotations

import hmac
import json
import secrets
from dataclasses import dataclass, field
from typing import Any

__all__ = ["canonical_bytes", "SigningKey", "SignedMessage"]

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_bytes(message: Any) -> bytes:
    """Deterministic byte encoding of a JSON-serializable message.

    Floats are encoded through :func:`repr` by ``json`` which is stable
    across runs; dict keys are sorted; tuples degrade to lists (the
    protocol never distinguishes the two).
    """
    try:
        return _CANONICAL.encode(message).encode()
    except (TypeError, ValueError) as exc:
        raise TypeError(f"message is not canonically serializable: {exc}") from exc


@dataclass(frozen=True, slots=True)
class SignedMessage:
    """``S_beta(m)``: a message, the claimed signer, and the signature.

    The ``signer`` field is the *claimed* identity; only verification
    against the PKI's registered key confirms it.  ``payload`` keeps the
    original structured message so protocol code never re-parses bytes.

    The canonical encoding is computed lazily and cached on the
    instance: one signed message is typically canonicalized ``O(m)``
    times per protocol run (every recipient archives, de-duplicates and
    verifies the same broadcast object), so the hot paths key off
    :attr:`canonical` instead of re-serializing the payload.  Neither
    cache field participates in equality; the message identity stays
    (signer, payload, signature).
    """

    signer: str
    payload: Any
    signature: bytes
    _canonical: bytes | None = field(default=None, repr=False, compare=False)
    # (verifying key object, verdict) — the PKI's verdict stamp.
    # Keyed by key *identity*, so rotating a key (a new SigningKey
    # object) naturally invalidates it; never part of equality.
    _verified: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def canonical(self) -> bytes:
        """Cached :func:`canonical_bytes` of the payload."""
        c = self._canonical
        if c is None:
            c = canonical_bytes(self.payload)
            object.__setattr__(self, "_canonical", c)
        return c

    @property
    def size_bytes(self) -> int:
        """Approximate wire size (canonical payload + signature + id).

        Used by the bus accounting layer for the Theorem 5.4
        communication-complexity measurements.
        """
        return len(self.canonical) + len(self.signature) + len(self.signer)


class SigningKey:
    """A principal's private signing key (HMAC secret).

    Possession of this object is possession of the key: the referee's
    Lemma 5.2 reasoning ("either the signature was forged — impossible —
    or the principal's key leaked, itself a deviation") maps onto object
    reachability in the simulation.
    """

    __slots__ = ("_name", "_secret")

    def __init__(self, name: str, secret: bytes | None = None) -> None:
        self._name = name
        self._secret = secret if secret is not None else secrets.token_bytes(32)

    @property
    def name(self) -> str:
        return self._name

    def sign(self, message: Any, *, canonical: bytes | None = None) -> SignedMessage:
        """Produce ``S_name(message)``.

        The canonical encoding computed for the MAC is handed to the
        :class:`SignedMessage` so downstream consumers (wire sizing,
        verification, archive de-dup) never re-serialize the payload.

        ``canonical``, when given, MUST equal
        ``canonical_bytes(message)``; callers that already hold the
        encoding (the shared payment-payload cache does) pass it to
        skip the re-serialization.
        """
        canon = canonical_bytes(message) if canonical is None else canonical
        return SignedMessage(self._name, message,
                             hmac.digest(self._secret, canon, "sha256"), canon)

    def verify(self, signed: SignedMessage) -> bool:
        """Check *signed* against this key (used by the PKI registry).

        Verifies both the MAC and that the claimed signer matches the
        key's identity; constant-time comparison via :func:`hmac.compare_digest`.
        """
        if signed.signer != self._name:
            return False
        expected = hmac.digest(self._secret, signed.canonical, "sha256")
        return hmac.compare_digest(expected, signed.signature)

    def commitment_nonce(self, message: Any) -> bytes:
        """Deterministic commitment nonce bound to this key's secret.

        RFC-6979 style: ``HMAC(secret, canonical(message))`` truncated
        to 16 bytes.  Hiding against anyone without the secret (the
        property hash commitments need), yet reproducible run-to-run —
        so engagements with seeded keys produce bit-identical
        commitment digests.
        """
        return hmac.digest(self._secret,
                           b"commit-nonce|" + canonical_bytes(message),
                           "sha256")[:16]

    def __repr__(self) -> str:  # never leak the secret
        return f"SigningKey(name={self._name!r})"
