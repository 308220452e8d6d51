"""Public-key infrastructure: identity registry and verification oracle.

The paper assumes "a public key infrastructure (PKI), to which the
participants have access", with each participant's public key registered
under its identity.  Our :class:`PKI` plays that role: principals
register once, receive their private :class:`SigningKey`, and anyone may
ask the PKI to verify a :class:`SignedMessage` against the registered
identity.  The PKI never reveals keys, so verification-by-oracle is
observationally the same as verifying with a public key.

Verdicts are stamped on the :class:`SignedMessage` object itself,
together with the key object that produced them: the protocol asks
every participant to verify the *same* broadcast object, so the oracle
runs the HMAC once per object and answers repeats from the stamp.  The
stamp is semantically invisible — a forged variant is a different
object, and a stamp answers only the key object it was made with — so
neither a rotated key nor another PKI's key ever matches a stale one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.signatures import SignedMessage, SigningKey
from repro.perf.cache import CacheStats

__all__ = ["Principal", "PKI"]


@dataclass(frozen=True)
class Principal:
    """A registered identity (processor, user, or referee)."""

    name: str


class PKI:
    """Trusted registry binding identities to verification keys.

    This is infrastructure, not a participant: it holds no protocol
    state, makes no allocation or payment decisions, and is assumed
    tamper-proof like the network (Section 4's system model).

    Parameters
    ----------
    seed:
        Optional determinism hook: when given, registered keys derive
        their secrets from ``(seed, name)`` instead of the OS entropy
        pool, so two separately constructed runs mint *identical* keys
        — which is what lets the equivalence tests demand byte-identical
        wire traces across runs.  Production use leaves it ``None``.

    :attr:`stats` counts verdicts answered from a stamp (``hits``) and
    HMAC verifications run (``misses``).
    """

    def __init__(self, *, seed: int | None = None) -> None:
        self._keys: dict[str, SigningKey] = {}
        self._seed = seed
        self._rotations: dict[str, int] = {}
        self.stats = CacheStats()

    def _mint_key(self, name: str) -> SigningKey:
        if self._seed is None:
            return SigningKey(name)
        generation = self._rotations.get(name, 0)
        secret = hashlib.sha256(
            f"pki:{self._seed}:{name}:{generation}".encode()).digest()
        return SigningKey(name, secret)

    def register(self, name: str) -> SigningKey:
        """Register *name* and hand back its private signing key.

        Duplicate registration is rejected: a second registration under
        an existing identity would be an impersonation channel.  Use
        :meth:`rotate` for a deliberate key replacement.
        """
        if name in self._keys:
            raise ValueError(f"identity {name!r} already registered")
        key = self._mint_key(name)
        self._keys[name] = key
        return key

    def rotate(self, name: str) -> SigningKey:
        """Replace *name*'s key.

        The new key is a new object, so no verdict stamped under the
        old one matches it: messages signed under the old key stop
        verifying, exactly as they would against a fresh oracle.
        """
        if name not in self._keys:
            raise ValueError(f"identity {name!r} is not registered")
        self._rotations[name] = self._rotations.get(name, 0) + 1
        key = self._mint_key(name)
        self._keys[name] = key
        return key

    def is_registered(self, name: str) -> bool:
        return name in self._keys

    def verify(self, signed: SignedMessage) -> bool:
        """Does *signed* verify under its claimed signer's registered key?

        Unknown identities never verify.  Messages failing verification
        are discarded by honest processors per the Bidding phase rules.
        Repeat queries on the same object are answered from its stamp.
        """
        key = self._keys.get(signed.signer)
        if key is None:
            return False
        # The same SignedMessage instance is verified by every broadcast
        # recipient, so the verdict rides on the object, keyed by the
        # verifying key's *identity*: a rotated key, or another PKI's
        # key, is another object and misses.
        cached = signed._verified
        if cached is not None and cached[0] is key:
            self.stats.hits += 1
            return cached[1]
        self.stats.misses += 1
        verdict = key.verify(signed)
        object.__setattr__(signed, "_verified", (key, verdict))
        return verdict

    def verify_all(self, messages: list[SignedMessage]) -> bool:
        """All messages verify; stops at the first failure.

        The explicit short-circuit matters on the dispute paths, where
        bid vectors are ``O(m)`` long and a manipulated entry should
        not cost ``m`` verifications to reject; passing messages carry
        their verdict stamps into later queries.
        """
        for m in messages:
            if not self.verify(m):
                return False
        return True

    def proves_equivocation(self, a: SignedMessage, b: SignedMessage) -> bool:
        """Do *a* and *b* prove their signer sent contradictory messages?

        True iff both verify under the *same* identity but carry
        different payloads — the exact evidence the referee accepts for
        the "multiple, inconsistent bids" and "contradictory payment
        vectors" offences.
        """
        return (
            a.signer == b.signer
            and self.verify(a)
            and self.verify(b)
            and a.canonical != b.canonical
        )
