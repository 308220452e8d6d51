"""Tests for the PKI registry and equivocation proofs."""

import pytest

from repro.crypto.pki import PKI, Principal
from repro.crypto.signatures import SignedMessage, SigningKey


class TestRegistration:
    def test_register_returns_working_key(self):
        pki = PKI()
        key = pki.register("P1")
        assert pki.is_registered("P1")
        assert pki.verify(key.sign({"bid": 2.0}))

    def test_duplicate_registration_rejected(self):
        pki = PKI()
        pki.register("P1")
        with pytest.raises(ValueError, match="already registered"):
            pki.register("P1")

    def test_unknown_identity_never_verifies(self):
        pki = PKI()
        rogue = SigningKey("ghost")
        assert not pki.verify(rogue.sign({"bid": 2.0}))

    def test_unregistered_same_name_key_fails(self):
        # An attacker minting its own key under a registered name still
        # fails: the PKI binds the name to the *registered* secret.
        pki = PKI()
        pki.register("P1")
        imposter = SigningKey("P1")
        assert not pki.verify(imposter.sign({"bid": 2.0}))

    def test_verify_all(self):
        pki = PKI()
        k1, k2 = pki.register("P1"), pki.register("P2")
        good = [k1.sign({"a": 1}), k2.sign({"b": 2})]
        assert pki.verify_all(good)
        bad = good + [SigningKey("P3").sign({"c": 3})]
        assert not pki.verify_all(bad)


class TestEquivocationProof:
    def test_two_distinct_authentic_messages_prove(self):
        pki = PKI()
        key = pki.register("P1")
        a = key.sign({"bid": 2.0})
        b = key.sign({"bid": 3.0})
        assert pki.proves_equivocation(a, b)

    def test_same_message_twice_does_not_prove(self):
        pki = PKI()
        key = pki.register("P1")
        a = key.sign({"bid": 2.0})
        assert not pki.proves_equivocation(a, a)

    def test_different_signers_do_not_prove(self):
        pki = PKI()
        k1, k2 = pki.register("P1"), pki.register("P2")
        assert not pki.proves_equivocation(k1.sign({"bid": 1.0}),
                                           k2.sign({"bid": 2.0}))

    def test_forged_second_message_does_not_prove(self):
        # The heart of Lemma 5.2: without the private key, no one can
        # manufacture the second contradictory message.
        pki = PKI()
        key = pki.register("P1")
        real = key.sign({"bid": 2.0})
        forged = SignedMessage("P1", {"bid": 99.0}, real.signature)
        assert not pki.proves_equivocation(real, forged)


class TestPrincipal:
    def test_value_object(self):
        assert Principal("P1") == Principal("P1")
        assert Principal("P1") != Principal("P2")


class TestVerificationCache:
    def test_repeat_verification_served_from_cache(self):
        pki = PKI()
        key = pki.register("P1")
        sm = key.sign({"bid": 2.0})
        stats = pki.stats
        assert pki.verify(sm)
        assert stats.misses == 1
        assert pki.verify(sm)
        assert pki.verify(sm)
        assert stats.hits == 2 and stats.misses == 1

    def test_rotation_invalidates_cached_verdicts(self):
        # Re-keying a name must not let a stale verdict survive, on the
        # stamped object or on a fresh copy of it.
        pki = PKI()
        key = pki.register("P1")
        sm = key.sign({"bid": 2.0})
        assert pki.verify(sm)          # HMAC, then stamped on the object
        assert pki.verify(sm)          # answered by the stamp
        # A structurally equal copy carries no stamp: it is verified
        # afresh.
        copy = SignedMessage(sm.signer, sm.payload, sm.signature)
        assert pki.verify(copy)
        new_key = pki.rotate("P1")
        assert not pki.verify(sm)      # the stamp names the old key
        assert not pki.verify(SignedMessage(sm.signer, sm.payload,
                                            sm.signature))  # fresh copy
        assert pki.verify(new_key.sign({"bid": 2.0}))

    def test_forged_variant_keys_separately(self):
        pki = PKI()
        key = pki.register("P1")
        sm = key.sign({"bid": 2.0})
        assert pki.verify(sm)
        forged = SignedMessage("P1", {"bid": 9.9}, sm.signature)
        assert not pki.verify(forged)  # cached True must not leak over

    def test_verify_all_short_circuits_on_first_failure(self):
        pki = PKI()
        k1, k2 = pki.register("P1"), pki.register("P2")
        good1 = k1.sign({"a": 1})
        bad = SignedMessage("P1", {"a": 2}, good1.signature)
        never = k2.sign({"b": 3})
        stats = pki.stats
        assert not pki.verify_all([good1, bad, never])
        # good1 (miss) + bad (miss) were checked; `never` was not.
        assert stats.lookups == 2
        assert pki.verify(never)       # first real verification: a miss
        assert stats.misses == 3


class TestVerdictsStayWithTheirPKI:
    """Two PKIs with different seeds each register ``P1``: a message
    one PKI's key signed never verifies under the other, whatever the
    signer's PKI verified before."""

    @pytest.mark.parametrize("seeds", [(1, 2), (2, 1)],
                             ids=["a-signs", "b-signs"])
    def test_foreign_signature_never_verifies(self, seeds):
        own, other = PKI(seed=seeds[0]), PKI(seed=seeds[1])
        key = own.register("P1")
        other.register("P1")
        sm = key.sign({"bid": 2.0})
        assert own.verify(sm)
        assert not other.verify(sm)    # the same, stamped object
        assert own.verify(SignedMessage(sm.signer, sm.payload, sm.signature))
        assert not other.verify(SignedMessage(sm.signer, sm.payload,
                                              sm.signature))  # fresh copy
        assert own.verify(sm) and not other.verify(sm)
