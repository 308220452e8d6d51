"""Tests for the simulated digital-signature layer."""

import hashlib
import hmac
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signatures import SignedMessage, SigningKey, canonical_bytes
from tests.conftest import json_values


def _circular():
    loop = []
    loop.append(loop)
    return loop


class TestCanonicalBytes:
    def test_dict_key_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_distinct_payloads_distinct_bytes(self):
        assert canonical_bytes({"bid": 1.0}) != canonical_bytes({"bid": 1.0000001})

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    @given(st.dictionaries(st.text(max_size=8),
                           st.floats(allow_nan=False, allow_infinity=False),
                           max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, payload):
        assert canonical_bytes(payload) == canonical_bytes(dict(payload))

    @given(json_values())
    @settings(max_examples=300)
    def test_equals_json_dumps(self, value):
        # The encoder built once at import writes what json.dumps wrote.
        assert canonical_bytes(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")).encode()

    def test_non_finite_floats_encode_as_json_dumps_does(self):
        value = [float("nan"), float("inf"), -float("inf")]
        assert canonical_bytes(value) == b"[NaN,Infinity,-Infinity]"

    @pytest.mark.parametrize("bad", [object(), {1: "a", "b": 2}, _circular()],
                             ids=["object", "mixed-keys", "circular"])
    def test_every_encoding_error_is_a_type_error(self, bad):
        with pytest.raises(TypeError, match="not canonically serializable"):
            canonical_bytes(bad)


class TestSigningKey:
    def test_sign_verify_roundtrip(self):
        key = SigningKey("P1")
        sm = key.sign({"bid": 3.5, "processor": "P1"})
        assert key.verify(sm)
        assert sm.signer == "P1"

    def test_verification_fails_on_payload_tamper(self):
        key = SigningKey("P1")
        sm = key.sign({"bid": 3.5})
        forged = SignedMessage("P1", {"bid": 1.0}, sm.signature)
        assert not key.verify(forged)

    def test_verification_fails_on_signer_tamper(self):
        key = SigningKey("P1")
        sm = key.sign({"bid": 3.5})
        relabeled = SignedMessage("P2", sm.payload, sm.signature)
        assert not key.verify(relabeled)

    def test_other_key_cannot_forge(self):
        alice, mallory = SigningKey("P1"), SigningKey("P1")
        # Same name, different secret: Mallory's signature does not
        # verify under Alice's key.
        sm = mallory.sign({"bid": 3.5})
        assert not alice.verify(sm)

    def test_deterministic_signature_for_same_payload(self):
        key = SigningKey("P1", secret=b"\x01" * 32)
        assert key.sign({"x": 1}).signature == key.sign({"x": 1}).signature

    def test_repr_hides_secret(self):
        key = SigningKey("P1", secret=b"topsecret" * 4)
        assert "topsecret" not in repr(key)

    def test_size_bytes_positive_and_grows(self):
        key = SigningKey("P1")
        small = key.sign({"q": [1.0]})
        large = key.sign({"q": [1.0] * 100})
        assert 0 < small.size_bytes < large.size_bytes


class TestOneCallHmac:
    """sign, verify and commitment_nonce give the bytes of ``hmac.new``."""

    SECRET = bytes(range(32))

    @given(json_values())
    @settings(max_examples=100)
    def test_same_bytes_as_hmac_new(self, message):
        key = SigningKey("P1", secret=self.SECRET)
        canon = canonical_bytes(message)
        mac = hmac.new(self.SECRET, canon, hashlib.sha256).digest()
        assert key.sign(message).signature == mac
        assert key.verify(SignedMessage("P1", message, mac))
        assert not key.verify(SignedMessage("P1", message, mac[::-1]))
        assert key.commitment_nonce(message) == hmac.new(
            self.SECRET, b"commit-nonce|" + canon, hashlib.sha256).digest()[:16]
