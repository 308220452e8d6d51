"""Tests for hash commitments (paper footnote 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.commitments import commit, verify_commitment


class TestCommitVerify:
    def test_roundtrip(self):
        c, nonce = commit("P1", {"processor": "P1", "bid": 2.0})
        assert verify_commitment(c, {"processor": "P1", "bid": 2.0}, nonce)
        assert c.committer == "P1"

    def test_binding_different_payload_fails(self):
        c, nonce = commit("P1", {"bid": 2.0})
        assert not verify_commitment(c, {"bid": 2.0000001}, nonce)

    def test_wrong_nonce_fails(self):
        c, nonce = commit("P1", {"bid": 2.0})
        assert not verify_commitment(c, {"bid": 2.0}, b"\x00" * 16)

    def test_hiding_nonce_randomizes_digest(self):
        c1, _ = commit("P1", {"bid": 2.0})
        c2, _ = commit("P1", {"bid": 2.0})
        assert c1.digest != c2.digest  # 2^-128 collision odds

    @given(st.floats(min_value=0.1, max_value=100, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_binding_over_values(self, bid):
        c, nonce = commit("P", {"bid": bid})
        assert verify_commitment(c, {"bid": bid}, nonce)
        assert not verify_commitment(c, {"bid": bid * 1.5 + 1.0}, nonce)

    def test_size_bytes(self):
        c, _ = commit("P1", {"bid": 2.0})
        assert c.size_bytes > 32
