"""Tests for user-signed load blocks and block quantization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blocks import (
    LoadBlock,
    blocks_for_fraction,
    divide_load,
    quantize_blocks,
    verify_blocks,
)
from repro.crypto.pki import PKI
from repro.crypto.signatures import SignedMessage, canonical_bytes


@pytest.fixture
def pki_and_key():
    pki = PKI()
    return pki, pki.register("user")


class TestDivideLoad:
    def test_count_and_unit_size(self, pki_and_key):
        _, key = pki_and_key
        blocks = divide_load(key, total_units=2.0, num_blocks=8)
        assert len(blocks) == 8
        assert all(b.size_units == pytest.approx(0.25) for b in blocks)

    def test_identifiers_unique_and_sequential(self, pki_and_key):
        _, key = pki_and_key
        blocks = divide_load(key, num_blocks=10)
        assert [b.block_id for b in blocks] == list(range(10))

    def test_rejects_bad_params(self, pki_and_key):
        _, key = pki_and_key
        with pytest.raises(ValueError):
            divide_load(key, num_blocks=0)
        with pytest.raises(ValueError):
            divide_load(key, total_units=0.0)


def eager_blocks(key, total_units, num_blocks, seed=0):
    """Blocks hashed and signed at division (the reference for
    :func:`divide_load`'s first-read signing)."""
    unit = total_units / num_blocks
    out = []
    for i in range(num_blocks):
        digest = hashlib.sha256(f"load-{seed}-{i}".encode()).hexdigest()
        payload = {"block_id": i, "digest": digest, "unit_size": unit}
        out.append(LoadBlock(i, digest, key.sign(payload)))
    return out


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a signed payload is a dict
        return type(exc)


PAIRS = [(2.0, 8), (1.0, 3), (1.0, 7), (1.0, 100), (0.1, 3), (3, 9)]
READS = {
    "repr": repr,
    "hash": hash_or_error,
    "digest": lambda b: b.digest,
    "signed": lambda b: b.signed,
    "size_units": lambda b: b.size_units,
}


class TestFirstReadSigning:
    @pytest.mark.parametrize("total_units, num_blocks", PAIRS)
    def test_composed_canonical_equals_canonical_bytes(
            self, pki_and_key, total_units, num_blocks):
        _, key = pki_and_key
        for b in divide_load(key, total_units, num_blocks):
            assert b.signed.canonical == canonical_bytes(b.signed.payload)

    @pytest.mark.parametrize("total_units, num_blocks", PAIRS)
    @pytest.mark.parametrize("first_read", sorted(READS))
    def test_lazy_block_equals_eager_block(self, pki_and_key, total_units,
                                           num_blocks, first_read):
        pki, key = pki_and_key
        eager = eager_blocks(key, total_units, num_blocks, seed=3)
        lazy = divide_load(key, total_units, num_blocks, seed=3)
        first = READS[first_read]
        assert [first(b) for b in lazy] == [first(b) for b in eager]
        for read in READS.values():
            assert [read(b) for b in lazy] == [read(b) for b in eager]
        assert lazy == eager
        assert verify_blocks(lazy, pki, "user")

    def test_equality_as_first_read(self, pki_and_key):
        _, key = pki_and_key
        eager = eager_blocks(key, 2.0, 8, seed=3)
        assert divide_load(key, 2.0, 8, seed=3) == eager
        assert divide_load(key, 2.0, 8, seed=4) != eager

    def test_division_signs_nothing(self, pki_and_key, monkeypatch):
        _, key = pki_and_key
        calls = []
        monkeypatch.setattr(type(key), "sign",
                            lambda *args, **kwargs: calls.append(args))
        blocks = divide_load(key, num_blocks=120)
        assert [b.block_id for b in blocks] == list(range(120))
        assert blocks[0].size_units == pytest.approx(1 / 120)
        assert calls == []

    def test_lazy_blocks_still_reject_forgery_and_duplicates(self, pki_and_key):
        pki, key = pki_and_key
        blocks = divide_load(key, num_blocks=4)
        b = blocks[1]
        forged = LoadBlock(b.block_id, b.digest,
                           SignedMessage("user", b.signed.payload, bytes(32)))
        assert not verify_blocks([blocks[0], forged], pki, "user")
        fresh = divide_load(key, num_blocks=4)
        assert not verify_blocks(fresh + [fresh[2]], pki, "user")
        assert verify_blocks(fresh, pki, "user")


class TestVerifyBlocks:
    def test_genuine_blocks_verify(self, pki_and_key):
        pki, key = pki_and_key
        blocks = divide_load(key, num_blocks=5)
        assert verify_blocks(blocks, pki, "user")

    def test_foreign_signature_rejected(self, pki_and_key):
        pki, key = pki_and_key
        mallory = pki.register("mallory")
        fake = divide_load(mallory, num_blocks=1)
        assert not verify_blocks(fake, pki, "user")

    def test_duplicate_block_rejected(self, pki_and_key):
        pki, key = pki_and_key
        blocks = divide_load(key, num_blocks=3)
        assert not verify_blocks(blocks + [blocks[0]], pki, "user")

    def test_payload_mismatch_rejected(self, pki_and_key):
        pki, key = pki_and_key
        b = divide_load(key, num_blocks=2)[0]
        tampered = LoadBlock(1, b.digest, b.signed)  # id disagrees with payload
        assert not verify_blocks([tampered], pki, "user")


class TestBlocksForFraction:
    def test_slice_selection(self, pki_and_key):
        _, key = pki_and_key
        blocks = divide_load(key, num_blocks=10)
        out = blocks_for_fraction(blocks, start=2, alpha=0.3)
        assert [b.block_id for b in out] == [2, 3, 4]

    def test_clamps_at_end(self, pki_and_key):
        _, key = pki_and_key
        blocks = divide_load(key, num_blocks=10)
        out = blocks_for_fraction(blocks, start=9, alpha=0.5)
        assert [b.block_id for b in out] == [9]

    def test_empty_input(self):
        assert blocks_for_fraction([], 0, 0.5) == []


class TestQuantizeBlocks:
    def test_exact_fractions(self):
        assert quantize_blocks([0.5, 0.25, 0.25], 8) == [4, 2, 2]

    def test_largest_remainder_assignment(self):
        # 0.4/0.35/0.25 of 10 -> 4, 3.5, 2.5; leftover 1 goes to the
        # larger remainder (index 1 over index 2 only if strictly larger;
        # here both are .5 so the earlier index wins by stable sort).
        counts = quantize_blocks([0.4, 0.35, 0.25], 10)
        assert counts == [4, 4, 2]

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_total(self, raw, n):
        alpha = np.array(raw) / np.sum(raw)
        counts = quantize_blocks(alpha, n)
        assert sum(counts) == n
        assert all(c >= 0 for c in counts)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_within_one_block_of_share(self, raw, n):
        alpha = np.array(raw) / np.sum(raw)
        counts = quantize_blocks(alpha, n)
        for a, c in zip(alpha, counts):
            assert abs(c - a * n) < 1.0 + 1e-9

    def test_deterministic(self):
        alpha = [0.123, 0.456, 0.421]
        assert quantize_blocks(alpha, 97) == quantize_blocks(alpha, 97)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            quantize_blocks([-0.1, 1.1], 10)

    def test_rejects_oversum(self):
        with pytest.raises(ValueError):
            quantize_blocks([0.9, 0.9], 10)
