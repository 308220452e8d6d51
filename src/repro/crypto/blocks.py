"""User-signed load blocks.

Section 4, *Initialization*: "The user prepares her data by dividing it
into small, equal-sized blocks.  Each block B has a unique identifier
I_B appended to it and then the aggregate is signed by the user."

Blocks give the referee *credible evidence* in the Allocating-Load
phase: a processor claiming it was over-assigned presents its blocks,
and the referee compares them against the original data set (signature
+ identifier check).  A fabricated block cannot carry the user's
signature, so unfounded over-assignment claims are detectable.

:func:`divide_load` fixes each block's identifier, unit and signing
key, and the block computes its content hash and ``S_user(B, I_B)`` the
first time either is read.  HMAC signing is deterministic, so the
signature read later is the one division would have made; only the
referee's over-assignment check and a block's ``repr`` read it, so an
engagement without that dispute signs no block at all.
"""

from __future__ import annotations

import hashlib

from repro.crypto.signatures import SignedMessage, SigningKey, canonical_bytes

__all__ = [
    "LoadBlock",
    "divide_load",
    "verify_blocks",
    "blocks_for_fraction",
    "quantize_blocks",
]


class LoadBlock:
    """One equal-sized unit of the divisible load.

    ``block_id`` is the unique identifier ``I_B``; ``digest`` stands in
    for the block's data (the computation on block contents is not part
    of the mechanism, so we carry a content hash rather than bytes);
    ``signed`` is ``S_user(B, I_B)``.  ``LoadBlock(block_id, digest,
    signed)`` builds a block from given parts; :func:`divide_load`
    builds blocks that make ``digest`` and ``signed`` on first read.
    Equality, hash and ``repr`` are those of the value
    ``(block_id, digest, signed)``.
    """

    __slots__ = ("block_id", "_digest", "_signed", "_source")

    def __init__(self, block_id: int, digest: str, signed: SignedMessage) -> None:
        self.block_id = block_id
        self._digest = digest
        self._signed = signed
        self._source = None

    @classmethod
    def _deferred(cls, block_id: int, source: tuple) -> LoadBlock:
        """A block signed on first read; *source* is ``(key, seed, unit,
        canonical unit)``, shared by every block of one division."""
        block = cls.__new__(cls)
        block.block_id = block_id
        block._digest = block._signed = None
        block._source = source
        return block

    def _sign(self) -> None:
        key, seed, unit, unit_json = self._source
        i = self.block_id
        digest = hashlib.sha256(f"load-{seed}-{i}".encode()).hexdigest()
        payload = {"block_id": i, "digest": digest, "unit_size": unit}
        # canonical_bytes(payload), composed: the keys sort in this
        # order, an int and a hex string encode as themselves, and the
        # unit's encoding comes from the same encoder.
        canon = b'{"block_id":%d,"digest":"%s","unit_size":%s}' % (
            i, digest.encode(), unit_json)
        self._digest = digest
        self._signed = key.sign(payload, canonical=canon)

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._sign()
        return self._digest

    @property
    def signed(self) -> SignedMessage:
        if self._signed is None:
            self._sign()
        return self._signed

    @property
    def size_units(self) -> float:
        """Load units represented by one block (set by :func:`divide_load`)."""
        if self._source is not None:
            return float(self._source[2])
        return float(self.signed.payload["unit_size"])

    def _value(self) -> tuple:
        return (self.block_id, self.digest, self.signed)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return (f"LoadBlock(block_id={self.block_id!r}, "
                f"digest={self.digest!r}, signed={self.signed!r})")


def divide_load(
    user_key: SigningKey,
    total_units: float = 1.0,
    num_blocks: int = 100,
    *,
    seed: int = 0,
) -> list[LoadBlock]:
    """Divide ``total_units`` of load into ``num_blocks`` signed blocks.

    Block contents are synthetic (hash of the block index and seed);
    what matters to the protocol is the signature and the identifier.
    Each block is hashed and signed with *user_key* when first read.
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    if total_units <= 0:
        raise ValueError(f"total_units must be positive, got {total_units}")
    unit = total_units / num_blocks
    source = (user_key, seed, unit, canonical_bytes(unit))
    deferred = LoadBlock._deferred
    return [deferred(i, source) for i in range(num_blocks)]


def verify_blocks(blocks: list[LoadBlock], pki, user_name: str) -> bool:
    """Referee-side check: every block is user-signed, consistent and unique."""
    seen: set[int] = set()
    for b in blocks:
        if b.signed.signer != user_name or not pki.verify(b.signed):
            return False
        p = b.signed.payload
        if p["block_id"] != b.block_id or p["digest"] != b.digest:
            return False
        if b.block_id in seen:
            return False
        seen.add(b.block_id)
    return True


def blocks_for_fraction(blocks: list[LoadBlock], start: int, alpha: float) -> list[LoadBlock]:
    """The contiguous slice of blocks covering fraction *alpha* from *start*.

    The originator ships whole blocks; the count is rounded to the
    nearest block so that sum-of-slices equals the whole set when the
    fractions sum to one.  Returns the slice (may be empty for tiny
    fractions relative to the block granularity).
    """
    if not blocks:
        return []
    count = round(alpha * len(blocks))
    count = max(0, min(count, len(blocks) - start))
    return blocks[start : start + count]


def quantize_blocks(alpha, num_blocks: int) -> list[int]:
    """Deterministic conversion of continuous fractions to block counts.

    Largest-remainder (Hamilton) apportionment: floor every share, then
    hand the leftover blocks to the largest fractional remainders
    (ties broken by index).  The counts always sum to *num_blocks*, and
    every party — originator, recipients, referee — applies this same
    rule to the same ``alpha``, so honest parties can never disagree
    about entitlements because of rounding.
    """
    import numpy as np

    shares = np.asarray(alpha, dtype=float) * num_blocks
    if (shares < 0).any():
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    counts = np.floor(shares).astype(int)
    leftover = num_blocks - int(counts.sum())
    if leftover < 0:  # alpha summed above 1; clamp defensively
        raise ValueError("alpha sums above 1; cannot quantize")
    remainders = shares - counts
    for idx in np.argsort(-remainders, kind="stable")[:leftover]:
        counts[idx] += 1
    return [int(c) for c in counts]
