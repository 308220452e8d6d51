"""Unit tests for the referee's cross-archive bid-equivocation check."""

import pytest

from repro.core.fines import FinePolicy
from repro.core.referee import Referee
from repro.crypto.pki import PKI
from repro.crypto.signatures import SigningKey


@pytest.fixture
def world():
    pki = PKI()
    keys = {n: pki.register(n) for n in ("P1", "P2", "P3")}
    return pki, keys, Referee(pki, FinePolicy())


def bid(keys, name, value):
    return keys[name].sign({"processor": name, "bid": value})


class TestBidEquivocators:
    def test_consistent_archives_clean(self, world):
        pki, keys, referee = world
        vec = [bid(keys, n, v) for n, v in
               (("P1", 2.0), ("P2", 3.0), ("P3", 5.0))]
        archives = {"P1": vec, "P2": vec, "P3": vec}
        assert referee._bid_equivocators(archives) == set()

    def test_split_bid_detected(self, world):
        pki, keys, referee = world
        base = [bid(keys, "P1", 2.0), bid(keys, "P3", 5.0)]
        archives = {
            "P1": base + [bid(keys, "P2", 3.0)],
            "P3": base + [bid(keys, "P2", 1.5)],  # P2 told P3 a different story
        }
        assert referee._bid_equivocators(archives) == {"P2"}

    def test_forged_entries_ignored(self, world):
        pki, keys, referee = world
        rogue = SigningKey("P2")  # unregistered key
        archives = {
            "P1": [bid(keys, "P2", 3.0)],
            "P3": [rogue.sign({"processor": "P2", "bid": 9.0})],
        }
        # The forged copy never verifies: only one authentic P2 bid
        # exists, so no equivocation.
        assert referee._bid_equivocators(archives) == set()

    def test_identity_mismatch_ignored(self, world):
        pki, keys, referee = world
        evil = keys["P3"].sign({"processor": "P2", "bid": 9.0})
        archives = {
            "P1": [bid(keys, "P2", 3.0)],
            "P3": [evil],
        }
        assert referee._bid_equivocators(archives) == set()

    def test_multiple_equivocators(self, world):
        pki, keys, referee = world
        archives = {
            "P1": [bid(keys, "P2", 3.0), bid(keys, "P3", 5.0)],
            "P2": [bid(keys, "P2", 4.0), bid(keys, "P3", 6.0)],
        }
        assert referee._bid_equivocators(archives) == {"P2", "P3"}
