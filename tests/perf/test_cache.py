"""Unit tests for the repro.perf caches."""

import json

import numpy as np
import pytest

from repro.crypto.signatures import canonical_bytes
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.perf import ComputationCache


def net(w=(2.0, 3.0, 5.0), z=0.4, kind=NetworkKind.NCP_FE):
    return BusNetwork(tuple(w), z, kind)


class TestComputationCache:
    def test_allocation_miss_then_hit(self):
        memo = ComputationCache()
        n = net()
        a1 = memo.allocation(n)
        a2 = memo.allocation(n)
        assert a1 is a2
        assert memo.stats.misses == 1 and memo.stats.hits == 1
        np.testing.assert_allclose(a1, allocate(n))

    def test_results_are_read_only(self):
        memo = ComputationCache()
        arr = memo.allocation(net())
        with pytest.raises(ValueError):
            arr[0] = 0.5

    def test_distinct_instances_key_separately(self):
        # A divergent bid view must miss — memoization can never hand
        # an agent a result for a profile it does not hold.
        memo = ComputationCache()
        memo.allocation(net((2.0, 3.0, 5.0)))
        memo.allocation(net((2.0, 3.0, 5.000001)))
        assert memo.stats.misses == 2

    def test_payments_keyed_by_exec_values_too(self):
        memo = ComputationCache()
        n = net()
        memo.payments(n, np.array([2.0, 3.0, 5.0]))
        memo.payments(n, np.array([2.5, 3.0, 5.0]))
        memo.payments(n, np.array([2.0, 3.0, 5.0]))
        assert memo.stats.misses == 2 and memo.stats.hits == 1

    def test_network_interning(self):
        memo = ComputationCache()
        names = ("P1", "P2", "P3")
        a = memo.network((2.0, 3.0, 5.0), 0.4, NetworkKind.NCP_FE, names)
        b = memo.network((2.0, 3.0, 5.0), 0.4, NetworkKind.NCP_FE, names)
        c = memo.network((2.0, 3.0, 5.0), 0.5, NetworkKind.NCP_FE, names)
        assert a is b and a is not c
        assert memo.stats.lookups == 0  # plumbing, not mechanism work

    def test_hit_rate(self):
        memo = ComputationCache()
        assert memo.stats.hit_rate == 0.0
        n = net()
        memo.allocation(n)
        memo.allocation(n)
        assert memo.stats.hit_rate == 0.5


class TestPaymentsPayloadCache:
    def test_q_list_matches_independent_computation(self):
        from repro.core.payments import payments as compute_payments

        memo = ComputationCache()
        n = net()
        w_exec = np.array([2.0, 3.1, 5.0])
        q_list, q_json = memo.payments_payload(n, w_exec)
        assert q_list == [float(x) for x in compute_payments(n, w_exec)]
        assert json.loads(q_json) == q_list

    def test_composed_canonical_matches_canonical_bytes(self):
        # The payment fast path splices the cached Q fragment into the
        # signed payload's canonical form by string composition; it
        # must be byte-identical to the full serialization for every
        # name and every float shape (exponents included).
        memo = ComputationCache()
        n = net((1e-7, 3.0, 5e8), z=0.125)
        q_list, q_json = memo.payments_payload(n, np.array([1e-7, 3.0, 5e8]))
        for name in ("P1", "processor \"x\"", "émile"):
            payload = {"processor": name, "Q": q_list}
            composed = ('{"Q":%s,"processor":%s}'
                        % (q_json, json.dumps(name))).encode()
            assert composed == canonical_bytes(payload)

    def test_signing_with_composed_canonical_verifies(self):
        from repro.crypto.pki import PKI

        pki = PKI()
        key = pki.register("P1")
        memo = ComputationCache()
        q_list, q_json = memo.payments_payload(net(), np.array([2.0, 3.0, 5.0]))
        payload = {"processor": "P1", "Q": q_list}
        canon = ('{"Q":%s,"processor":%s}'
                 % (q_json, json.dumps("P1"))).encode()
        sm = key.sign(payload, canonical=canon)
        assert pki.verify(sm)
        assert sm.canonical == canonical_bytes(payload)

    def test_payload_shared_across_calls(self):
        memo = ComputationCache()
        n = net()
        w_exec = np.array([2.0, 3.0, 5.0])
        first = memo.payments_payload(n, w_exec)
        second = memo.payments_payload(n, w_exec)
        assert first[0] is second[0] and first[1] is second[1]

