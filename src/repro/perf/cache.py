"""Digest-keyed memoization of the mechanism's pure computations.

The three kernels every participant recomputes — ``allocate(b)``, the
exclusion-makespan vector ``T(alpha(b_{-i}), b_{-i})`` and the payment
vector ``Q(b, w~)`` — are pure functions of the network instance (bid
vector, ``z``, kind, allocation order) and, for payments, the observed
execution values.  :class:`ComputationCache` addresses results by a
SHA-256 digest of exactly those inputs:

* two agents holding the *same* bid view share one computation;
* an agent holding a *divergent* view (split bids on a point-to-point
  network, a manipulated archive) hashes to a different key, misses,
  and computes its own honest-to-its-view result — so memoization can
  never mask a disagreement the referee is supposed to see.

Cached arrays are returned read-only (``writeable=False``): every
consumer in the protocol derives fresh arrays from them, and an
accidental in-place mutation of a shared result would be a cross-agent
side channel, so numpy is told to refuse it loudly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

__all__ = ["CacheStats", "ComputationCache"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache (surfaced in ``TrafficStats``)."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def _instance_key(tag: bytes, network) -> bytes:
    """Content address of a :class:`~repro.dlt.platform.BusNetwork`.

    Covers everything the kernels read: the bid vector bitwise, ``z``,
    the system kind and the allocation-order names.
    """
    h = hashlib.sha256(tag)
    h.update(network.w_array.tobytes())
    h.update(repr(network.z).encode())
    h.update(network.kind.value.encode())
    h.update("\x00".join(network.names).encode())
    return h.digest()


class ComputationCache:
    """Content-addressed memo for allocation / exclusion / payment vectors.

    One instance is scoped to one protocol engagement: the engine
    builds it and injects it into its agents and referee, and it is
    dropped with the engine, so no engagement observes another's hits.
    """

    __slots__ = ("stats", "_store", "_nets", "_wire")

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._store: dict[bytes, np.ndarray] = {}
        self._nets: dict[tuple, object] = {}
        self._wire: dict[bytes, tuple] = {}

    def _memo(self, key: bytes, compute) -> np.ndarray:
        arr = self._store.get(key)
        if arr is None:
            self.stats.misses += 1
            arr = np.asarray(compute(), dtype=float)
            arr.setflags(write=False)
            self._store[key] = arr
        else:
            self.stats.hits += 1
        return arr

    def allocation(self, network) -> np.ndarray:
        """Memoized :func:`repro.dlt.closed_form.allocate`."""
        from repro.dlt.closed_form import allocate

        return self._memo(_instance_key(b"alloc|", network),
                          lambda: allocate(network))

    def exclusions(self, network) -> np.ndarray:
        """Memoized all-agents exclusion-makespan vector
        (:func:`repro.core.fast_exclusion.all_excluded_optimal_makespans`)."""
        from repro.core.fast_exclusion import all_excluded_optimal_makespans

        return self._memo(_instance_key(b"excl|", network),
                          lambda: all_excluded_optimal_makespans(network))

    def payments(self, network, w_exec) -> np.ndarray:
        """Memoized :func:`repro.core.payments.payments`."""
        from repro.core.payments import payments

        w_exec = np.asarray(w_exec, dtype=float)
        h = hashlib.sha256(_instance_key(b"pay|", network))
        h.update(w_exec.tobytes())
        return self._memo(h.digest(), lambda: payments(network, w_exec))

    def payments_payload(self, network, w_exec) -> tuple[list, str]:
        """Cached wire form of the payment vector: ``(q_list, q_json)``.

        Every honest agent broadcasts the *same* ``Q`` in Computing
        Payments, and at ``m = 512`` serializing 512 floats per agent
        dominates the phase.  This returns the float list and its JSON
        encoding (``json.dumps`` with canonical separators, exactly the
        fragment :func:`~repro.crypto.signatures.canonical_bytes`
        embeds) computed once per distinct ``(network, w_exec)``.

        The list is shared across agents' payloads — consumers treat it
        as read-only, and deviating agents build fresh lists instead of
        mutating it.
        """
        w_exec = np.asarray(w_exec, dtype=float)
        h = hashlib.sha256(_instance_key(b"paywire|", network))
        h.update(w_exec.tobytes())
        key = h.digest()
        cached = self._wire.get(key)
        if cached is None:
            q = self.payments(network, w_exec)
            q_list = [float(x) for x in q]
            q_json = json.dumps(q_list, separators=(",", ":"))
            cached = self._wire[key] = (q_list, q_json)
        return cached

    def network(self, w: tuple, z: float, kind, names: tuple):
        """Shared :class:`~repro.dlt.platform.BusNetwork` instances.

        Constructing a network validates every entry (``O(m)``), and in
        an honest engagement all ``m`` agents build the *same* instance
        from identical bid views — so the construction is interned by
        its full field tuple.  ``BusNetwork`` is frozen, making the
        shared instance safe.  Not counted in :attr:`stats`: this memo
        removes plumbing cost, not mechanism recomputation.
        """
        key = (w, z, kind, names)
        net = self._nets.get(key)
        if net is None:
            from repro.dlt.platform import BusNetwork

            net = self._nets[key] = BusNetwork(w, z, kind, names)
        return net

    def __len__(self) -> int:
        return len(self._store)
