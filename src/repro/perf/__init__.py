"""Performance layer: content-addressed memoization for the hot paths.

DLS-BL-NCP deliberately trades computation for trust: every processor
*redundantly* computes the allocation and the payment vector.  Those
redundant computations are pure functions of the signed bid set and
the metered values, so their results can be shared through a
content-addressed cache without changing a single observable byte:
identical inputs hash to identical keys, divergent inputs (a poisoned
bid view) miss the cache and fall through to the genuine computation.
Every cache lives exactly as long as one engagement, so no answer
depends on what ran before it.

Components
----------
* :class:`~repro.perf.cache.ComputationCache` — digest-keyed memo for
  allocation vectors, exclusion-makespan vectors and payment vectors,
  one per engagement.  (Repeat signature checks are answered by the
  verdict stamp :meth:`repro.crypto.pki.PKI.verify` leaves on each
  signed message, not by this layer.)
* :mod:`~repro.perf.bench` — the perf-trajectory harness behind
  ``repro bench`` and ``benchmarks/harness.py``; writes
  ``BENCH_protocol.json`` at the repo root.

The protocol engine enables memoization by default
(``redundancy="memoized"``); passing ``redundancy="independent"``
restores truly independent per-agent computation for compliance and
equivocation experiments that want to *watch* the redundancy happen.
Both modes produce bit-identical wire traces, payments and ledgers —
a property pinned by ``tests/perf/test_equivalence.py``.
"""

from repro.perf.cache import CacheStats, ComputationCache

REDUNDANCY_MODES = ("memoized", "independent")

__all__ = [
    "CacheStats",
    "ComputationCache",
    "REDUNDANCY_MODES",
]
