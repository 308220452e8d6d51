"""``repro.service`` — the concurrent engagement service.

A long-running daemon (``repro serve`` /
:class:`~repro.service.daemon.ReproService`) that accepts
``repro/api/v1`` requests as JSON lines over a local unix socket or a
TCP port (:mod:`repro.service.tcp` is the one transport seam) and
executes them on a warm, reusable fork worker pool:

* bounded request queue with explicit backpressure;
* per-request deadlines (queued *and* running time count);
* cross-request caches — a service-level result cache keyed by request
  digest, plus per-worker ComputationCache/SignatureCache that persist
  because workers are reused;
* responses carrying the same canonical digests as direct serial calls
  (pinned by ``tests/service/test_service.py``);
* per-phase trace spans attached to every engagement response;
* live counters via the ``stats`` op (requests, queue depth, cache
  hits, p50/p95 latency);
* graceful shutdown that drains in-flight work, and poisoned-request
  isolation (a request that kills its worker fails alone; a fresh
  worker replaces the dead one, and no other request notices).

Scale-out lives one level up: :mod:`repro.service.fleet` shards
requests over N daemons by canonical digest (partitioned caches,
cross-daemon cache peeking, quarantine/failover), and
:mod:`repro.service.loadgen` drives seeded open-loop request streams
with byte-reproducible soak digests (``repro fleet`` /
``repro loadgen``).

This package sits *above* the façade: it imports :mod:`repro.api` and
nothing imports it back (architecture-linted).  Tests use
:class:`~repro.service.client.ServiceClient`, which embeds a real
daemon on a private endpoint.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import DEFAULT_QUEUE_SIZE, ReproService
from repro.service.fleet import FleetDispatcher, LocalFleet, RETRYABLE_CODES
from repro.service.loadgen import LoadgenReport, LoadgenSpec, run_loadgen
from repro.service.pool import WarmPool
from repro.service.stats import ServiceCounters
from repro.service.tcp import Endpoint, parse_endpoint

__all__ = [
    "DEFAULT_QUEUE_SIZE",
    "RETRYABLE_CODES",
    "Endpoint",
    "FleetDispatcher",
    "LoadgenReport",
    "LoadgenSpec",
    "LocalFleet",
    "ReproService",
    "ServiceClient",
    "ServiceError",
    "ServiceCounters",
    "WarmPool",
    "parse_endpoint",
    "run_loadgen",
]
