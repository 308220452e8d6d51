"""The function that runs inside warm worker processes.

A worker lives for many requests (that is the point of the warm pool),
so it owns process-global content-addressed caches: the first
engagement pays for its allocation/payment computations and signature
verifications, later engagements touching the same signed payloads hit
the caches.  The caches alter traffic *counters* only — settlements are
pure functions of the request — which is why a served answer's
:func:`repro.api.settlement_digest` matches a cold direct call's.

Everything crossing the process boundary is a plain dict (the v1 wire
encoding), so the pool never depends on pickling live engine objects.
"""

from __future__ import annotations

from typing import Any

__all__ = ["execute_payload", "worker_ping"]

_MEMO = None
_SIGCACHE = None


def _caches():
    """This worker's long-lived caches (created on first request)."""
    global _MEMO, _SIGCACHE
    if _MEMO is None:
        from repro.perf import ComputationCache, SignatureCache

        _MEMO = ComputationCache()
        _SIGCACHE = SignatureCache()
    return _MEMO, _SIGCACHE


def worker_ping() -> bool:
    """No-op job used to spin workers up eagerly (pool warm-up)."""
    return True


def execute_payload(payload: dict) -> tuple[str, dict[str, Any]]:
    """Parse and execute one v1 request dict.

    Returns ``("ok", result_dict)`` or ``("error", {"code", "message"})``
    — domain failures are *data*, so one bad request can never poison
    the worker for the requests queued behind it.  (A worker that dies
    outright — the poisoned-request case — closes its channel, and the
    pool fails just this job with ``WorkerDied``.)
    """
    from repro.api import ApiError, execute, request_from_dict

    try:
        request = request_from_dict(payload)
    except ApiError as exc:
        return "error", {"code": "invalid-request", "message": str(exc)}
    memo, signature_cache = _caches()
    try:
        result = execute(request, memo=memo, signature_cache=signature_cache)
    except ApiError as exc:
        return "error", {"code": "invalid-request", "message": str(exc)}
    except Exception as exc:  # noqa: BLE001 — shipped to the parent as data
        return "error", {"code": "domain-error",
                         "message": f"{type(exc).__name__}: {exc}"}
    return "ok", result.to_dict()
