"""The function that runs inside warm worker processes.

A worker lives for many requests (that is the point of the warm pool:
the interpreter and the engine imports are paid once), but it keeps no
state between them.  Each request runs through :func:`repro.api.execute`
exactly as a direct call does, with caches that live for one engagement,
so a served answer equals a direct call's answer — traffic counters and
trace spans included — whatever the worker ran before.

Everything crossing the process boundary is a plain dict (the v1 wire
encoding), so the pool never depends on pickling live engine objects.
"""

from __future__ import annotations

from typing import Any

__all__ = ["execute_payload", "worker_ping"]


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
    try:
        result = execute(request)
    except ApiError as exc:
        return "error", {"code": "invalid-request", "message": str(exc)}
    except Exception as exc:  # noqa: BLE001 — shipped to the parent as data
        return "error", {"code": "domain-error",
                         "message": f"{type(exc).__name__}: {exc}"}
    return "ok", result.to_dict()
