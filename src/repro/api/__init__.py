"""``repro.api`` — the versioned public façade (schema ``repro/api/v1``).

Programs integrate with the reproduction through this package: typed
request/result dataclasses with strict validation and canonical JSON
round-trips (:mod:`repro.api.v1`), the executors that run them
(:mod:`repro.api.execute`), and the engine/runner option objects
(:class:`EngineConfig`, :class:`RunOptions`) re-exported so callers
never import engine internals; those two resolve on first use, so a
process that only parses, validates and digests requests never loads
the engine.  The CLI and the request service
(:mod:`repro.service`) are both thin clients of this façade; by the
architecture lint, this package never imports the service (the
dependency points one way: service → api).

Quick start::

    from repro.api import EngagementRequest, execute

    req = EngagementRequest(w=(2.0, 3.0, 5.0), z=0.4)
    result = execute(req)
    result.digest()            # canonical settlement identity
    result.outcome["balances"]
"""

from repro.api.execute import (
    build_mechanism,
    execute,
    result_from_outcome,
    run_bench_request,
    run_engagement,
    run_market,
    run_multi_engagement,
    run_sweep,
    serial_reference,
)
from repro.api.registry import (
    register_request,
    register_result,
    request_entry,
)
from repro.api.v1 import (
    SCHEMA,
    ApiError,
    BenchRequest,
    BenchResult,
    EngagementRequest,
    EngagementResult,
    FleetStatsResult,
    MarketRequest,
    MarketResult,
    MultiEngagementRequest,
    MultiEngagementResult,
    ServiceStats,
    SweepRequest,
    SweepResult,
    parse_request,
    parse_result,
    request_from_dict,
    result_from_dict,
    settlement_digest,
)
from repro._lazy import attach

# The option objects live with the engine; they load on first use, so
# parsing and digesting never import it.  ``execute`` above stays
# eager: bound lazily, the submodule of the same name would shadow it.
__getattr__, __dir__ = attach(__name__, {
    "repro.core.dls_bl_ncp": ("EngineConfig",),
    "repro.sweep.runner": ("RunOptions",),
})

__all__ = [
    "SCHEMA",
    "ApiError",
    "EngagementRequest",
    "MultiEngagementRequest",
    "SweepRequest",
    "BenchRequest",
    "MarketRequest",
    "EngagementResult",
    "MultiEngagementResult",
    "SweepResult",
    "BenchResult",
    "MarketResult",
    "ServiceStats",
    "FleetStatsResult",
    "settlement_digest",
    "parse_request",
    "parse_result",
    "request_from_dict",
    "result_from_dict",
    "register_request",
    "register_result",
    "request_entry",
    "build_mechanism",
    "result_from_outcome",
    "run_engagement",
    "run_multi_engagement",
    "serial_reference",
    "run_sweep",
    "run_bench_request",
    "run_market",
    "execute",
    "EngineConfig",
    "RunOptions",
]
