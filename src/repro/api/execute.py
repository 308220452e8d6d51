"""Executors: turn v1 requests into v1 results.

This is the single execution path behind both front doors.  The CLI
(``repro protocol`` / ``repro sweep`` / ``repro call``) and the request
service (:mod:`repro.service`) both construct a request dataclass from
:mod:`repro.api.v1` and hand it to :func:`execute`; neither reaches
into the engine layers directly.  Because the service's warm workers
run these exact functions, a served answer is byte-comparable (by
``digest()``) with a direct in-process call on the same request.

Every executor takes the request alone, and each engagement builds its
own caches, so a warm worker's answer — traffic counters and trace
spans included — does not depend on what the worker ran before.
"""

from __future__ import annotations

from repro.api import registry as _registry
from repro.api.v1 import (
    BenchRequest,
    BenchResult,
    EngagementRequest,
    EngagementResult,
    MarketRequest,
    MarketResult,
    MultiEngagementRequest,
    MultiEngagementResult,
    SweepRequest,
    SweepResult,
)

__all__ = [
    "build_mechanism",
    "result_from_outcome",
    "run_engagement",
    "run_multi_engagement",
    "serial_reference",
    "run_sweep",
    "run_bench_request",
    "run_market",
    "execute",
]


def build_mechanism(request: EngagementRequest):
    """The live :class:`~repro.core.dls_bl_ncp.DLSBLNCP` a request
    describes (for callers that need the bus object, e.g. ``--trace``)."""
    from repro.core.dls_bl_ncp import DLSBLNCP
    from repro.dlt.platform import NetworkKind

    return DLSBLNCP.from_config(list(request.w), NetworkKind(request.kind),
                                request.z, request.engine_config())


def result_from_outcome(outcome, *, cached: bool = False) -> EngagementResult:
    """Wrap a protocol outcome as a v1 :class:`EngagementResult`."""
    from repro.io import protocol_result_to_dict

    return EngagementResult(outcome=protocol_result_to_dict(outcome),
                            cached=cached)


def run_engagement(request: EngagementRequest) -> EngagementResult:
    """Run one DLS-BL-NCP engagement end to end."""
    return result_from_outcome(build_mechanism(request).run())


def run_multi_engagement(request: MultiEngagementRequest
                         ) -> MultiEngagementResult:
    """Run K engagements over one shared bus via the window arbiter.

    The result's ``digest_value`` covers settlements only, so it must
    equal :func:`serial_reference` for any policy whenever the
    engagements are fault-free (and for FIFO always at K=1) — the
    correctness contract the differential suite pins.
    """
    from repro.io import protocol_result_to_dict
    from repro.protocol.arbiter import BusArbiter

    out = BusArbiter(request.z, request.jobs(), policy=request.policy).run()
    return MultiEngagementResult(
        outcomes={eid: protocol_result_to_dict(r)
                  for eid, r in out.results.items()},
        policy=request.policy,
        order=out.order,
        completions=out.completions,
    )


def serial_reference(request: MultiEngagementRequest) -> str:
    """Settlement digest of the serial reference execution.

    Each engagement runs *alone* on its own bus through the ordinary
    solo executor, in submission order; the combined digest is the
    identity of a :class:`MultiEngagementResult` over those outcomes.
    Contention moves flow times, never settlements, so the arbiter path
    must reproduce this digest.
    """
    outcomes = {eid: run_engagement(sub).outcome
                for eid, sub in zip(request.engagement_ids,
                                    request.engagements)}
    return MultiEngagementResult(outcomes=outcomes, policy=request.policy,
                                 order=request.engagement_ids).digest()


def run_sweep(request: SweepRequest) -> SweepResult:
    """Run a sweep plan through the sharded engine."""
    from repro.sweep import RunOptions, run_plan

    run = run_plan(request.build_plan(),
                   RunOptions(workers=request.workers))
    return SweepResult.from_run(run)


def run_bench_request(request: BenchRequest) -> BenchResult:
    """Time the perf kernels once (no gate, no report file)."""
    from repro.perf.bench import run_bench
    from repro.sweep import RunOptions

    timings = run_bench(quick=request.quick,
                        options=RunOptions(workers=request.workers))
    return BenchResult(timings=timings, quick=request.quick)


def run_market(request: MarketRequest) -> MarketResult:
    """Run a long-horizon market simulation round by round."""
    from repro.market import run_market as _run

    return _run(request)


def execute(request):
    """Dispatch any v1 request to its executor; returns a v1 result.

    Dispatch is registry-driven: :func:`repro.api.registry.executor_for`
    looks the executor up by the request's ``TYPE`` discriminator, so a
    newly registered request kind is executable here — and through the
    daemon and CLI, which call this same function — with no edits.
    """
    executor = _registry.executor_for(request)
    return executor(request)


# Attach executors to the kinds repro.api.v1 registered at its import —
# the second phase of the registry's two-phase registration.
_registry.register_request(EngagementRequest, run_engagement)
_registry.register_request(MultiEngagementRequest, run_multi_engagement)
_registry.register_request(SweepRequest, run_sweep)
_registry.register_request(BenchRequest, run_bench_request)
_registry.register_request(MarketRequest, run_market)
