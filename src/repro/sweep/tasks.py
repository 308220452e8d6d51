"""The task registry: named, picklable scenario executors.

A *task* maps one :class:`~repro.sweep.spec.ScenarioSpec` to a plain
JSON-able record.  Tasks are the unit the sharded runner ships to
worker processes, so they must be deterministic functions of
``(spec.params, spec.seed)`` alone — no ambient state, no wall clock,
no process-global randomness.  That discipline is what lets the
differential suite assert byte-identical merged output across worker
counts and shard orderings.

Imports of the analysis/protocol layers happen lazily inside each task
body: the sweep engine sits above those layers (the analysis modules
import it to offer ``workers=N``), and the laziness keeps module import
acyclic.  Callers that run tasks from *threads* must complete those
imports first via :func:`warm_imports` — two threads cold-importing
submodules of one package race Python's per-module import locks (the
package ``__init__`` takes parent-then-child, a direct submodule import
takes child-then-parent; the interpreter breaks the deadlock by letting
one thread proceed against a partially initialized module, which
surfaces as a spurious ``ImportError``).
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.sweep.spec import ScenarioSpec

__all__ = [
    "TASKS",
    "BATCH_TASKS",
    "register",
    "register_batch",
    "run_scenario",
    "iter_task_groups",
    "try_run_batch",
    "warm_imports",
]

#: Every module a task body imports lazily, plus the lazy imports of
#: the layers those tasks reach at run time (the payment path pulls in
#: ``repro.core.fast_exclusion`` → ``repro.kernels.payments`` on first
#: use), of the engagement, sweep and multi-engagement executors in
#: :mod:`repro.api.execute`, and the modules behind the package names
#: they resolve on first use (``repro.sweep.RunOptions`` and
#: ``run_plan``).  Together these are the engine a served job runs on:
#: a warm worker imports them before its first job.  Kept in one place
#: so :func:`warm_imports` and the task bodies cannot drift apart
#: silently — a module listed here but no longer used costs one import;
#: a lazy import *not* listed here reintroduces the thread race.
_LAZY_MODULES = (
    "repro.agents.behaviors",
    "repro.analysis.sensitivity",
    "repro.analysis.strategyproofness",
    "repro.core.dls_bl_ncp",
    "repro.core.fast_exclusion",
    "repro.core.fines",
    "repro.dlt.platform",
    "repro.io",
    "repro.kernels.surface",
    "repro.network.faults",
    "repro.protocol.arbiter",
    "repro.protocol.phases",
    "repro.sweep.runner",
)

_WARM_LOCK = threading.Lock()


def warm_imports() -> None:
    """Complete every lazy task-body import, single-threaded.

    Idempotent and cheap once warm.  Call this before invoking
    ``run_scenario``/``try_run_batch`` (or anything that reaches them,
    like ``repro.api.execute``) concurrently from threads; see the
    module docstring for the import-lock inversion this forecloses.
    """
    with _WARM_LOCK:
        for name in _LAZY_MODULES:
            importlib.import_module(name)

TASKS: dict[str, Callable[[ScenarioSpec], dict]] = {}

# Batch-aware variants: a batch executor receives a whole chunk of specs
# (all sharing one task name) and returns one record per spec, in order.
# Registration is optional — tasks without one always take the scalar
# per-scenario path.  A batch executor MUST produce records that are
# canonical-JSON byte-identical to the scalar task's (the differential
# suite in tests/kernels/ pins this), which in practice means routing
# through the repro.kernels mirrors rather than reimplementing math.
BATCH_TASKS: dict[str, Callable[[Sequence[ScenarioSpec]], list[dict]]] = {}


def register(name: str):
    """Register a task executor under *name* (decorator)."""

    def deco(fn: Callable[[ScenarioSpec], dict]):
        if name in TASKS:
            raise ValueError(f"task {name!r} already registered")
        TASKS[name] = fn
        return fn

    return deco


def register_batch(name: str):
    """Register a whole-chunk batch executor under *name* (decorator)."""

    def deco(fn: Callable[[Sequence[ScenarioSpec]], list[dict]]):
        if name in BATCH_TASKS:
            raise ValueError(f"batch task {name!r} already registered")
        BATCH_TASKS[name] = fn
        return fn

    return deco


def run_scenario(spec: ScenarioSpec) -> dict:
    """Execute one scenario; returns its plain-data record."""
    try:
        task = TASKS[spec.task]
    except KeyError:
        raise ValueError(
            f"unknown sweep task {spec.task!r}; "
            f"registered: {sorted(TASKS)}") from None
    return task(spec)


def iter_task_groups(
    specs: Sequence[ScenarioSpec],
) -> Iterator[tuple[str, list[ScenarioSpec]]]:
    """Contiguous runs of same-task specs, in original order.

    Grouping is contiguous (never a sort) so the execution order — and
    therefore which scenario's failure surfaces first on the serial
    path — is exactly the plan order.
    """
    group: list[ScenarioSpec] = []
    for spec in specs:
        if group and spec.task != group[-1].task:
            yield group[-1].task, group
            group = []
        group.append(spec)
    if group:
        yield group[-1].task, group


def try_run_batch(specs: Sequence[ScenarioSpec]) -> list[dict] | None:
    """Run one same-task group through its batch executor, if it can.

    Returns the per-spec records, or ``None`` when no batch executor is
    registered or the executor raised — the caller then takes the scalar
    per-scenario path, which re-raises (or captures) each scenario's own
    exception with exact attribution.  This makes the batch path purely
    an optimization: it can never change *which* error a sweep reports.
    """
    if not specs:
        return []
    executor = BATCH_TASKS.get(specs[0].task)
    if executor is None:
        return None
    try:
        records = executor(specs)
    except Exception:  # noqa: BLE001 — scalar fallback re-attributes
        return None
    if len(records) != len(specs):  # defensive: a buggy executor
        return None
    return records


# ---------------------------------------------------------------------------
# shared param decoding
# ---------------------------------------------------------------------------

def _network(params: Mapping[str, Any]):
    from repro.dlt.platform import BusNetwork, NetworkKind

    return BusNetwork(tuple(float(x) for x in params["w"]),
                      float(params["z"]), NetworkKind(params["kind"]))


def _kind(params: Mapping[str, Any]):
    from repro.dlt.platform import NetworkKind

    return NetworkKind(params["kind"])


def _outcome_summary(outcome) -> dict:
    """The comparison fields resilience sweeps need, as plain data."""
    return {
        "completed": outcome.completed,
        "degraded": outcome.degraded,
        "crashed": list(outcome.crashed),
        "makespan": outcome.makespan_realized,
        "welfare": float(sum(outcome.utilities.values())),
        "retries": outcome.traffic.retries,
        "reallocated": float(sum(outcome.reallocations.values())),
        "ledger_error": abs(float(sum(outcome.balances.values()))),
    }


def _traffic_dict(outcome) -> dict:
    t = outcome.traffic
    return {
        "messages": t.messages,
        "bytes": t.bytes,
        "retries": t.retries,
        "memo_hits": t.memo_hits,
        "memo_misses": t.memo_misses,
        "sig_cache_hits": t.sig_cache_hits,
        "sig_cache_misses": t.sig_cache_misses,
    }


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

@register("utility-point")
def _utility_point(spec: ScenarioSpec) -> dict:
    """One cell of a strategyproofness utility surface (payment algebra).

    params: w, z, kind, i, bid_factor, exec_factor,
    others_bid_factors (optional list).
    """
    from repro.analysis.strategyproofness import agent_utility

    p = spec.params
    u = agent_utility(
        _network(p), int(p["i"]),
        bid_factor=float(p["bid_factor"]),
        exec_factor=float(p["exec_factor"]),
        others_bid_factors=p.get("others_bid_factors"))
    return {"bid_factor": float(p["bid_factor"]),
            "exec_factor": float(p["exec_factor"]),
            "utility": float(u)}


@register("contention-point")
def _contention_point(spec: ScenarioSpec) -> dict:
    """One cell of a cross-engagement misreport sweep (payment algebra).

    The shared processor is agent ``i_a`` in engagement A and ``i_b``
    in engagement B: it bids ``bid_factor * w`` in A and truthfully in
    B.  Each engagement settles on its own bids alone, so the record
    carries both sides' utilities for the separability check.

    params: w_a, w_b, z, kind_a, kind_b, i_a, i_b, bid_factor.
    """
    from repro.analysis.strategyproofness import agent_utility
    from repro.dlt.platform import BusNetwork, NetworkKind

    p = spec.params
    z = float(p["z"])
    net_a = BusNetwork(tuple(float(x) for x in p["w_a"]), z,
                       NetworkKind(p["kind_a"]))
    net_b = BusNetwork(tuple(float(x) for x in p["w_b"]), z,
                       NetworkKind(p["kind_b"]))
    u_a = agent_utility(net_a, int(p["i_a"]),
                        bid_factor=float(p["bid_factor"]))
    u_b = agent_utility(net_b, int(p["i_b"]), bid_factor=1.0)
    return {"bid_factor": float(p["bid_factor"]),
            "utility_a": float(u_a),
            "utility_b": float(u_b),
            "combined": float(u_a) + float(u_b)}


@register("sensitivity")
def _sensitivity(spec: ScenarioSpec) -> dict:
    """One finite-difference conditioning probe.

    params: w, z, kind, i, target ("allocation" | "payments"), eps.
    """
    from repro.analysis.sensitivity import (
        allocation_sensitivity,
        payment_sensitivity,
    )

    p = spec.params
    probe = {"allocation": allocation_sensitivity,
             "payments": payment_sensitivity}[p["target"]]
    value = probe(_network(p), int(p["i"]), eps=float(p.get("eps", 1e-4)))
    return {"target": p["target"], "i": int(p["i"]),
            "sensitivity": float(value)}


# ---------------------------------------------------------------------------
# batch executors (repro.kernels array passes over whole chunks)
# ---------------------------------------------------------------------------

def _network_key(p: Mapping[str, Any]) -> tuple:
    return (tuple(float(x) for x in p["w"]), float(p["z"]), p["kind"])


@register_batch("utility-point")
def _utility_point_batch(specs: Sequence[ScenarioSpec]) -> list[dict]:
    """A chunk of utility-surface cells as one (S, m) kernel pass.

    Cells are grouped by everything except (bid_factor, exec_factor) —
    a surface chunk is normally a single group — and each group becomes
    one :func:`repro.kernels.surface.utility_points_batch` call.  Any
    input the scalar path would reject makes the kernel raise, which
    sends the whole chunk down the scalar fallback for per-scenario
    error attribution.
    """
    from repro.kernels.surface import utility_points_batch

    records: list[dict | None] = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for pos, spec in enumerate(specs):
        p = spec.params
        others = p.get("others_bid_factors")
        key = (_network_key(p), int(p["i"]),
               None if others is None else tuple(float(x) for x in others))
        groups.setdefault(key, []).append(pos)
    for ((w, z, kind), i, others), positions in groups.items():
        from repro.dlt.platform import BusNetwork, NetworkKind

        net = BusNetwork(w, z, NetworkKind(kind))
        bf = [float(specs[pos].params["bid_factor"]) for pos in positions]
        ef = [float(specs[pos].params["exec_factor"]) for pos in positions]
        values = utility_points_batch(
            net, i, bf, ef,
            None if others is None else list(others))
        for pos, b, e, u in zip(positions, bf, ef, values):
            records[pos] = {"bid_factor": b, "exec_factor": e,
                            "utility": float(u)}
    return records  # type: ignore[return-value]


@register_batch("contention-point")
def _contention_point_batch(specs: Sequence[ScenarioSpec]) -> list[dict]:
    """A chunk of cross-engagement cells as two kernel passes per group.

    Cells are grouped by everything except ``bid_factor``; per group the
    A-side utilities are one :func:`utility_points_batch` sweep and the
    B-side (truthful, hence constant over the group) is a single-point
    batch call whose value is broadcast.
    """
    from repro.dlt.platform import BusNetwork, NetworkKind
    from repro.kernels.surface import utility_points_batch

    records: list[dict | None] = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for pos, spec in enumerate(specs):
        p = spec.params
        key = (tuple(float(x) for x in p["w_a"]),
               tuple(float(x) for x in p["w_b"]),
               float(p["z"]), p["kind_a"], p["kind_b"],
               int(p["i_a"]), int(p["i_b"]))
        groups.setdefault(key, []).append(pos)
    for (w_a, w_b, z, kind_a, kind_b, i_a, i_b), positions in groups.items():
        net_a = BusNetwork(w_a, z, NetworkKind(kind_a))
        net_b = BusNetwork(w_b, z, NetworkKind(kind_b))
        bf = [float(specs[pos].params["bid_factor"]) for pos in positions]
        ones = [1.0] * len(bf)
        u_a = utility_points_batch(net_a, i_a, bf, ones)
        u_b = float(utility_points_batch(net_b, i_b, [1.0], [1.0])[0])
        for pos, b, ua in zip(positions, bf, u_a):
            records[pos] = {"bid_factor": b, "utility_a": float(ua),
                            "utility_b": u_b,
                            "combined": float(ua) + u_b}
    return records  # type: ignore[return-value]


@register_batch("sensitivity")
def _sensitivity_batch(specs: Sequence[ScenarioSpec]) -> list[dict]:
    """A chunk of conditioning probes as one kernel pass per network.

    Probes are grouped by (network, target, eps); the varying agent
    indices become one vector passed to the batched probe.
    """
    from repro.kernels.surface import (
        allocation_sensitivities_batch,
        payment_sensitivities_batch,
    )

    probes = {"allocation": allocation_sensitivities_batch,
              "payments": payment_sensitivities_batch}
    records: list[dict | None] = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for pos, spec in enumerate(specs):
        p = spec.params
        key = (_network_key(p), p["target"], float(p.get("eps", 1e-4)))
        groups.setdefault(key, []).append(pos)
    for ((w, z, kind), target, eps), positions in groups.items():
        from repro.dlt.platform import BusNetwork, NetworkKind

        probe = probes[target]
        net = BusNetwork(w, z, NetworkKind(kind))
        idx = [int(specs[pos].params["i"]) for pos in positions]
        values = probe(net, idx, eps=eps)
        for pos, i, v in zip(positions, idx, values):
            records[pos] = {"target": target, "i": i,
                            "sensitivity": float(v)}
    return records  # type: ignore[return-value]


def _resilience_outcome(p: Mapping[str, Any], fault_plan) -> dict:
    from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig

    outcome = DLSBLNCP(
        [float(x) for x in p["w"]], _kind(p), float(p["z"]),
        config=EngineConfig(
            num_blocks=int(p.get("num_blocks", 120)),
            bidding_mode=p.get("bidding_mode", "atomic"),
            fault_plan=fault_plan,
        ),
    ).run()
    record = _outcome_summary(outcome)
    record["traffic"] = _traffic_dict(outcome)
    return record


@register("resilience-baseline")
def _resilience_baseline(spec: ScenarioSpec) -> dict:
    """Fault-free twin: armed-but-inert plan (same measurement path)."""
    from repro.network.faults import FaultPlan, MessageFault

    plan = FaultPlan(messages=(MessageFault(action="drop", probability=0.0),))
    return _resilience_outcome(spec.params, plan)


@register("resilience-crash")
def _resilience_crash(spec: ScenarioSpec) -> dict:
    """Mid-Processing crash of one victim at a progress level.

    params: w, z, kind, victim, progress, num_blocks.
    """
    from repro.network.faults import CrashFault, FaultPlan
    from repro.protocol.phases import Phase

    p = spec.params
    plan = FaultPlan(crashes=(CrashFault(
        str(p["victim"]), phase=Phase.PROCESSING_LOAD,
        progress=float(p["progress"])),))
    return _resilience_outcome(p, plan)


@register("resilience-drop")
def _resilience_drop(spec: ScenarioSpec) -> dict:
    """Unicast drops at a rate, under a pinned fault seed.

    params: w, z, kind, rate, seed, bidding_mode, num_blocks.
    """
    from repro.network.faults import FaultPlan, MessageFault

    p = spec.params
    plan = FaultPlan(seed=int(p.get("seed", spec.seed)), messages=(
        MessageFault(action="drop", probability=float(p["rate"])),))
    return _resilience_outcome(p, plan)


@register("protocol")
def _protocol(spec: ScenarioSpec) -> dict:
    """One full DLS-BL-NCP engagement, archived as its result record.

    params: w, z, kind, plus optional bidding_mode, num_blocks,
    fine_factor, crash ([[victim_index, progress], ...]), drop_rate,
    deviants ([[index, deviation-name], ...]), seed (fault seed;
    defaults to the derived scenario seed).
    """
    from repro.agents.behaviors import AgentBehavior, Deviation
    from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
    from repro.core.fines import FinePolicy
    from repro.io import protocol_result_to_dict
    from repro.network.faults import CrashFault, FaultPlan, MessageFault
    from repro.protocol.phases import Phase

    p = spec.params
    w = [float(x) for x in p["w"]]
    names = [f"P{i + 1}" for i in range(len(w))]

    behaviors: dict[int, AgentBehavior] = {}
    for idx, name in p.get("deviants", ()):
        idx = int(idx)
        existing = behaviors.get(idx)
        devs = ((existing.deviations if existing else frozenset())
                | {Deviation(name)})
        behaviors[idx] = AgentBehavior(deviations=devs)

    crashes = tuple(
        CrashFault(names[int(idx)], phase=Phase.PROCESSING_LOAD,
                   progress=float(progress))
        for idx, progress in p.get("crash", ()))
    messages = ()
    if p.get("drop_rate"):
        messages = (MessageFault(action="drop",
                                 probability=float(p["drop_rate"])),)
    fault_plan = None
    if crashes or messages:
        fault_plan = FaultPlan(seed=int(p.get("seed", spec.seed)),
                               crashes=crashes, messages=messages)

    outcome = DLSBLNCP(
        w, _kind(p), float(p["z"]),
        config=EngineConfig(
            behaviors=behaviors or None,
            policy=FinePolicy(float(p.get("fine_factor", 2.0))),
            num_blocks=int(p.get("num_blocks", 120)),
            bidding_mode=p.get("bidding_mode", "atomic"),
            fault_plan=fault_plan,
        ),
    ).run()
    record = protocol_result_to_dict(outcome)
    # Spans carry the same counters the shard aggregator reads from
    # "traffic"; normalize the key set so every protocol-flavoured task
    # aggregates identically.
    record["traffic"] = _traffic_dict(outcome)
    return record
