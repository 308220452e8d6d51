"""Seeded open-loop load generator for the engagement service.

``repro loadgen`` turns the "millions of users" claim into a
reproducible benchmark: a seeded arrival process drives a seeded mix of
v1 requests (engagements, utility sweeps, multi-engagement bundles —
the same scenario shapes the test tier uses) against any submit
function — a fleet dispatcher, a single client, or direct in-process
``execute`` — and reports sustained req/s plus latency percentiles.

Two properties are load-bearing:

* **Open loop.**  Arrivals follow a pre-computed schedule (exponential
  interarrivals at the target rate); a slow service does not slow the
  generator down, and latency is measured from the *scheduled* arrival
  time, so queueing delay under saturation is charged to the service
  rather than silently hidden (the coordinated-omission trap).
* **Determinism.**  The request mix and the schedule are pure functions
  of ``(seed, requests, rate)`` — versioned string seeds, no wall
  clock.  In ``--soak`` mode every response is folded into a record
  stream hashed with the sweep-digest machinery
  (:func:`repro.sweep.spec.digest_records`), covering slot order,
  request digests and settlement digests but never timing or cache
  flags — so the same seed produces the same stream digest whether one
  worker or a fleet of four served it, and CI can pin it.

The module speaks only :mod:`repro.api` types and a submit callable;
it never opens sockets (that is :mod:`repro.service.tcp`'s job) and
never imports protocol or kernel layers (architecture-linted).
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api import (
    EngagementRequest,
    MultiEngagementRequest,
    SweepRequest,
    result_from_dict,
)
from repro.service.stats import quantile
from repro.sweep.spec import SweepPlan, digest_records
from repro.sweep.tasks import warm_imports

__all__ = [
    "MIX_VERSION",
    "LoadgenSpec",
    "LoadgenReport",
    "build_mix",
    "build_schedule",
    "run_loadgen",
]

#: Version tag folded into every RNG seed.  Bump it whenever the mix or
#: schedule derivation changes — golden stream digests pin the whole
#: derivation, and a silent change would look like a service bug.
MIX_VERSION = "repro-loadgen/v1"


@dataclass(frozen=True)
class LoadgenSpec:
    """Everything that determines a loadgen run's request stream."""

    seed: int = 0
    requests: int = 100
    rate: float = 50.0        # mean arrival rate, req/s (0 = all at once)
    concurrency: int = 8      # client threads draining the schedule
    soak: bool = False        # fold responses into a stream digest

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1; got {self.requests}")
        if self.concurrency < 1:
            raise ValueError(
                f"concurrency must be >= 1; got {self.concurrency}")
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0; got {self.rate}")


def _engagement(rng: random.Random) -> EngagementRequest:
    n = rng.randint(2, 4)
    return EngagementRequest(
        w=tuple(round(rng.uniform(1.5, 6.0), 3) for _ in range(n)),
        z=round(rng.uniform(0.2, 0.8), 3),
        kind=rng.choice(("ncp-fe", "ncp-nfe")),
        num_blocks=rng.choice((20, 30, 40)))


def _sweep(rng: random.Random) -> SweepRequest:
    w = [round(rng.uniform(1.5, 6.0), 3) for _ in range(3)]
    z = round(rng.uniform(0.2, 0.8), 3)
    cells = rng.randint(2, 3)
    return SweepRequest(plan=SweepPlan.from_scenarios(
        "utility-point",
        [{"w": w, "z": z, "kind": "ncp-fe", "i": 0,
          "bid_factor": round(1.0 + 0.02 * j, 3), "exec_factor": 1.0}
         for j in range(cells)],
        root_seed=rng.randrange(2**31)).to_dict())


def _multi(rng: random.Random) -> MultiEngagementRequest:
    z = round(rng.uniform(0.2, 0.8), 3)
    subs = []
    for _ in range(2):
        n = rng.randint(2, 3)
        subs.append(EngagementRequest(
            w=tuple(round(rng.uniform(1.5, 6.0), 3) for _ in range(n)),
            z=z, num_blocks=rng.choice((20, 30))))
    return MultiEngagementRequest(engagements=tuple(subs),
                                  policy=rng.choice(("fifo", "sjf")))


def build_mix(spec: LoadgenSpec) -> list:
    """The seeded request mix: *requests* v1 payloads.

    Roughly 55% engagements, 20% utility sweeps, 10% multi-engagement
    bundles — and 15% exact repeats of earlier slots, so the stream
    exercises result caches (and, in a fleet, shard-stable routing:
    a repeat always lands on the same owner daemon).
    """
    rng = random.Random(f"{MIX_VERSION}:mix:{spec.seed}")
    mix: list = []
    for _ in range(spec.requests):
        roll = rng.random()
        if mix and roll < 0.15:
            mix.append(mix[rng.randrange(len(mix))])
        elif roll < 0.70:
            mix.append(_engagement(rng))
        elif roll < 0.90:
            mix.append(_sweep(rng))
        else:
            mix.append(_multi(rng))
    return mix


def build_schedule(spec: LoadgenSpec) -> list[float]:
    """Arrival offsets in seconds from run start (non-decreasing).

    Exponential interarrivals at ``spec.rate`` req/s; rate 0 schedules
    everything at t=0 (a pure throughput burst).
    """
    if spec.rate == 0:
        return [0.0] * spec.requests
    rng = random.Random(f"{MIX_VERSION}:arrivals:{spec.seed}:{spec.rate}")
    offsets, t = [], 0.0
    for _ in range(spec.requests):
        t += rng.expovariate(spec.rate)
        offsets.append(t)
    return offsets


@dataclass
class LoadgenReport:
    """What a run measured (and, under ``--soak``, what it proved)."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    error_codes: dict = field(default_factory=dict)
    duration: float = 0.0
    rps: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    histogram_ms: dict = field(default_factory=dict)
    stream_digest: str | None = None

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "error_codes": dict(self.error_codes),
            "duration": self.duration,
            "rps": self.rps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "histogram_ms": dict(self.histogram_ms),
            "stream_digest": self.stream_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _histogram(latencies_ms) -> dict:
    """Power-of-two latency buckets (upper bound in ms → count)."""
    buckets: dict[str, int] = {}
    for ms in latencies_ms:
        bound = 1
        while ms > bound:
            bound *= 2
        key = f"<={bound}ms"
        buckets[key] = buckets.get(key, 0) + 1
    return dict(sorted(buckets.items(), key=lambda kv: len(kv[0])))


def _record(slot: int, digest: str, response: dict) -> dict:
    """One stream-digest record: identity only, never timing or cache
    flags — the digest must agree between a cold fleet and a warm one."""
    if response.get("ok"):
        result = result_from_dict(response["result"])
        return {"slot": slot, "request": digest, "ok": True,
                "result": result.digest()}
    code = (response.get("error") or {}).get("code", "internal")
    return {"slot": slot, "request": digest, "ok": False, "code": code}


def run_loadgen(submit, spec: LoadgenSpec) -> LoadgenReport:
    """Drive the seeded stream through *submit*; measure and (in soak
    mode) digest.

    *submit* takes one v1 request object and returns a raw response
    body (``{"ok": ..., "result"/"error": ...}``) — the contract of
    :meth:`FleetDispatcher.submit`; adapters for ``ServiceClient`` or
    direct ``execute`` are one lambda each.  Exceptions from *submit*
    are folded in as ``client-error`` responses, never raised: a soak
    run must account for every slot.
    """
    # Complete the task bodies' lazy imports before any worker thread
    # runs: concurrent first-imports race Python's per-module locks
    # (see repro.sweep.tasks.warm_imports), and front-loading them also
    # keeps import cost out of the first slots' measured latency.
    warm_imports()
    mix = build_mix(spec)
    offsets = build_schedule(spec)
    digests = [req.digest() for req in mix]
    latencies = [0.0] * spec.requests
    responses: list = [None] * spec.requests
    start = time.monotonic()

    def one(slot: int, scheduled: float) -> None:
        try:
            response = submit(mix[slot])
        except Exception as exc:  # noqa: BLE001 — account for every slot
            response = {"ok": False, "error": {
                "code": "client-error", "message": str(exc)}}
        latencies[slot] = max(0.0, time.monotonic() - scheduled)
        responses[slot] = response

    with ThreadPoolExecutor(max_workers=spec.concurrency,
                            thread_name_prefix="loadgen") as pool:
        futures = []
        for slot, offset in enumerate(offsets):
            delay = (start + offset) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(one, slot, start + offset))
        for future in futures:
            future.result()
    duration = max(time.monotonic() - start, 1e-9)

    report = LoadgenReport(requests=spec.requests, duration=duration,
                           rps=spec.requests / duration)
    for response in responses:
        if response.get("ok"):
            report.ok += 1
        else:
            report.errors += 1
            code = (response.get("error") or {}).get("code", "internal")
            report.error_codes[code] = report.error_codes.get(code, 0) + 1
    ms = [1000.0 * s for s in latencies]
    report.p50_ms = round(quantile(ms, 0.50), 3)
    report.p99_ms = round(quantile(ms, 0.99), 3)
    report.max_ms = round(max(ms), 3) if ms else 0.0
    report.histogram_ms = _histogram(ms)
    if spec.soak:
        report.stream_digest = digest_records(
            [_record(slot, digests[slot], responses[slot])
             for slot in range(spec.requests)])
    return report
