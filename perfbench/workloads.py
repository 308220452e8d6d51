"""Workload inputs: pure functions of the workload seed.

The benchmark owns these generators, so a change to the program's own
load generator (``repro.service.loadgen``) cannot change what is measured.
Each generator returns ``repro.api`` request objects; the program receives
only those.
"""

from __future__ import annotations

import random

#: Folded into every RNG seed; bump it when a derivation changes.
VERSION = "perfbench/v1"

SOLO_M = 256
SOLO_Z = 0.2

#: Rounds per market request.  The market runs these back to back until
#: the run's time is up, so a run measures whole, checkable requests.
MARKET_ROUNDS = 400

SERVED_RATE = 40.0       # offered requests per second, open loop
SERVED_SENDERS = 2       # client threads, hence open connections


def _rng(*parts) -> random.Random:
    return random.Random(":".join([VERSION, *map(str, parts)]))


# -- solo_m256 ---------------------------------------------------------------

def solo_request(seed: int, index: int):
    """Honest m = 256 engagement number *index* of the stream."""
    from repro.api import EngagementRequest

    rng = _rng("solo", seed, index)
    return EngagementRequest(
        w=tuple(round(rng.uniform(1.0, 10.0), 6) for _ in range(SOLO_M)),
        z=SOLO_Z,
        kind=("ncp-fe", "ncp-nfe")[index % 2],
        pki_seed=rng.randrange(2**31))


# -- market_churn --------------------------------------------------------------

def market_request(seed: int, index: int, rounds: int = MARKET_ROUNDS):
    """Market request number *index*: a churning, contended population
    with two resident deviants."""
    from repro.api import MarketRequest

    return MarketRequest(
        rounds=rounds,
        seed=_rng("market", seed, index).randrange(2**31),
        processors=10,
        cohort=3,
        arrival_rate=2.0,
        contention_window=0.5,
        max_contention=3,
        policy="sjf",
        join_rate=0.05,
        leave_rate=0.05,
        deviants=((0, "multiple-bids"), (1, "wrong-payments")))


# -- served_mix ----------------------------------------------------------------

def _w(rng: random.Random, n: int) -> tuple:
    return tuple(round(rng.uniform(1.5, 6.0), 3) for _ in range(n))


def _engagement(rng: random.Random):
    from repro.api import EngagementRequest

    return EngagementRequest(
        w=_w(rng, rng.randint(2, 4)),
        z=round(rng.uniform(0.2, 0.8), 3),
        kind=rng.choice(("ncp-fe", "ncp-nfe")),
        num_blocks=rng.choice((20, 30, 40)))


def _sweep(rng: random.Random):
    from repro.api import SweepRequest
    from repro.sweep.spec import SweepPlan

    w = list(_w(rng, 3))
    z = round(rng.uniform(0.2, 0.8), 3)
    cells = [{"w": w, "z": z, "kind": "ncp-fe", "i": 0,
              "bid_factor": round(1.0 + 0.02 * j, 3), "exec_factor": 1.0}
             for j in range(rng.randint(2, 3))]
    return SweepRequest(plan=SweepPlan.from_scenarios(
        "utility-point", cells, root_seed=rng.randrange(2**31)).to_dict())


def _bundle(rng: random.Random):
    from repro.api import EngagementRequest, MultiEngagementRequest

    z = round(rng.uniform(0.2, 0.8), 3)
    subs = tuple(
        EngagementRequest(w=_w(rng, rng.randint(2, 3)), z=z,
                          num_blocks=rng.choice((20, 30))).to_dict()
        for _ in range(2))
    return MultiEngagementRequest(engagements=subs,
                                  policy=rng.choice(("fifo", "sjf")))


def served_mix(seed: int, count: int) -> list:
    """*count* requests: about 55% single engagements (m = 2-4), 20%
    two- or three-cell utility sweeps, 10% two-engagement bundles and 15%
    exact repeats of an earlier slot.  A longer stream extends a shorter
    one with the same seed."""
    rng = _rng("mix", seed)
    mix: list = []
    for _ in range(count):
        roll = rng.random()
        if mix and roll < 0.15:
            mix.append(mix[rng.randrange(len(mix))])
        elif roll < 0.70:
            mix.append(_engagement(rng))
        elif roll < 0.90:
            mix.append(_sweep(rng))
        else:
            mix.append(_bundle(rng))
    return mix


def served_schedule(seed: int, count: int, rate: float) -> list[float]:
    """Send offsets in seconds: a Poisson stream of *count* arrivals
    conditioned on spanning exactly ``count / rate`` seconds, so every
    seed offers the same mean rate."""
    rng = _rng("arrivals", seed, rate)
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def warmup_requests(seed: int) -> list:
    """One request of each served kind, disjoint from the measured mix;
    set-up sends them so lazy imports finish before timing."""
    rng = _rng("warmup", seed)
    return [_engagement(rng), _sweep(rng), _bundle(rng)]
