"""E25 (extension) — learning agents: best-response dynamics.

Dominant-strategy truthfulness has an operational signature that
weaker equilibrium notions lack: best-response dynamics reach the
truthful profile after ONE round, from any starting profile, because
each agent's best response never depends on the others.  This
benchmark verifies the signature over random instances and starting
profiles, and contrasts the convergence radius with what a mere Nash
equilibrium would guarantee (nothing).
"""

import numpy as np

from repro.analysis.dynamics import best_response_dynamics
from repro.analysis.reporting import format_table
from repro.dlt.platform import BusNetwork, NetworkKind


def test_one_round_convergence(benchmark, report):
    def sweep(instances=60):
        rng = np.random.default_rng(17)
        one_round = 0
        max_rounds_needed = 0
        for _ in range(instances):
            m = int(rng.integers(2, 8))
            w = rng.uniform(1.0, 10.0, m)
            z = float(rng.uniform(0.05, 0.6) * w.min())
            kind = list(NetworkKind)[int(rng.integers(3))]
            net = BusNetwork(tuple(w), z, kind)
            # Starts stay in the bid-profile regime (DESIGN.md §3.5 #5).
            start = rng.uniform(0.85, 2.0, m)
            trace = best_response_dynamics(net, start)
            assert trace.converged
            assert trace.distance_to(w) < 1e-9
            truthful_after_one = np.allclose(trace.profiles[1], w, rtol=1e-12)
            if truthful_after_one:
                one_round += 1
            max_rounds_needed = max(max_rounds_needed, trace.rounds)
        return instances, one_round, max_rounds_needed

    n, one_round, worst = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert one_round == n
    report(format_table(
        ("metric", "value"),
        [("random (instance, start) pairs", n),
         ("truthful after exactly one round", one_round),
         ("max rounds to fixed point", worst)],
        title="Best-response dynamics: the dominant-strategy signature "
              "(one-round convergence to truth from anywhere)"))
