"""E1 — Figure 1: execution on the bus network WITH control processor.

Regenerates the paper's Figure 1 as an ASCII Gantt chart plus the
per-processor finishing-time table, and checks the two visual claims:
the bus ships every fraction back-to-back (one-port), and at the
optimal allocation every processor finishes simultaneously (Eq. 1 +
Theorem 2.1).
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.schedule import build_schedule, render_gantt
from repro.dlt.timing import finish_times

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.6


def build_figure(w=W, z=Z):
    net = BusNetwork(w, z, NetworkKind.CP)
    alpha = allocate(net)
    return net, alpha, build_schedule(alpha, net)


def test_fig1_cp_timing(benchmark, report):
    net, alpha, sched = benchmark(build_figure)
    T = finish_times(alpha, net)

    # Visual claims of Figure 1
    assert sched.bus_is_one_port()
    assert np.allclose(T, T[0])                      # simultaneous finish
    assert len(sched.bus_segments) == net.m          # every fraction shipped
    starts = [s.start for s in sched.bus_segments]
    assert starts == sorted(starts)                  # back-to-back order

    rows = [
        (net.names[i], float(alpha[i]),
         float(sched.bus_segments[i].start), float(sched.bus_segments[i].end),
         float(T[i]))
        for i in range(net.m)
    ]
    report(f"Figure 1 (CP): m={net.m}, w={list(W)}, z={Z}")
    report(format_table(
        ("proc", "alpha_i", "comm start", "comm end", "T_i"), rows))
    report(render_gantt(sched))


def test_fig1_eq1_against_schedule(benchmark, report):
    """Eq (1) evaluated symbolically must equal the schedule's segment
    ends AND the operational discrete-event simulation — three
    independent derivations of Figure 1 agreeing."""

    def check():
        from repro.network.execution_sim import simulate_execution

        net, alpha, sched = build_figure()
        prefix = net.z * np.cumsum(alpha)
        eq1 = prefix + alpha * np.asarray(net.w)
        assert np.allclose(sched.processor_finish_times(), eq1)
        run = simulate_execution(alpha, net)
        assert np.allclose(run.finish_times, eq1)
        return float(eq1[0])

    t = benchmark(check)
    report(f"Eq (1), the schedule construction and the event-driven "
           f"simulator all agree; T = {t:.6f}")
