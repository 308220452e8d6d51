"""E24 (extension) — serving a queue of divisible loads.

Pipelines a batch of jobs through one bus and reproduces two classic
queueing facts in the DLT setting: (a) pipelining hides most of the
per-job communication (batch makespan well below the sum of isolated
makespans), and (b) shortest-job-first minimizes mean flow time, by a
large factor, while barely moving the makespan.
"""

from repro.analysis.reporting import format_table
from repro.dlt.multijob import flow_time_by_order, schedule_jobs, sjf_order
from repro.dlt.platform import BusNetwork, NetworkKind

NET = BusNetwork((2.0, 3.0, 5.0, 4.0), 0.4, NetworkKind.CP)
LOADS = [3.0, 0.5, 1.5, 1.0]


def test_pipelining_gain(benchmark, report):
    def measure():
        isolated = sum(schedule_jobs(NET, [L]).makespan for L in LOADS)
        batched = schedule_jobs(NET, LOADS).makespan
        return isolated, batched

    isolated, batched = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert batched < isolated - 1e-9
    report(format_table(
        ("schedule", "makespan"),
        [("jobs run in isolation (sum)", isolated),
         ("pipelined batch (FIFO)", batched),
         ("saving", isolated - batched)],
        title=f"Pipelining a {len(LOADS)}-job batch (CP, m=4)"))


def test_sjf_minimizes_mean_flow(benchmark, report):
    rows = benchmark.pedantic(flow_time_by_order, args=(NET, LOADS),
                              rounds=1, iterations=1)
    best = min(rows, key=lambda r: r[1])
    worst = max(rows, key=lambda r: r[1])
    assert list(best[0]) == sjf_order(LOADS)
    assert worst[1] / best[1] > 1.3

    shown = sorted(rows, key=lambda r: r[1])[:3] + [worst]
    report(format_table(
        ("order (job indices)", "mean flow time", "batch makespan"),
        [(str(o), f, t) for o, f, t in shown],
        title=f"Job ordering effects over {len(rows)} orders "
              f"(loads={LOADS}); SJF = {sjf_order(LOADS)} wins"))
