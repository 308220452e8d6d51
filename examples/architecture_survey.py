#!/usr/bin/env python3
"""Survey: one workload, every supported network architecture.

The paper's future work asks how the mechanism extends to other
topologies.  This example takes one set of processors and schedules the
same divisible load on every substrate the library implements —
the three bus models, a star with heterogeneous links, a linear daisy
chain, a two-level tree — and a multiround variant, comparing makespans
and showing where each architecture's overhead comes from.

Run:  python examples/architecture_survey.py
"""

import networkx as nx

from repro import BusNetwork, NetworkKind, allocate, makespan
from repro.analysis.reporting import format_table
from repro.dlt.architectures import (
    StarNetwork,
    allocate_linear,
    allocate_star,
    collapse_tree,
    linear_finish_times,
    star_best_order,
    star_makespan,
)
from repro.dlt.multiround import multiround_makespan

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.5


def bus_rows():
    rows = []
    for kind in NetworkKind:
        net = BusNetwork(W, Z, kind)
        t = makespan(allocate(net), net)
        note = {
            NetworkKind.CP: "every worker pays a communication prefix",
            NetworkKind.NCP_FE: "originator computes from t=0 (front end)",
            NetworkKind.NCP_NFE: "originator serializes sends before computing",
        }[kind]
        rows.append((f"bus / {kind.value}", t, note))
    return rows


def star_row():
    # Same processors, but each on its own link: nearer nodes get
    # cheaper links.
    star = StarNetwork(W, (0.2, 0.4, 0.6, 0.8))
    t = star_makespan(allocate_star(star), star)
    order, best, worst = star_best_order(star)
    return [("star (heterogeneous links)", t,
             f"order matters here: best {best:.4f} vs worst {worst:.4f}")]


def chain_row():
    a = allocate_linear(W, Z)
    t = float(linear_finish_times(a, W, Z)[0])
    return [("linear daisy chain", t, "store-and-forward hops accumulate")]


def tree_row():
    g = nx.DiGraph()
    g.add_node("P1", w=W[0])
    g.add_node("P2", w=W[1])
    g.add_node("P3", w=W[2])
    g.add_node("P4", w=W[3])
    g.add_edge("P1", "P2", z=Z)
    g.add_edge("P1", "P3", z=Z)
    g.add_edge("P2", "P4", z=Z)
    eq = collapse_tree(g, "P1")
    return [("two-level tree", eq.w_equivalent,
             "equivalent-processor collapse (w_eq = unit-load makespan)")]


def multiround_row():
    net = BusNetwork(W, Z, NetworkKind.CP)
    r = multiround_makespan(net, 8)
    return [("bus / cp + 8 installments", r.makespan,
             f"pipelining hides comm: {r.speedup:.3f}x over single round")]


def main() -> None:
    print(f"Processors w={list(W)}, base communication rate z={Z}\n")
    rows = bus_rows() + multiround_row() + star_row() + chain_row() + tree_row()
    print(format_table(("architecture", "makespan (unit load)", "note"), rows,
                       title="One workload, every architecture"))

    print("\nTakeaways:")
    print(" * a computing originator (NCP) always beats a pure distributor (CP)")
    print(" * multiround recovers most of CP's communication overhead")
    print(" * on stars, service order matters (Theorem 2.2 is bus-specific)")
    print(" * chains trade bus contention for store-and-forward latency")
    print(" * trees collapse recursively into one equivalent processor, the")
    print("   building block for mechanism design on hierarchical platforms")


if __name__ == "__main__":
    main()
