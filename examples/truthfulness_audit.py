#!/usr/bin/env python3
"""Audit the mechanism's incentives on your own cluster description.

Given per-unit processing times and a bus rate (defaults provided, or
pass them on the command line), this example sweeps every processor
through a grid of misreporting and slacking strategies and prints each
one's utility landscape — an empirical strategyproofness certificate
for the exact instance you care about.

Run:  python examples/truthfulness_audit.py [z w1 w2 w3 ...]
e.g.: python examples/truthfulness_audit.py 0.3 2 3 5 4 6
"""

import sys

import numpy as np

from repro import BusNetwork, NetworkKind
from repro.analysis.reporting import format_table
from repro.analysis.strategyproofness import (
    agent_utility,
    utility_surface,
)

BID_FACTORS = [0.6, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0]
EXEC_FACTORS = [1.0, 1.2, 1.5, 2.0]


def parse_args(argv):
    if len(argv) >= 3:
        z = float(argv[1])
        w = [float(x) for x in argv[2:]]
    else:
        z, w = 0.4, [2.0, 3.0, 5.0, 4.0]
    return z, w


def audit(net: BusNetwork) -> bool:
    print(f"\n### {net.kind.value} "
          f"(w={list(net.w)}, z={net.z}) ###")
    all_truthful = True
    for i in range(net.m):
        surface = utility_surface(net, i, BID_FACTORS, EXEC_FACTORS)
        r, c = np.unravel_index(np.argmax(surface), surface.shape)
        best_bid, best_exec = BID_FACTORS[r], EXEC_FACTORS[c]
        u_truth = agent_utility(net, i)
        rows = [(bf, *[round(float(surface[ri, ci]), 4)
                       for ci in range(len(EXEC_FACTORS))])
                for ri, bf in enumerate(BID_FACTORS)]
        print(format_table(
            ("bid \\ exec", *[str(e) for e in EXEC_FACTORS]), rows,
            title=f"{net.names[i]}: utility surface "
                  f"(truthful = bid 1.0 / exec 1.0 -> {u_truth:.4f})"))
        verdict = "truth-telling optimal"
        if (best_bid, best_exec) != (1.0, 1.0):
            gain = float(surface[r, c]) - u_truth
            if gain > 1e-9:
                verdict = (f"WARNING: ({best_bid}, {best_exec}) beats truth "
                           f"by {gain:.2e}")
                all_truthful = False
            else:
                verdict = "truth-telling optimal (plateau tie)"
        print(f"  -> {verdict}\n")
    return all_truthful


def main() -> None:
    z, w = parse_args(sys.argv)
    ok = True
    for kind in (NetworkKind.CP, NetworkKind.NCP_FE, NetworkKind.NCP_NFE):
        net = BusNetwork(tuple(w), z, kind)
        ok &= audit(net)
    if ok:
        print("AUDIT PASSED: no profitable deviation found on any system "
              "model for this instance.")
    else:
        print("AUDIT FLAGGED deviations — check the DLT regime (z vs w_m "
              "for NCP-NFE; see DESIGN.md).")
        sys.exit(1)


if __name__ == "__main__":
    main()
