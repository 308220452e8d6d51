#!/usr/bin/env python3
"""Capacity planning: which system model, how many machines, what regime?

A user with a divisible workload and a catalogue of machines wants to
answer three practical questions before committing:

1. Which bus organization (CP / NCP-FE / NCP-NFE) is fastest here, and
   is the instance inside the regime where the mechanism's guarantees
   hold?
2. With realistic startup overheads, how many of the machines are even
   worth using for this load size?
3. What will incentive compatibility cost on top of the raw compute
   bill?

This example answers all three with the library's planning APIs.

Run:  python examples/capacity_planning.py
"""

from repro import BusNetwork, NetworkKind
from repro.analysis.economics import user_cost_breakdown
from repro.analysis.reporting import format_table
from repro.analysis.welfare import kind_comparison
from repro.dlt.affine import AffineBus, optimal_cohort
from repro.dlt.regime import diagnose

MACHINES = [2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0]  # seconds per unit
Z = 0.6                                                # bus rate
S_C, S_P = 0.25, 0.1                                   # startup overheads


def question_1_system_model() -> None:
    print("=" * 72)
    print("Q1: which system model, and do the guarantees hold?")
    print("=" * 72)
    kc = kind_comparison(MACHINES, Z)
    rows = []
    for kind in kc.ranking:
        rep = diagnose(BusNetwork(tuple(MACHINES), Z, kind))
        rows.append((kind.value, kc.makespans[kind],
                     "yes" if rep.mechanism_guarantees_hold else "NO"))
    print(format_table(
        ("system model", "makespan (unit load)", "guarantees hold?"),
        rows, title=f"w={MACHINES}, z={Z} (fastest first)"))
    print()


def question_2_cohort_size() -> None:
    print("=" * 72)
    print(f"Q2: with startups s_c={S_C}, s_p={S_P}, how many machines per "
          "load size?")
    print("=" * 72)
    rows = []
    for load in (0.25, 1.0, 4.0, 16.0, 64.0):
        bus = AffineBus(tuple(MACHINES), Z, s_c=S_C, s_p=S_P, load=load)
        size, alpha, t = optimal_cohort(bus)
        rows.append((load, f"{size}/{len(MACHINES)}", t, t / load))
    print(format_table(
        ("load volume", "machines used", "makespan", "time per unit"),
        rows, title="Optimal cohort vs load (affine cost model)"))
    print("Small jobs cannot amortize the startup costs: renting the whole "
          "rack would\nactually be slower.\n")


def question_3_cost_of_truthfulness() -> None:
    print("=" * 72)
    print("Q3: what does strategyproofness add to the bill?")
    print("=" * 72)
    rows = []
    for m in (2, 4, 8):
        bd = user_cost_breakdown(MACHINES[:m], NetworkKind.NCP_FE, Z)
        rows.append((m, bd.compensation_total, bd.bonus_total,
                     f"{(bd.overpayment_ratio - 1) * 100:.1f}%"))
    print(format_table(
        ("machines", "raw compute bill", "truthfulness premium",
         "premium %"),
        rows, title="Cost decomposition (truthful run, NCP-FE)"))
    print("The premium shrinks as the market grows — incentive "
          "compatibility is\nnearly free at scale.")


if __name__ == "__main__":
    question_1_system_model()
    question_2_cohort_size()
    question_3_cost_of_truthfulness()
