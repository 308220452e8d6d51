"""E23 (ablation) — the atomic-broadcast assumption, priced.

The paper assumes "a reliable, atomic mechanism for broadcasting
information" and notes (footnote 1) that without it, bids need
cryptographic commitments.  This ablation runs the same split-bids
attack under three transports and reports where detection lands and
what it costs:

* **atomic** — the attack is physically impossible;
* **commit** — point-to-point + commitments: caught in the Bidding
  phase, zero work wasted (the footnote's design, validated);
* **naive** — point-to-point, no commitments: honest views diverge
  silently; detection slides to the Allocating-Load phase after
  processors have burned cycles.

Also reports the commitment scheme's own price: m extra broadcast
messages and m(m-1) point-to-point bids versus m broadcasts.
"""

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.analysis.reporting import format_table
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind
from repro.network.messages import MessageKind

W = [2.0, 3.0, 5.0, 4.0]
Z = 0.4

SPLIT = {1: AgentBehavior(deviations={Deviation.SPLIT_BIDS},
                          deviation_params={"victim": "P4",
                                            "split_bid_factor": 0.5})}


def run_modes():
    rows = []
    for mode in ("atomic", "commit", "naive"):
        out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, behaviors=SPLIT,
                       bidding_mode=mode).run()
        wasted = sum(out.costs.values())
        rows.append((mode, out.terminal_phase.name,
                     ", ".join(out.fined) or "-", wasted,
                     out.utilities["P2"]))
    return rows


def test_split_bid_attack_across_transports(benchmark, report):
    rows = benchmark.pedantic(run_modes, rounds=1, iterations=1)
    by_mode = {r[0]: r for r in rows}

    # atomic: attack impossible, run completes clean
    assert by_mode["atomic"][1] == "COMPLETE"
    assert by_mode["atomic"][2] == "-"
    # commit: caught in bidding, zero waste
    assert by_mode["commit"][1] == "BIDDING"
    assert by_mode["commit"][2] == "P2"
    assert by_mode["commit"][3] == 0.0
    # naive: caught late, compute wasted
    assert by_mode["naive"][1] == "ALLOCATING_LOAD"
    assert by_mode["naive"][2] == "P2"
    assert by_mode["naive"][3] > 0.0

    report(format_table(
        ("transport", "attack resolved in", "fined", "compute wasted",
         "attacker utility"),
        rows,
        title="Split-bids attack vs transport model (footnote 1): "
              "commitments restore bidding-phase detection"))


def test_commitment_overhead(benchmark, report):
    def measure():
        rows = []
        for mode in ("atomic", "commit", "naive"):
            out = DLSBLNCP(W, NetworkKind.NCP_FE, Z, bidding_mode=mode).run()
            rows.append((
                mode,
                out.traffic.by_kind[MessageKind.BID],
                out.traffic.by_kind[MessageKind.COMMITMENT],
                out.traffic.bytes_by_kind[MessageKind.BID]
                + out.traffic.bytes_by_kind[MessageKind.COMMITMENT],
            ))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    m = len(W)
    by_mode = {r[0]: r for r in rows}
    assert by_mode["atomic"][1] == m
    assert by_mode["commit"][1] == m * (m - 1)
    assert by_mode["commit"][2] == m
    assert by_mode["naive"][2] == 0
    report(format_table(
        ("transport", "bid messages", "commitment messages",
         "bidding-phase bytes"), rows,
        title=f"Price of losing atomic broadcast (m={m}): bid traffic "
              "goes m -> m(m-1), plus m commitments"))
