"""E18 (ablation) — what verification buys.

The paper's mechanism is a *mechanism with verification*: tamper-proof
meters observe the realized execution times and payments use
``w~ = phi/alpha``, not the bids.  This ablation removes the meters —
payments computed as if everyone executed at its bid — and shows the
exploit that reappears: overbid, execute at true (faster) speed, pocket
the compensation difference ``alpha_i (b_i - w_i)``.  Without
verification truth-telling is strictly dominated; with it, strictly
dominant.  This is the paper's central design choice, quantified.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.payments import payments
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind

W = np.array([2.0, 3.0, 5.0, 4.0])
Z = 0.4
AGENT = 1
FACTORS = (1.0, 1.1, 1.25, 1.5, 2.0)


def utility_with_and_without_verification(factor: float) -> tuple[float, float]:
    """Agent AGENT overbids by *factor* and executes at true speed."""
    net_true = BusNetwork(tuple(W), Z, NetworkKind.CP)
    bids = W.copy()
    bids[AGENT] *= factor
    net_bids = net_true.with_w(bids)
    alpha = allocate(net_bids)
    actual_cost = alpha[AGENT] * W[AGENT]
    # Without meters the mechanism believes w_exec == bids.
    u_unverified = payments(net_bids, bids)[AGENT] - actual_cost
    # With meters it sees the true execution values.
    u_verified = payments(net_bids, W)[AGENT] - actual_cost
    return float(u_unverified), float(u_verified)


def test_verification_kills_the_overbid_skim(benchmark, report):
    rows = benchmark.pedantic(
        lambda: [(f, *utility_with_and_without_verification(f))
                 for f in FACTORS],
        rounds=1, iterations=1)

    u_truth = rows[0][1]
    no_verif = [r[1] for r in rows]
    with_verif = [r[2] for r in rows]
    # Without verification, overbidding strictly profits and the skim
    # grows with the lie.
    assert all(b > a - 1e-12 for a, b in zip(no_verif, no_verif[1:]))
    assert no_verif[-1] > u_truth * 1.5
    # With verification, every overbid strictly loses.
    assert all(u < u_truth for u in with_verif[1:])
    assert with_verif == sorted(with_verif, reverse=True)

    report(format_table(
        ("bid factor", "U without verification", "U with verification"),
        rows,
        title=f"P{AGENT + 1} overbids and executes at true speed "
              f"(CP, w={list(W)}, z={Z}): verification flips the incentive"))


def test_verification_neutral_for_truthful_agents(benchmark, report):
    """The meters cost honest agents nothing: with b = w~ = w the two
    payment rules coincide exactly."""

    def check(instances=100):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(instances):
            m = int(rng.integers(2, 10))
            w = rng.uniform(1.0, 10.0, m)
            net = BusNetwork(tuple(w), float(rng.uniform(0.1, 1.0)),
                             NetworkKind.CP)
            diff = np.abs(payments(net, w) - payments(net, net.w_array))
            worst = max(worst, float(diff.max()))
        return instances, worst

    n, worst = benchmark.pedantic(check, rounds=1, iterations=1)
    assert worst == 0.0
    report(f"verified and unverified payments identical for truthful agents "
           f"in {n}/{n} random instances (max |diff| = {worst})")
