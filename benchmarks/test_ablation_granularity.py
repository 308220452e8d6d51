"""E16 (ablation) — load-division granularity.

The user divides the load into equal-sized signed blocks, so the
continuous optimal fractions are quantized (largest-remainder rule).
This ablation measures the makespan inflation that quantization costs
as a function of the block count: it must decay like ~1/num_blocks,
and the protocol's dispute machinery must stay silent (honest parties
never disagree about entitlements because everyone applies the same
deterministic rule).
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.crypto.blocks import quantize_blocks
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import makespan

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.4
BLOCK_COUNTS = (10, 30, 100, 300, 1000, 3000)


def test_quantization_inflation_decays(benchmark, report):
    def sweep():
        net = BusNetwork(W, Z, NetworkKind.NCP_FE)
        alpha = allocate(net)
        t_opt = makespan(alpha, net)
        rows = []
        for n in BLOCK_COUNTS:
            counts = np.array(quantize_blocks(alpha, n), dtype=float)
            t_q = makespan(counts / n, net)
            rows.append((n, t_q, (t_q - t_opt) / t_opt))
        return t_opt, rows

    t_opt, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    inflations = [r[2] for r in rows]
    assert all(i >= -1e-12 for i in inflations)
    assert inflations[-1] < inflations[0]
    assert inflations[-1] < 1e-3              # 3000 blocks: negligible
    # decay rate ~1/n: log-log slope near -1
    slope, _ = np.polyfit(np.log(BLOCK_COUNTS), np.log(np.maximum(inflations, 1e-12)), 1)
    assert slope < -0.5
    report(format_table(
        ("num blocks", "quantized makespan", "relative inflation"), rows,
        title=f"Quantization cost (continuous optimum T = {t_opt:.6f}); "
              f"log-log decay slope = {slope:.2f}"))


def test_no_spurious_disputes_at_any_granularity(benchmark, report):
    """Shared deterministic quantization => zero false positives."""

    def sweep():
        rows = []
        for n in (7, 23, 120, 997):
            out = DLSBLNCP(list(W), NetworkKind.NCP_FE, Z, num_blocks=n).run()
            rows.append((n, out.completed, len(out.verdicts)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(completed and verdicts == 0 for _, completed, verdicts in rows)
    report(format_table(
        ("num blocks", "completed", "disputes"), rows,
        title="Honest protocol vs block granularity: no spurious disputes "
              "(largest-remainder rule is common knowledge)"))
