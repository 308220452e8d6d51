"""E9 — Theorem 5.4: communication complexity Theta(m^2).

Runs the full honest protocol at increasing m, measuring messages and
bytes on the simulated bus (message count x message size, excluding
load-unit transfers — the paper's metric).  The Computing-Payments
phase dominates, byte volume scales ~m^2, and message count scales ~m:
the quadratic comes from message *sizes*, exactly as the proof argues.
"""

from repro.analysis.complexity import fit_loglog_slope, measure_communication
from repro.analysis.reporting import format_table
from repro.dlt.platform import NetworkKind

MS = (4, 8, 16, 32, 64)


def collect(kind=NetworkKind.NCP_FE):
    return measure_communication(MS, kind)


def test_thm54_quadratic_communication(benchmark, report):
    samples = benchmark.pedantic(collect, rounds=1, iterations=1)
    ms = [s.m for s in samples]
    byte_slope = fit_loglog_slope(ms, [s.payment_bytes for s in samples])
    total_slope = fit_loglog_slope(ms, [s.control_bytes for s in samples])
    msg_slope = fit_loglog_slope(ms, [s.control_messages for s in samples])

    assert 1.6 < byte_slope < 2.2     # Theta(m^2) payment traffic
    assert 0.8 < msg_slope < 1.2      # Theta(m) message count

    report(format_table(
        ("m", "control msgs", "control bytes", "payment-phase bytes",
         "bid-phase bytes"),
        [(s.m, s.control_messages, s.control_bytes, s.payment_bytes,
          s.bid_bytes) for s in samples],
        title="Theorem 5.4: protocol traffic vs m (NCP-FE, honest run)"))
    report(format_table(
        ("series", "log-log slope", "paper prediction"),
        [("payment-phase bytes", byte_slope, "2 (Theta(m^2))"),
         ("all control bytes", total_slope, "-> 2 as m grows"),
         ("control message count", msg_slope, "1 (Theta(m))")]))


def test_thm54_payment_phase_dominates(benchmark, report):
    samples = benchmark.pedantic(collect, rounds=1, iterations=1)
    big = samples[-1]
    share = big.payment_bytes / big.control_bytes
    assert share > 0.5
    report(format_table(
        ("m", "payment bytes / control bytes"),
        [(s.m, s.payment_bytes / s.control_bytes) for s in samples],
        title="Computing-Payments phase dominance (the proof's argument)"))


def test_thm54_holds_without_atomic_broadcast(benchmark, report):
    """Theorem 5.4 is transport-robust: point-to-point bidding raises
    the bid traffic from Theta(m) to Theta(m^2), but the total stays
    Theta(m^2) because the payment phase already dominates."""

    def both():
        return {mode: measure_communication((8, 16, 32, 64),
                                            bidding_mode=mode)
                for mode in ("atomic", "commit")}

    data = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = []
    for mode, samples in data.items():
        ms = [s.m for s in samples]
        bid_slope = fit_loglog_slope(ms, [s.bid_bytes for s in samples])
        total_slope = fit_loglog_slope(ms, [s.control_bytes for s in samples])
        rows.append((mode, bid_slope, total_slope))
    by_mode = {r[0]: r for r in rows}
    assert by_mode["atomic"][1] < 1.3       # bid bytes Theta(m)
    assert by_mode["commit"][1] > 1.6       # bid bytes Theta(m^2)
    assert 1.5 < by_mode["atomic"][2] < 2.2
    assert 1.5 < by_mode["commit"][2] < 2.2
    report(format_table(
        ("bidding transport", "bid-bytes slope", "total control-bytes slope"),
        rows,
        title="Theta(m^2) total holds with or without atomic broadcast"))


def test_thm54_same_scaling_both_ncp_kinds(benchmark, report):
    def both():
        return {k: measure_communication((8, 16, 32), k)
                for k in (NetworkKind.NCP_FE, NetworkKind.NCP_NFE)}

    data = benchmark.pedantic(both, rounds=1, iterations=1)
    rows = []
    for kind, samples in data.items():
        slope = fit_loglog_slope([s.m for s in samples],
                                 [s.payment_bytes for s in samples])
        rows.append((kind.value, slope))
        assert 1.5 < slope < 2.3
    report(format_table(("kind", "payment-bytes slope"), rows,
                        title="Theta(m^2) holds for both NCP variants"))
