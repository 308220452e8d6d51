"""E11b — future-work extension: multi-installment scheduling.

Splitting the load into pipelined installments lets workers start after
a fraction of the communication: makespan falls with the round count,
with diminishing returns, and the gain grows with the communication
rate z (communication-bound instances benefit most).
"""

from repro.analysis.reporting import format_table
from repro.dlt.multiround import multiround_makespan, round_sweep
from repro.dlt.platform import BusNetwork, NetworkKind

W = (2.0, 2.5, 3.0, 2.0, 2.5, 3.5)


def test_multiround_round_sweep(benchmark, report):
    net = BusNetwork(W, 1.0, NetworkKind.CP)
    sweep = benchmark.pedantic(round_sweep, args=(net, 12), rounds=1,
                               iterations=1)
    assert all(r.makespan <= sweep[0].makespan + 1e-9 for r in sweep)
    best = min(sweep, key=lambda r: r.makespan)
    assert best.speedup > 1.05
    report(format_table(
        ("rounds", "makespan", "speedup vs single round"),
        [(r.rounds, r.makespan, r.speedup) for r in sweep],
        title=f"Multiround sweep (CP, m={len(W)}, z=1.0)"))


def test_multiround_gain_peaks_at_balanced_z(benchmark, report):
    """The multiround speedup is unimodal in z: at tiny z communication
    is negligible (nothing to hide), at huge z the bus itself is the
    binding bottleneck (total communication z*1 lower-bounds the CP
    makespan, pipelined or not).  The gain peaks where communication and
    computation are comparable."""

    def z_sweep():
        rows = []
        for z in (0.02, 0.1, 0.5, 1.0, 2.0, 8.0):
            net = BusNetwork(W, z, NetworkKind.CP)
            r = multiround_makespan(net, 8)
            rows.append((z, r.single_round_makespan, r.makespan, r.speedup))
        return rows

    rows = benchmark.pedantic(z_sweep, rounds=1, iterations=1)
    speedups = [r[3] for r in rows]
    peak = max(speedups)
    assert peak == max(speedups[1:-1])      # interior maximum
    assert peak > speedups[0] and peak > speedups[-1]
    assert peak > 1.1
    report(format_table(
        ("z", "single-round T", "8-round T", "speedup"), rows,
        title="Multiround benefit vs communication rate (CP): unimodal, "
              "peaking where comm ~ compute"))


def test_optimized_installments_beat_equal(benchmark, report):
    """Optimizing installment sizes over the pipeline simulator: the
    size profile adapts to the regime (growing when compute-bound,
    front-heavy when communication-bound) and strictly beats the equal
    split where there is room."""
    from repro.dlt.multiround import optimize_installments

    def sweep():
        rows = []
        for z in (0.5, 1.0, 2.0):
            net = BusNetwork((2.0, 2.0, 2.0, 2.0), z, NetworkKind.CP)
            eq = multiround_makespan(net, 6)
            opt = optimize_installments(net, 6)
            gammas = [round(sum(r), 3) for r in opt.per_round_alpha]
            rows.append((z, eq.makespan, opt.makespan,
                         eq.makespan / opt.makespan, str(gammas)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for z, t_eq, t_opt, gain, _ in rows:
        assert t_opt <= t_eq + 1e-12
    assert any(r[3] > 1.01 for r in rows)
    report(format_table(
        ("z", "equal-split T", "optimized T", "gain", "installment sizes"),
        rows,
        title="Optimized vs equal installments (CP, m=4, R=6)"))


def test_multiround_all_kinds(benchmark, report):
    def all_kinds():
        rows = []
        for kind in NetworkKind:
            net = BusNetwork(W, 1.0, kind)
            r = multiround_makespan(net, 8)
            rows.append((kind.value, r.single_round_makespan, r.makespan,
                         r.speedup))
        return rows

    rows = benchmark.pedantic(all_kinds, rounds=1, iterations=1)
    for kind_name, single, multi, speedup in rows:
        assert multi <= single + 1e-9
    report(format_table(
        ("kind", "single-round T", "8-round T", "speedup"), rows,
        title="Multiround across system models (z=1.0); NCP-FE gains ~nothing "
              "because its originator already computes from t=0"))
