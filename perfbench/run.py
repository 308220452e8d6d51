"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solo_m256 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it measures an untraced and a traced half and prints the
per-layer metrics, each layer's share of self time and the tracing
overhead.  Every answer is checked; a failed check exits 1.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

_now = time.perf_counter

#: Fresh processes whose set-up time is measured per run (median).
SETUP_PROBES = 3
#: The end-to-end metrics of the result line (BENCHMARK.json bounds them).
UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "cpu_ms_per_op": "ms",
         "peak_rss_mb": "MB"}
#: Also printed and reported every run, but not bounded: on served_mix
#: their spread across seeds reached 0.32 (p50) and 0.40 (tail) on a
#: shared 2-vCPU host, beyond the largest bound the format allows.
REPORTED = {"p50_ms": "ms", "tail_ms": "ms"}


def _load_program() -> None:
    """Put ``src`` first on the path and make sure that is the program
    imported; without it there is nothing to measure."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: the program source {package} is "
                         "missing; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not {package}")


class Pass:
    """What one timed pass measured; ``items`` are kept for the checks."""

    def __init__(self, ops, elapsed, latencies_ms, cpu_s, rss_mb, items,
                 extra=None):
        self.ops = ops
        self.elapsed = elapsed
        self.latencies_ms = latencies_ms
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.items = items
        self.extra = extra or {}
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, ops: int, problems) -> None:
        if problems:
            self.failed += ops
            self.failures.extend(problems)

    def metrics(self) -> dict:
        from perfbench.measure import windowed_tail

        value, pct, window, windows = windowed_tail(self.latencies_ms)
        return {"ops_per_s": self.ops / self.elapsed,
                "p50_ms": statistics.median(self.latencies_ms),
                "tail_ms": value,
                "cpu_ms_per_op": 1000.0 * self.cpu_s / self.ops,
                "peak_rss_mb": self.rss_mb,
                "_tail": {"percentile": pct, "window": window,
                          "windows": windows,
                          "n": len(self.latencies_ms)}}


# ---------------------------------------------------------------------------
# direct workloads: repro.api.execute in this process
# ---------------------------------------------------------------------------

class Solo:
    """``solo_m256``: honest m = 256 engagements, one after another."""

    unit = "engagement"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def setup(self, trace_dir=None) -> None:
        import repro.api
        import repro.core.dls_bl  # noqa: F401 -- used by the answer check
        from perfbench.workloads import solo_request

        for index in (-1, -2):   # both kinds, outside the measured stream
            repro.api.execute(solo_request(self.seed, index))

    def run(self, seconds: float, recorder=None) -> Pass:
        import repro.api as api
        from perfbench.measure import own_cpu_s, own_peak_rss_mb
        from perfbench.workloads import solo_request

        done, latencies, errors = [], [], []
        cpu0, t0 = own_cpu_s(), _now()
        deadline = t0 + seconds
        index = 0
        while index == 0 or _now() < deadline:
            request = solo_request(self.seed, index)
            if recorder is not None:
                recorder.set_op(f"e{index}")
            start = _now()
            try:
                outcome = api.execute(request).outcome
            except Exception as exc:  # noqa: BLE001 -- a failed op, counted
                outcome = None
                errors.append(f"engagement {index}: {exc!r}")
            latencies.append(1000.0 * (_now() - start))
            done.append((request, outcome))
            index += 1
        result = Pass(len(done), _now() - t0, latencies, own_cpu_s() - cpu0,
                      own_peak_rss_mb(), done)
        result.fail(len(errors), errors)
        return result

    def check(self, result: Pass) -> None:
        from perfbench.checks import check_engagement

        for request, outcome in result.items:
            if outcome is not None:
                result.fail(1, check_engagement(request, outcome))

    def close(self) -> None:
        pass


class Market:
    """``market_churn``: market requests back to back; one op is a round,
    timed between consecutive rounds' calls into ``repro.api.execute``."""

    unit = "round"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed

    def setup(self, trace_dir=None) -> None:
        import repro.api
        import repro.market  # noqa: F401 -- used by the answer check
        from perfbench.workloads import market_request

        repro.api.execute(market_request(self.seed, -1, rounds=30))

    def run(self, seconds: float, recorder=None) -> Pass:
        import repro.api as api
        import repro.market.simulator as simulator
        from perfbench.measure import own_cpu_s, own_peak_rss_mb
        from perfbench.workloads import market_request

        stamps: list[float] = []
        inner = simulator.execute

        def stamped(*args, **kwargs):
            answer = inner(*args, **kwargs)
            stamps.append(_now())
            if recorder is not None:
                recorder.set_op(f"r{len(stamps)}")
            return answer

        simulator.execute = stamped
        epochs, latencies, errors = [], [], []
        rounds = failed_rounds = 0
        try:
            cpu0, t0 = own_cpu_s(), _now()
            deadline = t0 + seconds
            index = 0
            while index == 0 or _now() < deadline:
                request = market_request(self.seed, index)
                if recorder is not None:
                    recorder.set_op(f"r{len(stamps) + 1}")
                first, previous = len(stamps), _now()
                try:
                    answer = api.execute(request)
                except Exception as exc:  # noqa: BLE001 -- counted
                    answer = None
                    errors.append(f"market {index}: {exc!r}")
                for stamp in stamps[first:]:
                    latencies.append(1000.0 * (stamp - previous))
                    previous = stamp
                if answer is None:
                    rounds += request.rounds
                    failed_rounds += request.rounds
                else:
                    rounds += answer.rounds
                    epochs.append((request, answer.digest(), answer.summary))
                index += 1
            elapsed, cpu = _now() - t0, own_cpu_s() - cpu0
            rss = own_peak_rss_mb()
        finally:
            simulator.execute = inner
        summaries = [s for _, _, s in epochs]
        extra = {
            "market.engagements_per_round":
                sum(s["engagements"] for s in summaries) / rounds,
            "market.contended_ratio":
                sum(s["contended_rounds"] for s in summaries) / rounds,
            "requests": len(epochs),
            "fines": sum(s["fines"] for s in summaries),
            "crashes": sum(s["crashes"] for s in summaries)}
        result = Pass(rounds, elapsed, latencies, cpu, rss, epochs, extra)
        result.fail(failed_rounds, errors)
        return result

    def check(self, result: Pass) -> None:
        """Every request replayed untimed, every round re-verified, to the
        same stream digest."""
        from perfbench.checks import check_market
        from repro.market import run_market

        for request, digest, _ in result.items:
            try:
                problems = check_market(
                    digest, run_market(request, verify=True).digest())
            except Exception as exc:  # noqa: BLE001 -- a failed check
                problems = [f"verified replay raised {exc!r}"]
            result.fail(request.rounds, problems)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# served workload: FleetDispatcher.submit against one `repro serve` daemon
# ---------------------------------------------------------------------------

class Daemon:
    """One ``repro serve --tcp`` process with one warm worker."""

    BANNER = re.compile(r"repro service on (\S+) ")

    def __init__(self, trace_dir: Path | None = None,
                 skip_traced: int = 0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
            env["PERFBENCH_TRACE_SKIP"] = str(skip_traced)
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_boot.py"),
             "serve", "--tcp", "127.0.0.1:0", "--workers", "1",
             "--queue-size", "32", "--cache-size", "256"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = self.BANNER.search(line)
        self.endpoint = match.group(1) if match else None
        if self.endpoint is None:
            self.close()
            raise RuntimeError(f"daemon did not start (banner {line!r})")

    def pids(self) -> list[int]:
        from perfbench.measure import descendants

        return [self.proc.pid, *descendants(self.proc.pid)]

    def close(self) -> None:
        """Drain and stop the daemon; wait until it has exited."""
        if self.proc.poll() is None:
            from repro.service.tcp import send_envelope

            try:
                if self.endpoint is None:
                    raise OSError("no endpoint")
                send_envelope(self.endpoint, {"id": 0, "op": "shutdown"},
                              timeout=10.0, connect_timeout=5.0)
            except OSError:
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        self.proc.stdout.close()


class Served:
    """``served_mix``: an open-loop Poisson stream of a mixed request
    shape, sent by at most two client threads."""

    unit = "request"

    def __init__(self, seed: int, seconds: float) -> None:
        from perfbench.workloads import SERVED_RATE

        self.seed = seed
        self.count = max(1, round(SERVED_RATE * seconds))
        self.daemon = None

    def setup(self, trace_dir: Path | None = None) -> None:
        from repro.service.fleet import FleetDispatcher
        from perfbench.workloads import (SERVED_RATE, served_mix,
                                         served_schedule, warmup_requests)

        self.mix = served_mix(self.seed, self.count)
        self.offsets = served_schedule(self.seed, self.count, SERVED_RATE)
        self.digests = [request.digest() for request in self.mix]
        warmup = warmup_requests(self.seed)
        self.daemon = Daemon(trace_dir, skip_traced=len(warmup))
        self.dispatcher = FleetDispatcher([self.daemon.endpoint],
                                          timeout=60.0)
        for request in warmup:
            response = self.dispatcher.submit(request)
            if not response.get("ok"):
                raise RuntimeError(f"warm-up request failed: {response}")

    def _stats(self) -> dict:
        return self.dispatcher.stats().daemons[0]["stats"]

    def run(self, seconds: float, recorder=None) -> Pass:
        from perfbench.measure import (own_cpu_s, own_peak_rss_mb,
                                       proc_cpu_s, proc_peak_rss_mb)
        from perfbench.tracing import op_key
        from perfbench.workloads import SERVED_SENDERS

        count, mix = self.count, self.mix
        keys = ([op_key(r.to_dict()) for r in mix]
                if recorder is not None else None)
        due = [0.0] * count
        sent = [0.0] * count
        done = [0.0] * count
        responses: list = [None] * count
        slots: queue.SimpleQueue = queue.SimpleQueue()

        def sender() -> None:
            while True:
                slot = slots.get()
                if slot is None:
                    return
                sent[slot] = _now()
                if keys is not None:
                    recorder.set_op(keys[slot])
                try:
                    responses[slot] = self.dispatcher.submit(mix[slot])
                except Exception as exc:  # noqa: BLE001 -- a failed op
                    responses[slot] = {"ok": False, "error": {
                        "code": "client-error", "message": repr(exc)}}
                done[slot] = _now()

        threads = [threading.Thread(target=sender, daemon=True)
                   for _ in range(SERVED_SENDERS)]
        for thread in threads:
            thread.start()
        stats0 = self._stats()
        pids = self.daemon.pids()
        cpu0 = own_cpu_s() + sum(proc_cpu_s(p) for p in pids)
        t0 = _now() + 0.005
        for slot, offset in enumerate(self.offsets):
            due[slot] = t0 + offset
            delay = due[slot] - _now()
            if delay > 0:
                time.sleep(delay)
            slots.put(slot)
        for _ in threads:
            slots.put(None)
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("a sender thread did not finish")
        cpu = own_cpu_s() + sum(proc_cpu_s(p) for p in pids) - cpu0
        rss = own_peak_rss_mb() + sum(proc_peak_rss_mb(p) for p in pids)
        stats1 = self._stats()

        late = sorted(1000.0 * (s - d) for s, d in zip(sent, due))
        requests = stats1["requests"] - stats0["requests"]
        extra = {
            "service.cache_hit_ratio":
                (stats1["cache_hits"] - stats0["cache_hits"]) / requests,
            "service.rejected":
                (stats1["rejected"] - stats0["rejected"]) / count,
            "dispatch_late_ms": {"p50": statistics.median(late),
                                 "max": late[-1]},
            "offered_rate": count / self.offsets[-1]}
        latencies = [1000.0 * (d - s) for d, s in zip(done, due)]
        return Pass(count, max(done) - t0, latencies, cpu, rss, responses,
                    extra)

    def check(self, result: Pass) -> None:
        """Every response ok, and the served stream digest equals that of
        the same requests executed in this process."""
        import repro.api as api
        from perfbench.checks import check_served, served_records, stream_digest

        records, problems = served_records(self.digests, result.items)
        result.fail(len(problems), problems)
        if problems:
            return
        direct = [[slot, self.digests[slot], api.execute(r).digest()]
                  for slot, r in enumerate(self.mix)]
        result.fail(result.ops, check_served(stream_digest(records),
                                             stream_digest(direct)))

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None


WORKLOADS = {"solo_m256": Solo, "market_churn": Market, "served_mix": Served}


def timed_pass(args, seconds: float, recorder=None, trace_dir=None) -> Pass:
    """Set up, run one checked pass, tear down.  With a *recorder* the
    layer wrappers are on for the timed part only."""
    from perfbench import tracing

    bench = WORKLOADS[args.workload](args.seed, seconds)
    try:
        bench.setup(trace_dir)
        if recorder is not None:
            tracing.install(recorder,
                            client_only=args.workload == "served_mix")
            recorder.gc[:] = [0, 0.0]
        try:
            result = bench.run(seconds, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        bench.check(result)
    finally:
        bench.close()           # a traced daemon and worker write on exit
    return result


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(args) -> int:
    """Child mode: set up, say READY, tear down."""
    bench = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        bench.setup()
        print("READY", flush=True)
    finally:
        bench.close()
    return 0


def measure_setup(args) -> list[float]:
    """Process start to ready-for-the-first-op, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = _now()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = ""
            ready, _, _ = select.select([proc.stdout], [], [], 120.0)
            if ready:
                line = proc.stdout.readline()
            elapsed = _now() - t0
            if line.strip() != "READY":
                raise RuntimeError(f"set-up probe failed ({line!r})")
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def traced_run(args, report: dict) -> tuple[list, dict, dict]:
    """An untraced and a traced half; the per-layer metrics."""
    from perfbench import tracing

    half = args.seconds / 2.0
    plain = timed_pass(args, half)
    trace_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("spans-*.json"):
        old.unlink()
    recorder = tracing.Recorder("bench")
    traced = timed_pass(args, half, recorder, trace_dir)
    recorder.dump(trace_dir)
    merged = tracing.merge(json.loads(p.read_text())
                           for p in sorted(trace_dir.glob("spans-*.json")))
    metrics = tracing.layer_metrics(merged, traced.ops, traced.extra)
    plain_m, traced_m = plain.metrics(), traced.metrics()
    report["overhead"] = {
        "ops_per_s": traced_m["ops_per_s"] / plain_m["ops_per_s"],
        "cpu_ms_per_op": traced_m["cpu_ms_per_op"] / plain_m["cpu_ms_per_op"]}
    report["self_time_share"] = tracing.layer_shares(merged)
    report["spans"] = {"stored": merged["spans"],
                       "unlinked": merged["unlinked"],
                       "dir": str(trace_dir.relative_to(ROOT))}
    print(f"{args.workload}: traced {traced.ops} ops; "
          f"ops/s x{report['overhead']['ops_per_s']:.3f}, "
          f"cpu/op x{report['overhead']['cpu_ms_per_op']:.3f} "
          "against untraced")
    for layer, share in report["self_time_share"].items():
        print(f"  share {layer:<10} {100 * share:6.2f}%")
    units = {name: tracing.unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"  {name:<30} {value:14.4f} {units[name]}")
    return [plain, traced], metrics, units


def plain_run(args, report: dict) -> tuple[list, dict, dict]:
    """Set-up probes, then one untraced pass; the end-to-end metrics."""
    setup = measure_setup(args)
    plain = timed_pass(args, args.seconds)
    metrics = {"setup_s": statistics.median(setup)}
    found = plain.metrics()
    report["tail"] = found.pop("_tail")
    report["setup_samples_s"] = setup
    metrics.update(found)
    report["latency_ms"] = {"p50": metrics["p50_ms"],
                            "tail": metrics["tail_ms"]}
    units = {**UNITS, **REPORTED}
    print(f"{args.workload}: {plain.ops} {WORKLOADS[args.workload].unit}s "
          f"in {plain.elapsed:.2f} s")
    for name, value in metrics.items():
        note = "  (reported, not bounded)" if name in REPORTED else ""
        if name == "tail_ms":
            t = report["tail"]
            note += (f"  (p{t['percentile']:.2f}, median of {t['windows']} "
                     f"windows of >= {t['window']}; n={t['n']})")
        print(f"  {name:<14} {value:12.4f} {units[name]}{note}")
    return [plain], {name: metrics[name] for name in UNITS}, UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    if args.setup_probe:
        return setup_probe(args)

    from perfbench import measure

    report = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace,
              "fingerprint": measure.fingerprint(ROOT, args.seed),
              "loadavg_before": os.getloadavg()}
    passes, metrics, units = (traced_run if args.trace else plain_run)(
        args, report)
    report["loadavg_after"] = os.getloadavg()

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    report["failed_ratio"] = failed / attempted
    report["extra"] = {k: v for p in passes for k, v in p.extra.items()
                       if not k.startswith(("service.", "market."))}
    print(f"  failed_ratio   {report['failed_ratio']:12.4f} 1 "
          f"({failed}/{attempted})")
    for failure in [f for p in passes for f in p.failures][:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
