"""Command-line interface: ``python -m repro <command> ...``.

Thin argparse layer over the public API so the library is usable
without writing Python:

* ``allocate`` — optimal fractions + finishing times for a bus network;
* ``schedule`` — the same, rendered as an ASCII Gantt (Figures 1-3);
* ``mechanism`` — a DLS-BL round: payments, bonuses, utilities;
* ``protocol`` — a full DLS-BL-NCP run, optionally with deviants;
* ``contend`` — K engagements multiplexed over one bus via the arbiter;
* ``survey``  — makespan comparison across the three system models;
* ``serve`` / ``call`` — the engagement service daemon and its client;
* ``fleet`` / ``loadgen`` — N digest-sharded daemons behind one
  dispatcher, and the seeded open-loop generator that benchmarks them.

Examples::

    python -m repro allocate --kind ncp-fe --z 0.5 2 3 5 4
    python -m repro schedule --kind cp --z 0.6 2 3 5
    python -m repro mechanism --kind cp --z 0.5 --bids 2 3 5 --exec 2 3 5
    python -m repro protocol --kind ncp-fe --z 0.4 2 3 5 --deviant 1:multiple-bids
    python -m repro survey --z 0.5 2 3 5 4
    python -m repro serve --tcp 127.0.0.1:7341 --workers 2
    python -m repro loadgen --requests 2000 --soak --daemons 4

The CLI is a thin client of the versioned façade: protocol and sweep
invocations are packaged as :mod:`repro.api` request objects, and the
analysis layer is reached only through :mod:`repro.api.analysis`
(architecture-linted).

Exit codes are uniform across subcommands: ``0`` success, ``1`` domain
failure (engagement terminated, regression gate tripped, service-side
error), ``2`` usage or validation error (bad flags, malformed request
or plan files).
"""

from __future__ import annotations

import argparse
import sys

from repro.api import EngagementRequest, SweepRequest

__all__ = ["main", "build_parser"]

#: The ``--kind`` names, the values of :class:`repro.dlt.NetworkKind`
#: (pinned equal by a test).  Kept as strings so that building the
#: parser, and every subcommand that only speaks the wire, never loads
#: the engine: the engine is imported by the subcommands that compute.
_KINDS = ("cp", "ncp-fe", "ncp-nfe")


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed — running from a source tree
        from repro import __version__

        return __version__


def _kind(value: str):
    """A ``--kind`` name as a :class:`repro.dlt.NetworkKind`.

    argparse applies this to string defaults too, so the engine loads
    only in a subcommand that takes ``--kind``.
    """
    if value not in _KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown kind {value!r}; choose from {sorted(_KINDS)}")
    from repro.dlt.platform import NetworkKind

    return NetworkKind(value)


def _deviation(value: str) -> tuple[int, str]:
    """Parse ``INDEX:deviation-name`` (e.g. ``1:multiple-bids``).

    The name is checked against the deviation catalogue here so a typo
    fails at argument-parsing time (exit 2, with the valid names);
    :class:`repro.api.EngagementRequest` re-validates index bounds.
    """
    try:
        idx_str, name = value.split(":", 1)
        idx = int(idx_str)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected INDEX:NAME; got {value!r} ({exc})")
    from repro.agents.behaviors import Deviation

    valid = sorted(d.value for d in Deviation)
    if name not in valid:
        raise argparse.ArgumentTypeError(
            f"unknown deviation {name!r}; choose from {valid}")
    return idx, name


def _crash_spec(value: str) -> tuple[int, float]:
    """Parse ``INDEX[:PROGRESS]`` (e.g. ``2:0.5``) for --crash."""
    try:
        if ":" in value:
            idx_str, prog_str = value.split(":", 1)
            idx, progress = int(idx_str), float(prog_str)
        else:
            idx, progress = int(value), 0.0
        if not 0.0 <= progress <= 1.0:
            raise ValueError("progress must be in [0, 1]")
        return idx, progress
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected INDEX[:PROGRESS] with PROGRESS in [0,1]; "
            f"got {value!r} ({exc})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strategyproof divisible-load scheduling on bus networks "
                    "(Carroll & Grosu 2006 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {_package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_kind=True):
        if with_kind:
            p.add_argument("--kind", type=_kind, default="ncp-fe",
                           help=f"system model: {sorted(_KINDS)} "
                                "(default ncp-fe)")
        p.add_argument("--z", type=float, required=True,
                       help="per-unit bus communication time")
        p.add_argument("w", type=float, nargs="+",
                       help="per-unit processing times w_1 .. w_m")

    p = sub.add_parser("allocate", help="optimal load fractions")
    add_common(p)

    p = sub.add_parser("schedule", help="ASCII Gantt chart (Figures 1-3)")
    add_common(p)
    p.add_argument("--width", type=int, default=72)

    p = sub.add_parser("mechanism", help="one DLS-BL payment round")
    p.add_argument("--kind", type=_kind, default="cp")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--bids", type=float, nargs="+", required=True)
    p.add_argument("--exec", type=float, nargs="+", dest="exec_values",
                   help="observed execution values (default: same as bids)")

    p = sub.add_parser("protocol", help="full DLS-BL-NCP run")
    add_common(p)
    p.add_argument("--deviant", type=_deviation, action="append", default=[],
                   metavar="INDEX:NAME",
                   help="make processor INDEX attempt a deviation "
                        "(repeatable), e.g. 1:multiple-bids")
    p.add_argument("--fine-factor", type=float, default=2.0)
    p.add_argument("--bidding-mode", choices=("atomic", "commit", "naive"),
                   default="atomic",
                   help="transport model for the Bidding phase "
                        "(paper footnote 1); default atomic broadcast")
    p.add_argument("--trace", action="store_true",
                   help="print the wire-level transcript and traffic summary")
    p.add_argument("--trace-json", nargs="?", const="-", default=None,
                   metavar="FILE",
                   help="dump the structured per-phase trace spans as a "
                        "JSON document to FILE ('-' or no value: stdout)")
    p.add_argument("--json", action="store_true",
                   help="emit the outcome as JSON instead of tables")
    p.add_argument("--crash", type=_crash_spec, action="append", default=[],
                   metavar="INDEX[:PROGRESS]",
                   help="crash processor INDEX mid-Processing after "
                        "completing PROGRESS of its assignment "
                        "(repeatable), e.g. 2:0.5")
    p.add_argument("--drop-rate", type=float, default=0.0,
                   help="drop each unicast control message with this "
                        "probability (default 0: reliable transport)")
    p.add_argument("--seed", type=int, default=None,
                   help="fault-plan seed for --drop-rate (default 0)")
    p.add_argument("--pki-seed", type=int, default=None, metavar="N",
                   help="derive every key and commitment nonce from N, so "
                        "a --trace transcript repeats byte for byte "
                        "(default: fresh OS entropy per run)")
    p.add_argument("--committee", type=int, default=0, metavar="N",
                   help="adjudicate with an N-member referee committee "
                        "instead of the single trusted referee "
                        "(default 0: trusted referee)")
    p.add_argument("--byzantine", type=int, default=0, metavar="K",
                   help="make the first K committee seats Byzantine "
                        "(requires --committee; K <= (N-1)//3)")
    p.add_argument("--byzantine-mode",
                   choices=("silent", "equivocate", "fine-steal"),
                   default="silent",
                   help="strategy of the --byzantine seats "
                        "(default silent)")

    p = sub.add_parser("contend",
                       help="K engagements contending for one shared bus")
    add_common(p)
    p.add_argument("--engagements", type=int, default=2, metavar="K",
                   help="number of concurrent engagements (default 2); "
                        "engagement j runs the base w scaled by "
                        "1 + spread*(K-j), so earlier submissions are "
                        "longer and SJF has something to reorder")
    p.add_argument("--spread", type=float, default=0.25,
                   help="per-engagement w scaling step (default 0.25; "
                        "0 makes all K engagements identical)")
    p.add_argument("--policy", choices=("fifo", "sjf", "rr"),
                   default="fifo",
                   help="bus-window granting policy (default fifo)")
    p.add_argument("--fine-factor", type=float, default=2.0)
    p.add_argument("--verify", action="store_true",
                   help="also run each engagement solo (serial reference) "
                        "and fail unless the settlement digests match")
    p.add_argument("--json", action="store_true",
                   help="emit the multi-engagement result as JSON")

    p = sub.add_parser("resilience",
                       help="protocol under injected crash/drop faults")
    add_common(p)
    p.add_argument("--progress", type=float, nargs="+",
                   default=[0.0, 0.25, 0.5, 0.75],
                   help="mid-Processing crash progress levels to sweep")
    p.add_argument("--drop-rates", type=float, nargs="+",
                   default=[0.0, 0.1, 0.25],
                   help="unicast drop probabilities to sweep")
    p.add_argument("--seeds", type=int, default=3,
                   help="fault-plan seeds per drop rate")
    p.add_argument("--bidding-mode", choices=("commit", "naive"),
                   default="commit",
                   help="point-to-point mode for the drop sweep")
    p.add_argument("--workers", type=int, default=1,
                   help="shard the sweeps over N worker processes "
                        "(default 1: serial; results are identical)")

    p = sub.add_parser("survey", help="compare the three system models")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("w", type=float, nargs="+")

    p = sub.add_parser("star", help="DLS-ST mechanism round on a star network")
    p.add_argument("--links", type=float, nargs="+", required=True,
                   help="per-worker link times z_1 .. z_m (public)")
    p.add_argument("--bids", type=float, nargs="+", required=True)
    p.add_argument("--exec", type=float, nargs="+", dest="exec_values")

    p = sub.add_parser("chain", help="DLS-LN mechanism round on a daisy chain")
    p.add_argument("--hops", type=float, nargs="+", required=True,
                   help="per-hop link times z_1 .. z_{m-1} (public)")
    p.add_argument("--bids", type=float, nargs="+", required=True)
    p.add_argument("--exec", type=float, nargs="+", dest="exec_values")

    p = sub.add_parser("affine", help="optimal cohort under startup overheads")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--sc", type=float, default=0.0, help="comm startup")
    p.add_argument("--sp", type=float, default=0.0, help="compute startup")
    p.add_argument("--load", type=float, default=1.0)
    p.add_argument("--kind", type=_kind, default="cp")
    p.add_argument("w", type=float, nargs="+")

    p = sub.add_parser("regime", help="diagnose the DLT regime for an instance")
    add_common(p)

    p = sub.add_parser("bench",
                       help="time the hot kernels and refresh "
                            "BENCH_protocol.json")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke mode: same kernel sizes, fewer reps")
    p.add_argument("--no-check", action="store_true",
                   help="skip the regression gate against the baseline")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed slowdown vs baseline (default 0.25)")
    p.add_argument("--output", default=None,
                   help="report path (default <repo>/BENCH_protocol.json)")
    p.add_argument("--workers", type=int, default=1,
                   help="also time the sweep kernel sharded over N workers")

    p = sub.add_parser("sweep",
                       help="run a scenario sweep (plan file or inline "
                            "grid), optionally sharded over workers")
    p.add_argument("--plan", default=None, metavar="FILE",
                   help="JSON sweep-plan file (repro/sweep-plan/v1)")
    p.add_argument("--task", default=None,
                   help="task name for an inline grid "
                        "(e.g. utility-point, protocol, sensitivity)")
    p.add_argument("--kind", type=_kind, default=None,
                   help="shortcut for --set kind=...")
    p.add_argument("--z", type=float, default=None,
                   help="shortcut for --set z=...")
    p.add_argument("--w", type=float, nargs="+", default=None,
                   help="shortcut for --set w=...")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="assignments",
                   help="base parameter (JSON value or bare scalar); "
                        "repeatable")
    p.add_argument("--grid", action="append", default=[],
                   metavar="KEY=V1,V2,... | KEY=START:STOP:COUNT",
                   help="sweep axis (cartesian product, last axis "
                        "fastest); repeatable")
    p.add_argument("--root-seed", type=int, default=0,
                   help="root seed for derived per-scenario seeds")
    p.add_argument("--workers", type=int, default=1,
                   help="shard over N worker processes (default serial)")
    p.add_argument("--json", action="store_true",
                   help="emit records + digest + shard stats as JSON")
    p.add_argument("--progress", action="store_true",
                   help="report completion to stderr while running")
    p.add_argument("--no-batch", action="store_true",
                   help="disable the batch kernel path and run the "
                        "scalar per-scenario reference (records and "
                        "digest are identical either way)")

    p = sub.add_parser("serve",
                       help="run the engagement service daemon on a "
                            "unix socket or TCP port")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket path to listen on")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="TCP endpoint to listen on (port 0 picks a free "
                        "port; the bound endpoint is printed)")
    p.add_argument("--workers", type=int, default=1,
                   help="warm worker processes (default 1)")
    p.add_argument("--queue-size", type=int, default=32,
                   help="bounded request queue depth; admissions beyond "
                        "it are rejected with code 'backpressure'")
    p.add_argument("--cache-size", type=int, default=256,
                   help="cross-request result cache entries (0 disables)")

    p = sub.add_parser("call",
                       help="send one repro/api/v1 request (or op) to a "
                            "running service")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket path of the daemon")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="TCP endpoint of the daemon")
    p.add_argument("--request", default=None, metavar="FILE",
                   help="JSON request file ('-': stdin)")
    p.add_argument("--op", choices=("ping", "stats", "shutdown"),
                   default=None,
                   help="send a service op instead of a request file")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="client-side socket timeout (default 300)")
    p.add_argument("--connect-timeout", type=float, default=10.0,
                   help="seconds to wait for the daemon to accept the "
                        "connection (default 10; a dead TCP endpoint "
                        "fails fast instead of hanging)")

    p = sub.add_parser("fleet",
                       help="launch N local service daemons behind the "
                            "digest-sharded dispatcher, or query a "
                            "running fleet's stats")
    p.add_argument("--daemons", type=int, default=2,
                   help="fleet size to launch (default 2)")
    p.add_argument("--workers", type=int, default=1,
                   help="warm worker processes per daemon (default 1)")
    p.add_argument("--queue-size", type=int, default=32,
                   help="per-daemon request queue depth")
    p.add_argument("--cache-size", type=int, default=256,
                   help="per-daemon result cache entries")
    p.add_argument("--unix", action="store_true",
                   help="use unix sockets in a temp dir instead of "
                        "loopback TCP")
    p.add_argument("--stats", default=None, metavar="EP1,EP2,...",
                   help="instead of launching: print a running fleet's "
                        "aggregate stats as JSON (exit 1 if any daemon "
                        "is unhealthy)")

    p = sub.add_parser("loadgen",
                       help="drive a seeded open-loop request stream and "
                            "report req/s + latency percentiles")
    p.add_argument("--requests", type=int, default=200,
                   help="total requests in the stream (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="mix/arrival seed (same seed = same stream)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="mean arrival rate in req/s; 0 = all at once "
                        "(default 50)")
    p.add_argument("--concurrency", type=int, default=8,
                   help="client threads draining the schedule")
    p.add_argument("--soak", action="store_true",
                   help="fold every response into a byte-reproducible "
                        "stream digest (sweep-digest machinery)")
    p.add_argument("--daemons", type=int, default=1,
                   help="launch a local fleet of N TCP daemons to serve "
                        "the stream (default 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="warm worker processes per daemon")
    p.add_argument("--endpoints", default=None, metavar="EP1,EP2,...",
                   help="drive an already-running fleet instead of "
                        "launching one")
    p.add_argument("--direct", action="store_true",
                   help="skip the service entirely: execute in-process "
                        "(digest baseline for fleet runs)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the report JSON to FILE")

    p = sub.add_parser("market",
                       help="long-horizon dynamic market: repeated "
                            "engagements under churn and reputation")
    p.add_argument("--rounds", type=int, default=200,
                   help="market rounds to simulate (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed (same seed = same stream digest)")
    p.add_argument("--z", type=float, default=0.4,
                   help="per-unit bus communication time (default 0.4)")
    p.add_argument("--kind", choices=("ncp-fe", "ncp-nfe"),
                   default="ncp-fe",
                   help="engagement system model (default ncp-fe)")
    p.add_argument("--num-blocks", type=int, default=16,
                   help="load blocks per engagement (default 16)")
    p.add_argument("--processors", type=int, default=6,
                   help="founding population size (default 6)")
    p.add_argument("--cohort", type=int, default=3,
                   help="processors hired per engagement (default 3)")
    p.add_argument("--deviant", type=_deviation, action="append",
                   default=[], metavar="INDEX:NAME",
                   help="make founding processor INDEX a resident "
                        "deviant (repeatable), e.g. 0:multiple-bids")
    p.add_argument("--arrival-rate", type=float, default=2.0,
                   help="engagement arrivals per unit time (default 2)")
    p.add_argument("--contention-window", type=float, default=0.0,
                   help="arrivals closer than this contend for the bus "
                        "in one round (default 0: every round solo)")
    p.add_argument("--max-contention", type=int, default=3,
                   help="max engagements sharing one contended round")
    p.add_argument("--policy", choices=("fifo", "sjf", "rr"),
                   default="fifo",
                   help="bus-window policy for contended rounds")
    p.add_argument("--join-rate", type=float, default=0.0,
                   help="per-round probability a processor joins")
    p.add_argument("--leave-rate", type=float, default=0.0,
                   help="per-round probability a processor leaves; a "
                        "hired leaver crashes mid-round (survivor "
                        "re-allocation path)")
    p.add_argument("--reputation-decay", type=float, default=0.8,
                   help="reputation EMA decay (default 0.8)")
    p.add_argument("--admission-floor", type=float, default=0.2,
                   help="minimum reputation to be hired (default 0.2)")
    p.add_argument("--window", type=int, default=25,
                   help="timeseries bucket width in rounds (default 25)")
    p.add_argument("--verify", action="store_true",
                   help="re-derive every round (serial reference for "
                        "fault-free contended rounds, re-execution "
                        "otherwise) and fail on any divergence")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the market result JSON to FILE")

    return parser


def cmd_allocate(args) -> int:
    from repro.api.analysis import format_table
    from repro.dlt.closed_form import allocate
    from repro.dlt.platform import BusNetwork
    from repro.dlt.timing import finish_times

    net = BusNetwork(tuple(args.w), args.z, args.kind)
    alpha = allocate(net)
    T = finish_times(alpha, net)
    print(format_table(
        ("processor", "w_i", "alpha_i", "finish time"),
        [(net.names[i], net.w[i], float(alpha[i]), float(T[i]))
         for i in range(net.m)],
        title=f"{args.kind.value}: optimal allocation (z={args.z})"))
    return 0


def cmd_schedule(args) -> int:
    from repro.dlt.closed_form import allocate
    from repro.dlt.platform import BusNetwork
    from repro.dlt.schedule import build_schedule, render_gantt

    net = BusNetwork(tuple(args.w), args.z, args.kind)
    sched = build_schedule(allocate(net), net)
    print(render_gantt(sched, width=args.width))
    return 0


def cmd_mechanism(args) -> int:
    from repro.api.analysis import format_table
    from repro.core.dls_bl import DLSBL

    exec_values = args.exec_values or args.bids
    if len(exec_values) != len(args.bids):
        print("error: --exec must match --bids in length", file=sys.stderr)
        return 2
    result = DLSBL(args.kind, args.z).run(args.bids, exec_values)
    print(format_table(
        ("processor", "alpha_i", "C_i", "B_i", "Q_i", "U_i"),
        [(f"P{i+1}", result.alpha[i], result.compensations[i],
          result.bonuses[i], result.payments[i], result.utilities[i])
         for i in range(result.m)],
        title=f"DLS-BL on {args.kind.value} (z={args.z}); "
              f"user cost = {result.user_cost:.6g}"))
    return 0


def cmd_protocol(args) -> int:
    from repro.api import build_mechanism
    from repro.api.analysis import format_table

    # The façade owns validation: any bad combination (CP kind, unknown
    # deviation, out-of-range index) raises ApiError with the actionable
    # message, which main() maps to exit code 2.
    request = EngagementRequest(
        w=tuple(args.w), z=args.z, kind=args.kind.value,
        bidding_mode=args.bidding_mode, fine_factor=args.fine_factor,
        deviants=tuple(args.deviant), crash=tuple(args.crash),
        drop_rate=args.drop_rate, seed=args.seed, pki_seed=args.pki_seed,
        committee=args.committee,
        byzantine=tuple((seat, args.byzantine_mode)
                        for seat in range(args.byzantine)))
    mech = build_mechanism(request)
    outcome = mech.run()
    if args.trace_json is not None:
        import json

        from repro.protocol.trace import spans_to_dict

        doc = json.dumps(spans_to_dict(outcome.spans), indent=2)
        if args.trace_json == "-":
            print(doc)
        else:
            with open(args.trace_json, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
    if args.json:
        from repro.io import dumps_result

        print(dumps_result(outcome, indent=2))
        return 0 if outcome.completed else 1
    print(format_table(
        ("processor", "bid", "alpha_i", "payment", "balance", "utility"),
        [(n, outcome.bids.get(n, float("nan")), outcome.alpha[n],
          outcome.payments[n], outcome.balances[n], outcome.utilities[n])
         for n in outcome.order],
        title=f"DLS-BL-NCP on {args.kind.value} (z={args.z})"))
    status = "COMPLETED" if outcome.completed else "TERMINATED"
    print(f"\n{status} in phase {outcome.terminal_phase.name}; "
          f"fine F = {outcome.fine_amount:.6g}")
    if outcome.degraded:
        realloc = ", ".join(f"{n}:+{f:.4g}"
                            for n, f in outcome.reallocations.items())
        print(f"  DEGRADED: crashed={list(outcome.crashed)}"
              + (f"; survivors absorbed {realloc}" if realloc else ""))
    if outcome.fined:
        for name, amount in outcome.fined.items():
            print(f"  {name} fined {amount:.6g}")
    else:
        print("  no fines")
    if args.trace:
        from repro.protocol.trace import (
            render_spans,
            render_transcript,
            traffic_summary,
        )

        print()
        print(render_transcript(mech.engine.bus))
        print()
        print(traffic_summary(mech.engine.bus))
        print()
        print(render_spans(outcome.spans))
    return 0 if outcome.completed else 1


def cmd_contend(args) -> int:
    from repro.api import (
        MultiEngagementRequest,
        run_multi_engagement,
        serial_reference,
        settlement_digest,
    )
    from repro.api.analysis import format_table

    if args.engagements < 1:
        raise ValueError(f"--engagements must be >= 1, got {args.engagements}")
    k = args.engagements
    subs = []
    for j in range(k):
        scale = 1.0 + args.spread * (k - 1 - j)
        subs.append(EngagementRequest(
            w=tuple(x * scale for x in args.w), z=args.z,
            kind=args.kind.value,
            fine_factor=args.fine_factor))
    request = MultiEngagementRequest(engagements=tuple(subs),
                                     policy=args.policy)
    result = run_multi_engagement(request)
    if args.verify:
        reference = serial_reference(request)
        if result.digest() != reference:
            print("error: arbiter settlements diverge from the serial "
                  f"reference\n  arbiter:   {result.digest()}\n"
                  f"  reference: {reference}", file=sys.stderr)
            return 1
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(format_table(
            ("engagement", "m", "completion", "status", "settlement"),
            [(eid, len(request.engagements[int(eid[1:]) - 1].w),
              result.completions[eid],
              "COMPLETED" if result.outcomes[eid].get("completed")
              else "TERMINATED",
              settlement_digest(result.outcomes[eid])[:12])
             for eid in result.order],
            title=f"{k} engagements on one bus (policy={args.policy}, "
                  f"z={args.z})"))
        print(f"\ngrant order: {' -> '.join(result.order)}")
        print(f"mean flow time = {result.mean_flow_time:.6g}; "
              f"makespan = {result.makespan:.6g}")
        print(f"settlement-map digest {result.digest()}"
              + ("  (matches serial reference)" if args.verify else ""))
    completed = all(rec.get("completed")
                    for rec in result.outcomes.values())
    return 0 if completed else 1


def cmd_resilience(args) -> int:
    if args.kind.value == "cp":
        print("error: resilience sweeps run the NCP protocol "
              "(ncp-fe / ncp-nfe)", file=sys.stderr)
        return 2
    from repro.api.analysis import crash_sweep, drop_sweep, format_table

    workers = max(1, args.workers)
    print(f"sweep workers: {workers}"
          + (" (serial)" if workers == 1 else ""))

    def rows(samples):
        return [(s.label, s.seed, "yes" if s.completed else "no",
                 "yes" if s.degraded else "no",
                 "-" if s.makespan_inflation is None
                 else f"{100 * s.makespan_inflation:.2f}%",
                 f"{s.welfare_loss:.4g}", s.retries,
                 f"{s.reallocated:.4g}")
                for s in samples]

    header = ("fault", "seed", "done", "degr", "makespan+",
              "welfare loss", "retries", "re-alloc")
    crashes = crash_sweep(args.w, args.kind, args.z,
                          progresses=tuple(args.progress),
                          workers=workers)
    print(format_table(header, rows(crashes),
                       title=f"Mid-Processing crash sweep "
                             f"({args.kind.value}, z={args.z})"))
    worst = max((s.ledger_error for s in crashes), default=0.0)
    print(f"  ledger conservation: worst |sum(balances)| = {worst:.3g}\n")
    drops = drop_sweep(args.w, args.kind, args.z,
                       rates=tuple(args.drop_rates),
                       seeds=range(args.seeds),
                       bidding_mode=args.bidding_mode,
                       workers=workers)
    print(format_table(header, rows(drops),
                       title=f"Control-plane drop sweep "
                             f"({args.bidding_mode} bidding)"))
    worst = max((s.ledger_error for s in drops), default=0.0)
    print(f"  ledger conservation: worst |sum(balances)| = {worst:.3g}")
    return 0


def cmd_survey(args) -> int:
    from repro.api.analysis import format_table, kind_comparison

    kc = kind_comparison(args.w, args.z)
    print(format_table(
        ("kind", "optimal makespan", "truthful user cost"),
        [(k.value, kc.makespans[k], kc.user_costs[k]) for k in kc.ranking],
        title=f"System-model survey (w={args.w}, z={args.z}), fastest first"))
    return 0


def _print_mechanism_result(result, title: str) -> None:
    from repro.api.analysis import format_table

    print(format_table(
        ("processor", "alpha_i", "C_i", "B_i", "Q_i", "U_i"),
        [(f"P{i+1}", result.alpha[i], result.compensations[i],
          result.bonuses[i], result.payments[i], result.utilities[i])
         for i in range(result.m)],
        title=f"{title}; user cost = {result.user_cost:.6g}"))


def cmd_star(args) -> int:
    from repro.core.dls_star import DLSStar

    exec_values = args.exec_values or args.bids
    if len(exec_values) != len(args.bids) or len(args.bids) != len(args.links):
        print("error: --links, --bids and --exec must share one length",
              file=sys.stderr)
        return 2
    result = DLSStar(args.links).run(args.bids, exec_values)
    _print_mechanism_result(result, f"DLS-ST (links={list(args.links)})")
    return 0


def cmd_chain(args) -> int:
    from repro.core.dls_chain import DLSChain

    exec_values = args.exec_values or args.bids
    if (len(exec_values) != len(args.bids)
            or len(args.bids) != len(args.hops) + 1):
        print("error: need m bids (and exec values) for m-1 hops",
              file=sys.stderr)
        return 2
    result = DLSChain(args.hops).run(args.bids, exec_values)
    _print_mechanism_result(result, f"DLS-LN (hops={list(args.hops)})")
    return 0


def cmd_affine(args) -> int:
    from repro.api.analysis import format_table
    from repro.dlt.affine import AffineBus, optimal_cohort

    bus = AffineBus(tuple(args.w), args.z, s_c=args.sc, s_p=args.sp,
                    kind=args.kind, load=args.load)
    size, alpha, t = optimal_cohort(bus)
    print(format_table(
        ("processor", "w_i", "load share"),
        [(f"P{i+1}", args.w[i], float(alpha[i])) for i in range(len(args.w))],
        title=f"Affine model (s_c={args.sc}, s_p={args.sp}, L={args.load}): "
              f"optimal cohort {size}/{len(args.w)}, makespan {t:.6g}"))
    return 0


def cmd_regime(args) -> int:
    from repro.api.analysis import format_table
    from repro.dlt.platform import BusNetwork
    from repro.dlt.regime import diagnose

    net = BusNetwork(tuple(args.w), args.z, args.kind)
    rep = diagnose(net)
    rows = [
        ("kind", rep.kind.value),
        ("in analytic regime", rep.in_regime),
        ("regime margin", rep.margin),
        ("closed form optimal (LP check)", rep.closed_form_optimal),
        ("closed-form makespan", rep.closed_form_makespan),
        ("LP-optimal makespan", rep.lp_makespan),
        ("mechanism guarantees hold", rep.mechanism_guarantees_hold),
    ]
    print(format_table(("property", "value"), rows,
                       title=f"Regime diagnostic (w={args.w}, z={args.z})"))
    return 0 if rep.mechanism_guarantees_hold else 1


def cmd_bench(args) -> int:
    from repro.perf.bench import main as bench_main

    argv = ["--tolerance", str(args.tolerance)]
    if args.quick:
        argv.append("--quick")
    if args.no_check:
        argv.append("--no-check")
    if args.output:
        argv += ["--output", args.output]
    if args.workers != 1:
        argv += ["--workers", str(args.workers)]
    return bench_main(argv)


def _parse_value(text: str):
    """Parse a --set/--grid value: JSON where valid, bare string else."""
    import json

    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_grid_axis(value: str) -> tuple[str, list]:
    """Parse ``KEY=V1,V2,...`` or ``KEY=START:STOP:COUNT`` (inclusive
    linspace)."""
    if "=" not in value:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUES for --grid; got {value!r}")
    key, spec = value.split("=", 1)
    parts = spec.split(":")
    if len(parts) == 3:
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad linspace axis {value!r}: {exc}")
        if count < 1:
            raise argparse.ArgumentTypeError(
                f"axis {key!r} needs COUNT >= 1; got {count}")
        import numpy as np

        return key, [float(v) for v in np.linspace(start, stop, count)]
    return key, [_parse_value(v) for v in spec.split(",")]


def cmd_sweep(args) -> int:
    from repro.sweep import RunOptions, SweepPlan, run_plan

    if bool(args.plan) == bool(args.task):
        print("error: give exactly one of --plan FILE or --task NAME",
              file=sys.stderr)
        return 2
    if args.plan:
        import json

        try:
            with open(args.plan, encoding="utf-8") as fh:
                plan_data = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read plan file {args.plan!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: plan file {args.plan!r} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        # Validate through the façade so a malformed plan produces the
        # same actionable message the service would return.
        request = SweepRequest(plan=plan_data, workers=max(1, args.workers))
        plan = request.build_plan()
    else:
        base = {}
        if args.kind is not None:
            base["kind"] = args.kind.value
        if args.z is not None:
            base["z"] = args.z
        if args.w is not None:
            base["w"] = list(args.w)
        for assignment in args.assignments:
            if "=" not in assignment:
                print(f"error: expected KEY=VALUE for --set; "
                      f"got {assignment!r}", file=sys.stderr)
                return 2
            key, text = assignment.split("=", 1)
            base[key] = _parse_value(text)
        grid = dict(_parse_grid_axis(axis) for axis in args.grid)
        if grid:
            plan = SweepPlan.from_grid(args.task, base, grid,
                                       root_seed=args.root_seed)
        else:
            plan = SweepPlan.from_scenarios(args.task, [base],
                                            root_seed=args.root_seed)

    progress = None
    if args.progress:
        def progress(done, total):
            print(f"\r{done}/{total} scenarios", end="", file=sys.stderr,
                  flush=True)
    import time as _time

    t0 = _time.perf_counter()
    result = run_plan(plan, RunOptions(workers=max(1, args.workers),
                                       progress=progress,
                                       batch=not args.no_batch))
    wall = _time.perf_counter() - t0
    if args.progress:
        print(file=sys.stderr)

    if args.json:
        import json

        doc = {"format": "repro/sweep-result/v1", **result.to_dict()}
        print(json.dumps(doc, indent=2))
        return 0

    print(f"sweep: {len(result.records)} scenarios, "
          f"workers={result.workers}, shards={len(result.shards)}, "
          f"restarts={result.restarts}, wall={wall:.3f}s")
    print(f"digest: {result.digest()}")
    t = result.traffic
    if t.runs:
        print(f"traffic ({t.runs} protocol runs): {t.messages} msgs, "
              f"{t.bytes} bytes, {t.retries} retries, "
              f"memo {t.memo_hits}/{t.memo_hits + t.memo_misses} hits, "
              f"sig-cache {t.sig_cache_hits}/"
              f"{t.sig_cache_hits + t.sig_cache_misses} hits")
    for phase, agg in result.phases.to_dict().items():
        print(f"  phase {phase}: {agg['runs']} runs, "
              f"{agg['messages']} msgs, {agg['bytes']} bytes, "
              f"{agg['retries']} retries")
    return 0


def _endpoint_args(args) -> str | None:
    """The one endpoint a serve/call invocation names (or None)."""
    if args.socket is not None and args.tcp is not None:
        return None
    return args.tcp if args.tcp is not None else args.socket


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service import ReproService

    endpoint = _endpoint_args(args)
    if endpoint is None:
        print("error: give exactly one of --socket PATH or --tcp "
              "HOST:PORT", file=sys.stderr)
        return 2
    service = ReproService(endpoint, workers=max(1, args.workers),
                           queue_size=args.queue_size,
                           cache_size=args.cache_size)

    async def run() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(service.shutdown()))
        # The *bound* endpoint: with --tcp HOST:0 this is where the
        # kernel actually put us, and fleet managers parse it back.
        print(f"repro service on {service.bound} "
              f"(workers={service.pool.workers}, "
              f"queue={service.queue_size}); "
              "SIGINT/SIGTERM drains and exits", flush=True)
        await service.serve_forever()

    asyncio.run(run())
    return 0


def cmd_call(args) -> int:
    import json

    from repro.api import request_from_dict
    from repro.service.tcp import send_envelope

    endpoint = _endpoint_args(args)
    if endpoint is None:
        print("error: give exactly one of --socket PATH or --tcp "
              "HOST:PORT", file=sys.stderr)
        return 2
    if bool(args.request) == bool(args.op):
        print("error: give exactly one of --request FILE or --op NAME",
              file=sys.stderr)
        return 2
    if args.op:
        envelope = {"id": 0, "op": args.op}
    else:
        try:
            if args.request == "-":
                text = sys.stdin.read()
            else:
                with open(args.request, encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            print(f"error: cannot read request file {args.request!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
        try:
            payload = json.loads(text)
        except ValueError as exc:
            print(f"error: request file is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        # Validate client-side so a malformed request fails with exit
        # code 2 before ever touching the daemon.
        request_from_dict(payload)
        envelope = {"id": 0, **payload}
        if args.deadline is not None:
            envelope["deadline"] = args.deadline
    try:
        response = send_envelope(endpoint, envelope, timeout=args.timeout,
                                 connect_timeout=args.connect_timeout)
    except OSError as exc:
        # An unreachable endpoint is a usage error (wrong address, or
        # the daemon is not running) — exit 2 with a readable message,
        # never a traceback or an indefinite hang (the connect phase is
        # bounded by --connect-timeout on both transports).
        flag = "--tcp" if args.tcp is not None else "--socket"
        print(f"error: cannot reach service at {endpoint!r}: "
              f"{exc.strerror or exc} (is the daemon running? "
              f"start one with `repro serve {flag} {endpoint}`)",
              file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2))
    return 0 if response.get("ok") else 1


def cmd_fleet(args) -> int:
    import json
    import signal
    import threading

    from repro.service import FleetDispatcher, LocalFleet

    if args.stats is not None:
        endpoints = [e for e in args.stats.split(",") if e]
        dispatcher = FleetDispatcher(endpoints, connect_timeout=5.0)
        stats = dispatcher.stats()
        print(json.dumps(stats.to_dict(), indent=2))
        return 0 if stats.healthy == len(endpoints) else 1

    if args.daemons < 1:
        print(f"error: --daemons must be >= 1; got {args.daemons}",
              file=sys.stderr)
        return 2
    transport = "unix" if args.unix else "tcp"
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    with LocalFleet(args.daemons, workers=max(1, args.workers),
                    transport=transport, queue_size=args.queue_size,
                    cache_size=args.cache_size) as fleet:
        for i, endpoint in enumerate(fleet.endpoints):
            print(f"repro fleet daemon {i}: {endpoint}", flush=True)
        print(f"repro fleet of {args.daemons} up "
              f"(workers={max(1, args.workers)}/daemon, "
              f"transport={transport}); SIGINT/SIGTERM drains and exits",
              flush=True)
        stop.wait()
    return 0


def cmd_loadgen(args) -> int:
    import contextlib
    import json

    from repro.service import FleetDispatcher, LocalFleet
    from repro.service.loadgen import LoadgenSpec, run_loadgen

    if args.direct and args.endpoints:
        print("error: give at most one of --direct and --endpoints",
              file=sys.stderr)
        return 2
    spec = LoadgenSpec(seed=args.seed, requests=args.requests,
                       rate=args.rate, concurrency=args.concurrency,
                       soak=args.soak)
    with contextlib.ExitStack() as stack:
        if args.direct:
            from repro.api import execute

            def submit(request):
                return {"ok": True, "result": execute(request).to_dict()}

            target = "direct (in-process execute)"
        else:
            if args.endpoints:
                endpoints = [e for e in args.endpoints.split(",") if e]
            else:
                fleet = stack.enter_context(LocalFleet(
                    max(1, args.daemons), workers=max(1, args.workers)))
                endpoints = fleet.endpoints
            dispatcher = FleetDispatcher(endpoints, connect_timeout=5.0)
            submit = dispatcher.submit
            target = f"fleet of {len(endpoints)}: {', '.join(endpoints)}"
        print(f"loadgen: {spec.requests} requests, seed {spec.seed}, "
              f"rate {spec.rate} req/s -> {target}", file=sys.stderr,
              flush=True)
        report = run_loadgen(submit, spec)
    print(report.to_json())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.errors == 0 else 1


def cmd_market(args) -> int:
    import json

    from repro.api import MarketRequest
    from repro.api.analysis import (
        extinction_curve,
        fine_frequency,
        format_table,
        market_table,
        reputation_trajectories,
        welfare_drift,
    )
    from repro.market import MarketError, run_market

    request = MarketRequest(
        rounds=args.rounds, seed=args.seed, z=args.z, kind=args.kind,
        num_blocks=args.num_blocks, processors=args.processors,
        cohort=args.cohort, deviants=tuple(args.deviant),
        arrival_rate=args.arrival_rate,
        contention_window=args.contention_window,
        max_contention=args.max_contention, policy=args.policy,
        join_rate=args.join_rate, leave_rate=args.leave_rate,
        reputation_decay=args.reputation_decay,
        admission_floor=args.admission_floor, window=args.window)
    try:
        result = run_market(request, verify=args.verify)
    except MarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = result.summary
    headers, rows = market_table(result)
    print(format_table(
        headers, rows,
        title=f"market: {summary['rounds']} rounds, "
              f"{summary['engagements']} engagements "
              f"(seed {request.seed}, window {request.window})"))
    drift = welfare_drift(result.series)
    fines = fine_frequency(result.series)
    extinction = extinction_curve(result.series)
    reputation = reputation_trajectories(result.series)
    print(f"\nwelfare: mean {drift['mean']:.6g}/round, "
          f"drift {drift['slope']:+.3g}/window")
    print(f"fines: {fines['total']} total "
          f"(early half {fines['early']}, late half {fines['late']})")
    print(f"churn: +{summary['joins']} joined, -{summary['leaves']} left, "
          f"{summary['crashes']} mid-round crashes; population "
          f"{request.processors} -> {summary['population']}")
    if summary["deviants"]:
        state = "extinct" if summary["deviants_extinct"] else (
            f"{summary['deviants_alive']} still admissible")
        print(f"deviants: {summary['deviants']} resident -> {state}; "
              f"reputation separation "
              f"{reputation['separation']:+.3f} "
              + (f"(extinct from window {extinction['extinct_window']})"
                 if extinction["extinct_window"] is not None else ""))
    print(f"ledger: conserved every round "
          f"(worst |sum| = {summary['max_ledger_error']:.3g})")
    print(f"stream digest {result.digest()}"
          + (f"  ({summary['verified_rounds']} rounds verified)"
             if args.verify else ""))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


_COMMANDS = {
    "allocate": cmd_allocate,
    "schedule": cmd_schedule,
    "mechanism": cmd_mechanism,
    "protocol": cmd_protocol,
    "contend": cmd_contend,
    "resilience": cmd_resilience,
    "survey": cmd_survey,
    "star": cmd_star,
    "chain": cmd_chain,
    "affine": cmd_affine,
    "regime": cmd_regime,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "serve": cmd_serve,
    "call": cmd_call,
    "fleet": cmd_fleet,
    "loadgen": cmd_loadgen,
    "market": cmd_market,
}


def main(argv=None) -> int:
    """Uniform exit codes: 0 success, 1 domain failure, 2 usage error.

    :class:`repro.api.ApiError` (and any other ``ValueError``) is a
    *usage* error — the input was wrong, not the run.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
