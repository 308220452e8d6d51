"""The traced run: wrappers around each layer's public entry points.

The wrappers live in the benchmark, not in the program.  :func:`install`
rebinds each entry point (every module-level name bound to it, and class
attributes) to a wrapper that records into a per-process
:class:`Recorder`; :func:`Recorder.uninstall` puts the originals back.

Two kinds of frame are recorded, both on a per-thread stack:

* **spans** (name, start, end, parent span, op id) for coarse entry
  points: phases, setup, settlement, the arbiter, the market, sweeps,
  the API codec, the referee and the service hops;
* **aggregates** (count and summed self time per name) for entry points
  that run hundreds to tens of thousands of times per op: agent message
  handlers, bus fan-out, the DES loop, HMAC sign/verify, the memo cache,
  kernels and payment vectors.  Storing one span per call would hold
  millions of spans per run.  A span entry point called under an
  aggregate is recorded as an aggregate too, so aggregates never hide a
  stored span.

A frame is recorded only inside an op: a root entry point (the
benchmark's own ``repro.api.execute`` call, ``FleetDispatcher.submit``,
the worker's ``execute_payload``) opens one, and ``WarmPool.submit``
records an asynchronous span until its future is done.  Service spans of
the client, daemon and worker processes are joined afterwards by op id
(a hash of the request payload) and time containment.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

from perfbench.measure import self_times

_now = time.perf_counter

PHASE_SPANS = {
    "BIDDING": "protocol.bidding",
    "ALLOCATING_LOAD": "protocol.allocating",
    "PROCESSING_LOAD": "protocol.processing",
    "COMPUTING_PAYMENTS": "protocol.payments",
}


def op_key(payload) -> str:
    """Op id of a served request: the same in client, daemon and worker."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


class Recorder:
    """Spans, aggregates and counters of one process."""

    def __init__(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self.spans: list = []
        self.agg: dict = {}
        self.counts: dict = {}
        self.gc = [0, 0.0]            # collections, seconds
        self._gc_start = 0.0
        self._local = threading.local()
        self._seq = 0
        self._undo: list = []
        #: Served requests to leave unrecorded (the daemon's warm-up).
        self.skip = 0
        gc.callbacks.append(self._on_gc)

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        """Forget what the parent recorded (called in a forked child)."""
        self.pid = os.getpid()
        self.spans.clear()
        self.agg.clear()
        self.counts.clear()
        self.gc[:] = [0, 0.0]

    def _on_gc(self, phase: str, info: dict) -> None:
        """Count every collection; inside an op, also charge it as an
        aggregate ``runtime.gc`` child of the frame it interrupted, so a
        collection the engine's re-enabled collector runs in API glue is
        not billed to the API."""
        if phase == "start":
            self._gc_start = _now()
            return
        d = _now() - self._gc_start
        self.gc[0] += 1
        self.gc[1] += d
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1][0] += d
            stack[-1][1] += d
            entry = self.agg.setdefault("runtime.gc", [0, 0.0])
            entry[0] += 1
            entry[1] += d

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            return local.stack

    def set_op(self, op) -> None:
        """Op id for the root frames this thread opens next."""
        self._local.op = op

    def count(self, name: str, n=1) -> None:
        if self._stack():
            self.counts[name] = self.counts.get(name, 0) + n

    def _sid(self) -> int:
        self._seq += 1
        return (self.pid << 32) | self._seq

    # -- frames -----------------------------------------------------------
    # A frame is [child time, child time of aggregates, span id, is
    # aggregate, name].

    def _aggregate(self, name, stack, fn, args, kwargs):
        frame = [0.0, 0.0, 0, True, name]
        stack.append(frame)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            d = _now() - t0
            stack.pop()
            parent = stack[-1]
            parent[0] += d
            parent[1] += d
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0.0]
            entry[0] += 1
            entry[1] += d - frame[0]

    def _span(self, name, stack, fn, args, kwargs, parent_sid=0):
        sid = self._sid()
        frame = [0.0, 0.0, sid, False, name]
        op = getattr(self._local, "op", None)
        stack.append(frame)
        t0 = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _now()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            self.spans.append((sid, parent_sid, op, name, t0, t1, frame[1]))

    def aggregate(self, name: str, fn):
        """Wrap *fn* as an aggregate frame."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if not stack:
                return fn(*args, **kwargs)
            return rec._aggregate(name, stack, fn, args, kwargs)
        return wrapper

    def span(self, name, fn, *, root: bool = False, op_of=None):
        """Wrap *fn* as a span; a *root* span opens an op on an empty
        stack, with its id from ``op_of(*args)`` or :meth:`set_op`."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            if not stack:
                if not root:
                    return fn(*args, **kwargs)
                if op_of is not None:
                    rec.set_op(op_of(*args, **kwargs))
                return rec._span(name, stack, fn, args, kwargs)
            top = stack[-1]
            if top[3]:
                return rec._aggregate(name, stack, fn, args, kwargs)
            return rec._span(name, stack, fn, args, kwargs, top[2])
        return wrapper

    # -- installing -------------------------------------------------------

    def patch_attr(self, owner, attr: str, wrap) -> None:
        """Replace a class attribute with ``wrap(original)``."""
        original = owner.__dict__[attr]
        setattr(owner, attr, wrap(original))
        self._undo.append((owner, attr, original))

    def patch_function(self, module, attr: str, wrap) -> None:
        """Replace a module function with ``wrap(original)`` under every
        name any loaded ``repro`` module binds it to."""
        original = getattr(module, attr)
        wrapper = wrap(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append((namespace, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"role": self.role, "pid": self.pid,
                "spans": [list(s) for s in self.spans],
                "agg": {k: list(v) for k, v in self.agg.items()},
                "counts": dict(self.counts),
                "gc": list(self.gc)}

    def dump(self, out_dir) -> Path:
        path = Path(out_dir) / f"spans-{self.role}-{self.pid}.json"
        path.write_text(json.dumps(self.snapshot()))
        return path


# ---------------------------------------------------------------------------
# the wrappers
# ---------------------------------------------------------------------------

def _count_outcome(rec: Recorder, record: dict) -> None:
    """Counters read from an engagement's result record."""
    traffic = record.get("traffic", {})
    rec.count("network.messages", traffic.get("messages", 0))
    rec.count("network.bytes", traffic.get("bytes", 0))
    rec.count("network.retries", traffic.get("retries", 0))
    for span in record.get("spans", ()):
        rec.count("perf.sig_hits", span.get("sig_cache_hits", 0))
        rec.count("perf.sig_misses", span.get("sig_cache_misses", 0))
    verdicts = record.get("verdicts", ())
    rec.count("core.verdicts", len(verdicts))
    rec.count("core.fines", sum(len(v.get("fines", ())) for v in verdicts))


def install(rec: Recorder, *, client_only: bool = False) -> None:
    """Wrap every layer's entry points.  *client_only* installs just the
    service client's frames (the served benchmark's own process).

    Modules are looked up with ``importlib``: ``import a.b as c`` would
    yield the same-named function ``repro.api`` re-exports in place of its
    ``execute`` submodule."""
    import repro.io

    v1 = importlib.import_module("repro.api.v1")
    fleet = importlib.import_module("repro.service.fleet")

    api_classes = [cls for cls in vars(v1).values()
                   if isinstance(cls, type) and issubclass(cls, v1._Payload)]
    request_classes = set(v1.REQUEST_TYPES.values())

    rec.patch_attr(fleet.FleetDispatcher, "submit",
                   lambda f: rec.span("service.roundtrip", f, root=True))
    for cls in api_classes:
        if "to_dict" in vars(cls):
            rec.patch_attr(cls, "to_dict",
                           lambda f: rec.span("api.encode", f))
        if "digest" in vars(cls):
            rec.patch_attr(cls, "digest", lambda f: rec.span("api.digest", f))
    if client_only:
        return

    processor = importlib.import_module("repro.agents.processor")
    dls_bl_ncp = importlib.import_module("repro.core.dls_bl_ncp")
    core_payments = importlib.import_module("repro.core.payments")
    referee = importlib.import_module("repro.core.referee")
    blocks = importlib.import_module("repro.crypto.blocks")
    pki = importlib.import_module("repro.crypto.pki")
    signatures = importlib.import_module("repro.crypto.signatures")
    closed_form = importlib.import_module("repro.dlt.closed_form")
    kernels = importlib.import_module("repro.kernels")
    market = importlib.import_module("repro.market.simulator")
    bus = importlib.import_module("repro.network.bus")
    events = importlib.import_module("repro.network.events")
    faults = importlib.import_module("repro.network.faults")
    cache = importlib.import_module("repro.perf.cache")
    arbiter = importlib.import_module("repro.protocol.arbiter")
    engine = importlib.import_module("repro.protocol.engine")
    importlib.import_module("repro.service.daemon")  # binds execute_payload
    pool = importlib.import_module("repro.service.pool")
    worker = importlib.import_module("repro.service.worker")
    sweep_runner = importlib.import_module("repro.sweep.runner")

    # repro.api
    api_execute = importlib.import_module("repro.api.execute")
    rec.patch_function(api_execute, "execute",
                       lambda f: rec.span("api.execute", f, root=True))
    for name in ("request_from_dict", "result_from_dict"):
        rec.patch_function(v1, name, lambda f: rec.span("api.decode", f))
    rec.patch_function(v1, "settlement_digest",
                       lambda f: rec.span("api.digest", f))
    for cls in api_classes:
        if "__post_init__" not in vars(cls):
            continue
        built = cls in request_classes

        def post_init(f, built=built):
            timed = rec.span("api.decode", f)

            @functools.wraps(f)
            def wrapper(self):
                if built:
                    rec.count("api.requests_built")
                return timed(self)
            return wrapper
        rec.patch_attr(cls, "__post_init__", post_init)

    def result_dict(f):
        timed = rec.span("api.encode", f)

        @functools.wraps(f)
        def wrapper(result):
            record = timed(result)
            _count_outcome(rec, record)
            return record
        return wrapper
    rec.patch_function(repro.io, "protocol_result_to_dict", result_dict)

    # repro.agents: handlers run ~m^2 times per engagement, so their
    # wrapper is the aggregate frame inlined, with its stack, frame and
    # tally bound once per handler (a handler runs on the thread that
    # attached it and never re-enters itself).
    def bus_handler(f):
        @functools.wraps(f)
        def wrapper(self, *args, **kwargs):
            handler = f(self, *args, **kwargs)
            stack = rec._stack()
            frame = [0.0, 0.0, 0, True, "agents.handle"]
            entry = rec.agg.setdefault("agents.handle", [0, 0.0])

            def handle(msg):
                if not stack:
                    return handler(msg)
                frame[0] = 0.0
                stack.append(frame)
                t0 = _now()
                try:
                    handler(msg)
                finally:
                    d = _now() - t0
                    stack.pop()
                    parent = stack[-1]
                    parent[0] += d
                    parent[1] += d
                    entry[0] += 1
                    entry[1] += d - frame[0]
            return handle
        return wrapper
    rec.patch_attr(processor.ProcessorAgent, "bus_handler", bus_handler)

    # repro.network
    for cls in (bus.Bus, faults.FaultyBus):
        for name in ("broadcast", "send", "transfer_load"):
            if name in vars(cls):
                rec.patch_attr(cls, name,
                               lambda f: rec.aggregate("network.bus", f))

    def des(f):
        timed = rec.aggregate("network.des", f)

        @functools.wraps(f)
        def wrapper(self, *args, **kwargs):
            stack = rec._stack()
            if not stack or stack[-1][4] == "market.run":
                # The market's own arrival clock is market work.
                return f(self, *args, **kwargs)
            before = self._processed
            try:
                return timed(self, *args, **kwargs)
            finally:
                rec.count("network.events", self._processed - before)
        return wrapper
    for name in ("run", "run_until", "step"):
        rec.patch_attr(events.EventQueue, name, des)

    # repro.perf
    for name in ("allocation", "exclusions", "payments", "payments_payload",
                 "network"):
        rec.patch_attr(cache.ComputationCache, name,
                       lambda f: rec.aggregate("perf.memo", f))

    # repro.crypto
    rec.patch_attr(signatures.SigningKey, "sign",
                   lambda f: rec.aggregate("crypto.sign", f))
    rec.patch_attr(signatures.SigningKey, "verify",
                   lambda f: rec.aggregate("crypto.verify", f))
    rec.patch_function(blocks, "divide_load",
                       lambda f: rec.span("crypto.divide_load", f))

    def register(f):
        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            rec.count("crypto.keys_minted")
            return f(*args, **kwargs)
        return wrapper
    rec.patch_attr(pki.PKI, "register", register)

    # repro.protocol
    rec.patch_attr(dls_bl_ncp.DLSBLNCP, "__init__",
                   lambda f: rec.span("protocol.setup", f))

    def step(f):
        named = {phase: rec.span(name, f)
                 for phase, name in PHASE_SPANS.items()}
        other = rec.span("protocol.step", f)

        @functools.wraps(f)
        def wrapper(self):
            rec.count("protocol.steps")
            phase = self.phase
            return named.get(getattr(phase, "name", None), other)(self)
        return wrapper
    rec.patch_attr(engine.EngagementSession, "step", step)
    rec.patch_attr(engine.EngagementSession, "finish",
                   lambda f: rec.span("protocol.settle", f))
    rec.patch_attr(arbiter.BusArbiter, "run",
                   lambda f: rec.span("protocol.arbiter", f))

    # repro.core
    for name in list(vars(referee.Referee)):
        if name.startswith("judge_"):
            rec.patch_attr(referee.Referee, name,
                           lambda f: rec.span("core.referee", f))
    rec.patch_function(core_payments, "payments",
                       lambda f: rec.aggregate("core.payments", f))

    # repro.kernels and repro.dlt
    for name in kernels.__all__:
        rec.patch_function(kernels, name, lambda f: rec.aggregate("kernels", f))
    rec.patch_function(closed_form, "allocate",
                       lambda f: rec.aggregate("kernels", f))

    # repro.sweep
    def run_plan(f):
        timed = rec.span("sweep.run_plan", f)

        @functools.wraps(f)
        def wrapper(plan, *args, **kwargs):
            rec.count("sweep.scenarios", len(plan))
            return timed(plan, *args, **kwargs)
        return wrapper
    rec.patch_function(sweep_runner, "run_plan", run_plan)

    # repro.market
    rec.patch_attr(market.MarketSimulator, "run",
                   lambda f: rec.span("market.run", f))

    # repro.service: the daemon's pool hop and the worker's execution
    def pool_submit(f):
        @functools.wraps(f)
        def wrapper(self, fn, *args):
            if not (args and isinstance(args[0], dict)):
                return f(self, fn, *args)
            if rec.skip:
                rec.skip -= 1
                return f(self, fn, *args)
            op = op_key(args[0])
            t0 = _now()
            generation, future = f(self, fn, *args)
            sid = rec._sid()
            future.add_done_callback(lambda _: rec.spans.append(
                (sid, 0, op, "service.pool", t0, _now(), 0.0)))
            return generation, future
        return wrapper
    rec.patch_attr(pool.WarmPool, "submit", pool_submit)

    def execute_payload(f):
        timed = rec.span("service.worker", f, root=True, op_of=op_key)

        @functools.wraps(f)
        def wrapper(payload):
            if rec.pid != os.getpid():
                _adopt_worker(rec)
            if rec.skip:
                rec.skip -= 1
                return f(payload)
            return timed(payload)
        return wrapper
    rec.patch_function(worker, "execute_payload", execute_payload)


def _adopt_worker(rec: Recorder) -> None:
    """First call in a forked pool worker: drop the daemon's records and
    write this process's own when the worker exits normally."""
    from multiprocessing import util

    rec.reset()
    rec.role = "worker"
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if out_dir:
        util.Finalize(rec, rec.dump, args=(out_dir,), exitpriority=100)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _link_service_spans(spans: dict) -> int:
    """Parent each process's root service span on the hop above it (same
    op id, enclosing interval).  Returns the number left unlinked."""
    by_op: dict = {}
    for sid, span in spans.items():
        by_op.setdefault((span["name"], span["op"]), []).append(sid)
    unlinked = 0
    for child, host in (("service.worker", "service.pool"),
                        ("service.pool", "service.roundtrip")):
        for span in spans.values():
            if span["name"] != child or span["parent"]:
                continue
            hosts = [sid for sid in by_op.get((host, span["op"]), ())
                     if spans[sid]["start"] <= span["start"]
                     and span["end"] <= spans[sid]["end"]]
            if hosts:
                span["parent"] = hosts[0]
            else:
                unlinked += 1
    return unlinked


#: Per-layer metrics and how each is read: ``("self", frame)`` is summed
#: self time, ``("incl", frame)`` summed duration, ``("calls", frame)``
#: the number of frames, ``("count", counter)`` a counter; all per op.
LAYER_METRICS = {
    "agents.handled": ("calls", "agents.handle"),
    "agents.handle_ms": ("self", "agents.handle"),
    "network.events": ("count", "network.events"),
    "network.des_ms": ("self", "network.des"),
    "network.bus_ms": ("self", "network.bus"),
    "network.messages": ("count", "network.messages"),
    "network.bytes": ("count", "network.bytes"),
    "network.retries": ("count", "network.retries"),
    "perf.memo_calls": ("calls", "perf.memo"),
    "perf.memo_ms": ("self", "perf.memo"),
    "crypto.signs": ("calls", "crypto.sign"),
    "crypto.sign_ms": ("self", "crypto.sign"),
    "crypto.verifies": ("calls", "crypto.verify"),
    "crypto.verify_ms": ("self", "crypto.verify"),
    "crypto.divide_load_ms": ("self", "crypto.divide_load"),
    "crypto.keys_minted": ("count", "crypto.keys_minted"),
    "protocol.setup_ms": ("self", "protocol.setup"),
    "protocol.bidding_ms": ("self", "protocol.bidding"),
    "protocol.allocating_ms": ("self", "protocol.allocating"),
    "protocol.processing_ms": ("self", "protocol.processing"),
    "protocol.payments_ms": ("self", "protocol.payments"),
    "protocol.settle_ms": ("self", "protocol.settle"),
    "protocol.arbiter_ms": ("self", "protocol.arbiter"),
    "protocol.steps": ("count", "protocol.steps"),
    "core.referee_ms": ("self", "core.referee"),
    "core.payments_ms": ("self", "core.payments"),
    "core.verdicts": ("count", "core.verdicts"),
    "core.fines": ("count", "core.fines"),
    "kernels.calls": ("calls", "kernels"),
    "kernels.ms": ("self", "kernels"),
    "api.decode_ms": ("self", "api.decode"),
    "api.encode_ms": ("self", "api.encode"),
    "api.digest_ms": ("self", "api.digest"),
    "api.requests_built": ("count", "api.requests_built"),
    "service.roundtrip_ms": ("incl", "service.roundtrip"),
    "service.daemon_ms": ("self", "service.roundtrip"),
    "service.pool_wait_ms": ("self", "service.pool"),
    "service.worker_ms": ("incl", "service.worker"),
    "sweep.run_plan_ms": ("self", "sweep.run_plan"),
    "sweep.scenarios": ("count", "sweep.scenarios"),
    "market.self_ms": ("self", "market.run"),
}

#: Metrics computed from run results rather than frames.
DERIVED_METRICS = ("perf.sig_hit_ratio", "service.cache_hit_ratio",
                   "service.rejected", "market.engagements_per_round",
                   "market.contended_ratio", "runtime.gc_ms",
                   "runtime.gc_collections")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric; times and counts are per op."""
    if metric.endswith("_ms") or metric == "kernels.ms":
        return "ms"
    if metric == "network.bytes":
        return "B"
    return "ratio" if metric.endswith("_ratio") else "count"


def merge(snapshots) -> dict:
    """Fold the per-process snapshots into frame totals.

    Returns ``self_s``/``incl_s``/``calls`` per frame name, counters,
    gc totals, and the number of service spans left unlinked.
    """
    spans: dict = {}
    calls: dict = {}
    self_s: dict = {}
    incl_s: dict = {}
    counts: dict = {}
    gc_total = [0, 0.0]
    for snap in snapshots:
        for sid, parent, op, name, start, end, agg in snap["spans"]:
            spans[sid] = {"parent": parent, "op": op, "name": name,
                          "start": start, "end": end, "agg": agg}
        for name, (n, seconds) in snap["agg"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
        gc_total[0] += snap["gc"][0]
        gc_total[1] += snap["gc"][1]
    unlinked = _link_service_spans(spans)
    for sid, seconds in self_times(spans).items():
        name = spans[sid]["name"]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + seconds
        incl_s[name] = (incl_s.get(name, 0.0)
                        + spans[sid]["end"] - spans[sid]["start"])
    return {"self_s": self_s, "incl_s": incl_s, "calls": calls,
            "counts": counts, "gc": gc_total, "spans": len(spans),
            "unlinked": unlinked}


def layer_metrics(merged: dict, ops: int, derived: dict) -> dict:
    """Every per-layer metric, per op; *derived* supplies
    :data:`DERIVED_METRICS` other than the gc and signature figures."""
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "self":
            value = 1000.0 * merged["self_s"].get(key, 0.0) / ops
        elif kind == "incl":
            value = 1000.0 * merged["incl_s"].get(key, 0.0) / ops
        elif kind == "calls":
            value = merged["calls"].get(key, 0) / ops
        else:
            value = merged["counts"].get(key, 0) / ops
        out[metric] = value
    hits = merged["counts"].get("perf.sig_hits", 0)
    lookups = hits + merged["counts"].get("perf.sig_misses", 0)
    out["perf.sig_hit_ratio"] = hits / lookups if lookups else 0.0
    out["runtime.gc_ms"] = 1000.0 * merged["gc"][1] / ops
    out["runtime.gc_collections"] = merged["gc"][0] / ops
    for metric in ("service.cache_hit_ratio", "service.rejected",
                   "market.engagements_per_round", "market.contended_ratio"):
        out[metric] = derived.get(metric, 0.0)
    return out


def layer_shares(merged: dict) -> dict:
    """Each layer's share of all recorded self time."""
    by_layer: dict = {}
    for name, seconds in merged["self_s"].items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    total = sum(by_layer.values()) or 1.0
    return {layer: round(seconds / total, 4)
            for layer, seconds in sorted(by_layer.items(),
                                         key=lambda kv: -kv[1])}
