"""Import-layering lint: the dependency rules the refactor established.

The codebase is layered bottom-up:

    repro.dlt / repro.core        (mechanism math + referee logic)
        ^ must not import from
    repro.network / repro.agents / repro.protocol   (simulation stack)

and inside the protocol package:

    repro.protocol.runners        (phase logic)
        ^ must not import
    repro.agents internals        (runners talk to agents only through
                                   the methods the context hands them)

The lint walks every module's AST — including imports nested inside
functions (lazy imports count: they are still a runtime dependency) —
and skips only ``if TYPE_CHECKING:`` blocks, which express annotations,
not dependencies.  ``repro.core.dls_bl_ncp`` is the one sanctioned
exception: it is the user-facing facade that *assembles* the protocol
stack, documented as such in DESIGN.md.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Modules in these packages must not import from these targets.
LOWER_LAYERS = ("repro.dlt", "repro.core")
UPPER_TARGETS = ("repro.protocol", "repro.network", "repro.agents")

# Sanctioned facade: assembles agents + engine for users of the core API.
ALLOWED = {"repro.core.dls_bl_ncp"}

RUNNERS_PKG = "repro.protocol.runners"
AGENT_INTERNALS = ("repro.agents",)


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_block(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _imports(tree: ast.Module):
    """Yield imported module names, skipping TYPE_CHECKING blocks."""

    def walk(body):
        for node in body:
            if isinstance(node, ast.If) and _is_type_checking_block(node):
                yield from walk(node.orelse)
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    yield node.module
            for child_body in (
                getattr(node, "body", None),
                getattr(node, "orelse", None),
                getattr(node, "finalbody", None),
                getattr(node, "handlers", None),
            ):
                if child_body and not (isinstance(node, ast.If)
                                       and child_body is node.body
                                       and _is_type_checking_block(node)):
                    items = []
                    for item in child_body:
                        if isinstance(item, ast.ExceptHandler):
                            items.extend(item.body)
                        else:
                            items.append(item)
                    yield from walk(items)

    yield from walk(tree.body)


def _violations(layer_prefixes, forbidden_prefixes, allowed=frozenset()):
    out = []
    for path in sorted(SRC.rglob("*.py")):
        mod = _module_name(path)
        if not mod.startswith(tuple(p + "." for p in layer_prefixes)) \
                and mod not in layer_prefixes:
            continue
        if mod in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if imported.startswith(tuple(p + "." for p in forbidden_prefixes)) \
                    or imported in forbidden_prefixes:
                out.append(f"{mod} imports {imported}")
    return out


def test_core_and_dlt_do_not_import_simulation_stack():
    bad = _violations(LOWER_LAYERS, UPPER_TARGETS, allowed=ALLOWED)
    assert not bad, (
        "mechanism layers must not depend on the simulation stack:\n  "
        + "\n  ".join(bad))


def test_runners_do_not_import_agent_internals():
    bad = _violations((RUNNERS_PKG,), AGENT_INTERNALS)
    assert not bad, (
        "phase runners must reach agents only through the context:\n  "
        + "\n  ".join(bad))


def test_api_does_not_import_service():
    # repro.api is the wire contract; repro.service is one consumer of
    # it.  The dependency is strictly one-way (service -> api), so the
    # facade stays importable in environments with no asyncio daemon.
    bad = _violations(("repro.api",), ("repro.service",))
    assert not bad, (
        "repro.api must not depend on repro.service:\n  " + "\n  ".join(bad))


def test_cli_imports_analysis_only_through_facade():
    # The CLI is a thin client of repro.api; reaching into the analysis
    # package directly bypasses the versioned surface.  (The sanctioned
    # re-export module repro.api.analysis does not match this prefix.)
    bad = _violations(("repro.cli",), ("repro.analysis",))
    assert not bad, (
        "repro.cli must reach analysis code via repro.api.analysis:\n  "
        + "\n  ".join(bad))


def test_kernels_import_only_numpy_and_dlt():
    # repro.kernels sits at the bottom of the stack next to repro.dlt:
    # batch kernels may use numpy and the dlt types/oracles they mirror,
    # nothing above (no core, no sweep, no analysis) — otherwise the
    # "sweep reaches kernels, kernels never reach back" cycle guarantee
    # dies.  Stdlib modules are fine; anything repro.* outside dlt and
    # the package itself is a violation.
    allowed_prefixes = ("numpy", "repro.dlt", "repro.kernels")
    bad = []
    for path in sorted((SRC / "kernels").rglob("*.py")):
        mod = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if imported.startswith("repro.") or imported == "repro":
                if not imported.startswith(allowed_prefixes):
                    bad.append(f"{mod} imports {imported}")
            elif not (imported.startswith(allowed_prefixes)
                      or imported.split(".")[0] in
                      ("__future__", "typing", "math", "itertools",
                       "functools", "dataclasses")):
                bad.append(f"{mod} imports {imported}")
    assert not bad, (
        "repro.kernels may import numpy, the stdlib and repro.dlt only:\n  "
        + "\n  ".join(bad))


def test_simulation_stack_does_not_import_kernels_directly():
    # The batch kernels are plumbed in at exactly two places: the
    # computation-cache layer (repro.perf.cache via
    # repro.core.fast_exclusion) and the sweep batch task registry
    # (repro.sweep.tasks).  Protocol runners, transports, agents, the
    # service daemon, the wire facade and the CLI must keep reaching the
    # math through those layers — a direct import would bypass the
    # cache's memoization and the digest-pinned task contract.
    bad = _violations(
        ("repro.protocol", "repro.network", "repro.agents",
         "repro.service", "repro.api", "repro.cli"),
        ("repro.kernels",))
    assert not bad, (
        "simulation/service layers must reach batch kernels through the "
        "cache layer or the sweep task registry, never directly:\n  "
        + "\n  ".join(bad))


def test_arbiter_sits_above_runners_and_below_service():
    # The bus-window arbiter schedules whole engagements: it may drive
    # the engine's session seam (and, lazily, the dls_bl_ncp facade that
    # assembles one), but it must never reach up into the serving stack
    # — the api/service layers call *it*, not the reverse.
    bad = _violations(("repro.protocol.arbiter",),
                      ("repro.service", "repro.api", "repro.cli"))
    assert not bad, (
        "repro.protocol.arbiter must stay below the api/service/cli "
        "layers:\n  " + "\n  ".join(bad))


def test_lower_layers_do_not_import_the_arbiter():
    # Phase runners, transports and agents are *scheduled by* the
    # arbiter; an upward import would collapse the scheduling seam
    # (and reintroduce the one-engagement-owns-the-bus assumption as a
    # hidden cycle).
    bad = _violations(
        ("repro.protocol.runners", "repro.network", "repro.agents"),
        ("repro.protocol.arbiter",))
    assert not bad, (
        "runners/network/agents must not depend on the arbiter:\n  "
        + "\n  ".join(bad))


def test_fleet_and_loadgen_stay_above_the_engine():
    # The fleet dispatcher is pure orchestration: digests, envelopes
    # and endpoints.  It may drive daemons (repro.service.daemon /
    # client / tcp) and speak the wire contract (repro.api), but it
    # must never compute — reaching protocol, kernels or the engine
    # layers directly would let a dispatcher answer produce a digest
    # the daemons it shards over could not.  The load generator is in
    # the same position: it *emits* requests (api types, sweep specs)
    # and digests responses; it never evaluates mechanisms itself.
    bad = _violations(
        ("repro.service.fleet", "repro.service.loadgen"),
        ("repro.protocol", "repro.kernels", "repro.network",
         "repro.agents", "repro.core", "repro.dlt"))
    assert not bad, (
        "fleet/loadgen must orchestrate, never compute:\n  "
        + "\n  ".join(bad))


def test_market_orchestrates_but_never_computes():
    # The market simulator is in the fleet/loadgen position one level
    # up: it composes api requests, drives the generic DES kernel and
    # folds records through the sweep digest helpers, and that is all.
    # Importing protocol, kernels, agents, engine layers or the serving
    # stack directly would let a market round settle differently from
    # the same round served through a daemon — the topology-invariance
    # contract the soak tier pins.  Within repro.network only the
    # generic events kernel is sanctioned (the shared DES clock);
    # transports and bus models stay behind the api executors.
    bad = _violations(
        ("repro.market",),
        ("repro.protocol", "repro.kernels", "repro.agents",
         "repro.core", "repro.dlt", "repro.service"))
    for path in sorted((SRC / "market").rglob("*.py")):
        mod = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if (imported.startswith("repro.network")
                    and imported != "repro.network.events"):
                bad.append(f"{mod} imports {imported}")
    assert not bad, (
        "repro.market must orchestrate through repro.api and the DES "
        "kernel, never compute:\n  " + "\n  ".join(bad))


def test_tcp_is_the_only_socket_seam_in_the_service():
    # Every socket the service stack opens lives in repro.service.tcp:
    # transports multiply (unix, tcp, someday TLS) but the daemon,
    # client, fleet and pool handle Endpoint values and envelopes only.
    # An `import socket` anywhere else in the package is a new seam the
    # fleet's failover semantics (connect refused vs hang) don't cover.
    bad = []
    for path in sorted((SRC / "service").rglob("*.py")):
        mod = _module_name(path)
        if mod == "repro.service.tcp":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if imported == "socket" or imported.startswith("socket."):
                bad.append(f"{mod} imports {imported}")
    assert not bad, (
        "repro.service.tcp is the only module in the service package "
        "that may touch the socket layer:\n  " + "\n  ".join(bad))


def test_facade_allowlist_is_not_stale():
    # If the facade stops importing the protocol stack, shrink ALLOWED.
    for mod in ALLOWED:
        path = SRC.parent / (mod.replace(".", "/") + ".py")
        assert path.exists(), f"allowlisted module {mod} no longer exists"
        tree = ast.parse(path.read_text(), filename=str(path))
        assert any(
            imported.startswith(UPPER_TARGETS) for imported in _imports(tree)
        ), f"{mod} no longer needs its allowlist entry — remove it"


def test_scipy_and_networkx_load_only_where_used():
    # scipy (the LP optimality oracle) and networkx (tree topologies)
    # cost most of a cold import and most of its resident memory, yet
    # no engagement, market or served request touches them: they are
    # imported inside the functions that use them.  Checked in a fresh
    # interpreter, since this test process may have loaded them already.
    import os
    import subprocess
    import sys

    probe = ("import sys, repro, repro.api, repro.cli, repro.service.daemon; "
             "print(sorted(m for m in ('scipy', 'networkx') "
             "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


#: What a wire-only process must never load: numpy and the engine layers.
ENGINE = ("numpy", "repro.core", "repro.dlt", "repro.protocol",
          "repro.kernels", "repro.network.bus", "repro.agents.processor")

_WIRE_PROBE = """
import json, sys
import repro, repro.api, repro.cli, repro.service.daemon, repro.service.fleet
from repro.api import (BenchRequest, EngagementRequest, MarketRequest,
                       MultiEngagementRequest, SweepRequest, request_from_dict)
from repro.api.registry import REQUEST_CLASSES
from repro.sweep.spec import SweepPlan

repro.cli.build_parser()
solo = EngagementRequest(w=(2.0, 3.0, 5.0, 4.0), z=0.4,
                         deviants=((1, "multiple-bids"),), committee=4,
                         byzantine=((0, "fine-steal"),))
plan = SweepPlan.from_scenarios(
    "utility-point", [{"w": [2.0, 3.0, 5.0], "z": 0.4, "kind": "ncp-fe",
                       "i": 0, "bid_factor": 1.1, "exec_factor": 1.0}],
    root_seed=1)
requests = [
    solo,
    MultiEngagementRequest(engagements=(solo.to_dict(), EngagementRequest(
        w=(3.0, 4.0, 6.0), z=0.4, kind="ncp-nfe")), policy="sjf"),
    SweepRequest(plan=plan.to_dict()),
    MarketRequest(rounds=10, deviants=((0, "wrong-payments"),)),
    BenchRequest(quick=True),
]
assert sorted(r.TYPE for r in requests) == sorted(REQUEST_CLASSES)
for request in requests:
    again = request_from_dict(json.loads(request.canonical()))
    assert again == request and again.digest() == request.digest()
print(json.dumps(sorted({layer for layer in ENGINE for m in sys.modules
                         if m == layer or m.startswith(layer + ".")})))

from repro import DLSBL, DLSBLNCP, EngineConfig, NetworkKind, execute
import repro.api.execute
from repro.core.dls_bl import DLSBL as dls_bl
from repro.core.dls_bl_ncp import DLSBLNCP as dls_bl_ncp
from repro.core.dls_bl_ncp import EngineConfig as config
from repro.dlt.platform import NetworkKind as kind

executor = sys.modules["repro.api.execute"].execute
assert (DLSBL, DLSBLNCP, EngineConfig, NetworkKind) == (dls_bl, dls_bl_ncp,
                                                        config, kind)
assert execute is executor and repro.api.execute is executor
"""


def test_wire_only_processes_never_load_the_engine():
    # Importing the package, the façade, the CLI, the daemon and the
    # fleet dispatcher, then building, round-tripping and digesting one
    # request of every registered kind, loads no numpy and no engine
    # layer.  The engine's names still resolve from the package on first
    # use, and ``repro.api.execute`` stays the function even after its
    # submodule of the same name is imported.  A fresh interpreter,
    # since this test process has loaded the engine already.
    import json
    import os
    import subprocess
    import sys

    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", f"ENGINE = {ENGINE!r}\n{_WIRE_PROBE}"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [], out.stdout


def test_every_lazy_export_resolves():
    # A package's __all__ and its first-use map are written apart; a
    # name in one but not the other breaks ``from package import *``.
    import importlib

    for package in ("repro", "repro.api", "repro.agents", "repro.core",
                    "repro.crypto", "repro.sweep"):
        module = importlib.import_module(package)
        assert [n for n in module.__all__ if not hasattr(module, n)] == []
        assert set(dir(module)) - set(vars(module)) <= set(module.__all__)


def test_every_module_imports_when_entered_first():
    # The package re-exports resolve on first use, so nothing fixes the
    # order in which a process meets the engine's modules: each one must
    # import as the first repro module a process loads.  One interpreter
    # clears its repro modules before each import.
    import os
    import subprocess
    import sys

    names = [".".join(path.relative_to(SRC.parent).with_suffix("").parts)
             .removesuffix(".__init__")
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__main__.py"]
    probe = ("import importlib, sys\n"
             f"for name in {names!r}:\n"
             "    for loaded in [m for m in sys.modules\n"
             "                   if m == 'repro' or m.startswith('repro.')]:\n"
             "        del sys.modules[loaded]\n"
             "    importlib.import_module(name)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
