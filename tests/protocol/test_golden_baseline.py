"""Frozen reference for the 25-scenario baseline of the arbiter suite.

``tests/protocol/golden/baseline.json`` records, for every scenario in
:data:`tests.protocol.test_arbiter.BASELINE` and in the same order,
three digests of the legacy solo path:

* ``settlement`` — the settlement digest of the protocol result;
* ``wire`` — the :func:`~repro.protocol.trace.wire_digest` of the bus log
  (kind, sender, recipients and size of every message, in order);
* ``faults`` — SHA-256 over the applied-fault records ``(time, kind,
  detail)`` in the order the fault layer wrote them.

The arbiter suite compares the arbiter against the solo engine *as it
is*; this file pins the solo engine itself, so a transport or agent
refactor that moved a delivery, a fault-plan RNG draw or a settlement
shows up here even when both paths move together.  Regenerate only for
a deliberate semantic change::

    PYTHONPATH=src python -m tests.protocol.test_golden_baseline --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import build_mechanism, settlement_digest
from repro.api.v1 import EngagementRequest
from repro.io import protocol_result_to_dict
from repro.protocol.trace import wire_digest
from tests.protocol.test_arbiter import BASELINE

GOLDEN = Path(__file__).parent / "golden" / "baseline.json"


def fault_digest(records) -> str:
    """SHA-256 over ``(time, kind, detail)`` of each fault record."""
    h = hashlib.sha256()
    for rec in records:
        h.update(repr((rec.time, rec.kind, rec.detail)).encode())
    return h.hexdigest()


def record(kwargs: dict) -> dict:
    """The three reference digests of one scenario's solo run."""
    mech = build_mechanism(EngagementRequest(**kwargs))
    outcome = mech.run()
    bus = mech.engine.bus
    faults = getattr(bus, "fault_log", [])
    return {
        "settlement": settlement_digest(protocol_result_to_dict(outcome)),
        "wire": wire_digest(bus.log),
        "faults": fault_digest(faults),
        "fault_records": len(faults),
    }


def scenario_key(kwargs: dict) -> str:
    """A stable, human-readable label for one scenario's kwargs."""
    return json.dumps(kwargs, sort_keys=True)


def build_reference() -> list[dict]:
    return [{"scenario": scenario_key(kw), **record(kw)} for kw in BASELINE]


def load_reference() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_reference_covers_the_baseline_in_order():
    ref = load_reference()
    assert [r["scenario"] for r in ref] == [scenario_key(kw)
                                            for kw in BASELINE]


def test_reference_exercises_the_fault_layer():
    assert sum(r["fault_records"] for r in load_reference()) == 26


@pytest.mark.parametrize("index", range(len(BASELINE)))
def test_solo_path_reproduces_the_reference(index):
    expected = load_reference()[index]
    got = record(BASELINE[index])
    assert got["settlement"] == expected["settlement"], "settlement moved"
    assert got["wire"] == expected["wire"], "wire trace moved"
    assert got["faults"] == expected["faults"], "fault records moved"
    assert got["fault_records"] == expected["fault_records"]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if "--write" not in sys.argv[1:]:
        sys.exit("pass --write to regenerate " + str(GOLDEN))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_reference(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
