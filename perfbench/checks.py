"""Answer checks.  Each returns a list of failure messages (empty = ok)."""

from __future__ import annotations

import hashlib
import json

BALANCE_TOLERANCE = 1e-9


def check_engagement(request, outcome: dict) -> list[str]:
    """An honest solo engagement: completes, no verdicts, conserves the
    ledger, and pays exactly what the one-shot mechanism DLS-BL pays."""
    from repro.core.dls_bl import DLSBL
    from repro.dlt.platform import NetworkKind

    problems = []
    if not outcome.get("completed"):
        problems.append("engagement did not complete")
    if outcome.get("verdicts"):
        problems.append(f"honest engagement drew {len(outcome['verdicts'])} "
                        "verdict(s)")
    imbalance = sum(outcome.get("balances", {}).values())
    if not abs(imbalance) <= BALANCE_TOLERANCE:
        problems.append(f"ledger not conserved: sum(balances) = {imbalance!r}")
    reference = DLSBL(NetworkKind(request.kind),
                      request.z).truthful_run(list(request.w)).payments
    paid = [outcome.get("payments", {}).get(f"P{i + 1}")
            for i in range(len(request.w))]
    if paid != [float(q) for q in reference]:
        problems.append("payments differ from DLSBL.truthful_run")
    return problems


def check_market(timed_digest: str, replay_digest: str) -> list[str]:
    """A market request's stream digest equals its verified replay's."""
    if timed_digest != replay_digest:
        return [f"market stream digest {timed_digest} != verified replay "
                f"{replay_digest}"]
    return []


def stream_digest(records) -> str:
    """SHA-256 over the canonical JSON of an ordered record list."""
    text = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def served_records(request_digests, responses) -> tuple[list, list[str]]:
    """``(slot, request digest, settlement digest)`` records of a served
    stream, and a failure message per response that is not ok."""
    from repro.api import result_from_dict

    records, problems = [], []
    for slot, (digest, response) in enumerate(zip(request_digests,
                                                  responses)):
        if not (response or {}).get("ok"):
            error = (response or {}).get("error") or {}
            problems.append(f"slot {slot}: {error.get('code', 'no response')}")
            records.append([slot, digest, None])
            continue
        records.append([slot, digest,
                        result_from_dict(response["result"]).digest()])
    return records, problems


def check_served(served_digest: str, direct_digest: str) -> list[str]:
    if served_digest != direct_digest:
        return [f"served stream digest {served_digest} != in-process "
                f"{direct_digest}"]
    return []
