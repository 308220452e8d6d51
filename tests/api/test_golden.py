"""Golden fixtures: the v1 wire format and digests are frozen.

The JSON files under ``tests/api/golden/`` are the compatibility
contract of ``repro/api/v1``: they must parse forever, re-encode
byte-identically (after canonicalization), and — for the execution
digests — produce the same settlements on every machine and Python
version.  A failure here means a wire-format or semantics break that
needs a schema bump (``repro/api/v2``), not a fixture refresh; see
DESIGN.md §4.9.
"""

import json
from pathlib import Path

import pytest

from repro.api import (
    execute,
    request_from_dict,
    settlement_digest,
)
from repro.sweep.spec import canonical_json

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = json.loads((GOLDEN / "digests.json").read_text())

REQUEST_FIXTURES = ("engagement_request", "committee_request",
                    "sweep_request", "bench_request", "market_request",
                    "multi_engagement_request")


def load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


class TestFrozenRequests:
    @pytest.mark.parametrize("name", REQUEST_FIXTURES)
    def test_parses_and_reencodes_identically(self, name):
        data = load(name)
        request = request_from_dict(data)
        assert canonical_json(request.to_dict()) == canonical_json(data), (
            f"{name}: to_dict() no longer round-trips the frozen payload — "
            "this is a v1 wire-format break")

    @pytest.mark.parametrize("name", REQUEST_FIXTURES)
    def test_digest_is_frozen(self, name):
        request = request_from_dict(load(name))
        assert request.digest() == DIGESTS[name], (
            f"{name}: canonical digest changed — identical requests no "
            "longer deduplicate across versions")

    def test_engagement_fixtures_exercise_every_field(self):
        # The fixtures are only a meaningful contract if together they
        # pin the whole surface: every EngagementRequest field appears
        # in at least one frozen body.  (The committee fields are
        # sparse on the wire, so they live in the committee fixture.)
        body: set[str] = set()
        for name in ("engagement_request", "committee_request"):
            body |= {k for k in load(name) if k not in ("schema", "type")}
        from dataclasses import fields

        from repro.api import EngagementRequest

        assert body == {f.name for f in fields(EngagementRequest)}

    def test_market_fixture_exercises_every_field(self):
        # MarketRequest materializes every field on the wire (no sparse
        # fields), so one fixture pins the whole surface.
        from dataclasses import fields

        from repro.api import MarketRequest

        body = {k for k in load("market_request")
                if k not in ("schema", "type")}
        assert body == {f.name for f in fields(MarketRequest)}

    def test_multi_engagement_fixture_exercises_every_field(self):
        # One fixture pins the whole multi-engagement surface, and its
        # committee sub-payload carries the sparse engagement fields.
        from dataclasses import fields

        from repro.api import MultiEngagementRequest

        data = load("multi_engagement_request")
        body = {k for k in data if k not in ("schema", "type")}
        assert body == {f.name for f in fields(MultiEngagementRequest)}
        assert {"committee", "byzantine"} <= set(data["engagements"][0])


class TestFrozenExecution:
    def test_engagement_settlement_digest_is_frozen(self):
        result = execute(request_from_dict(load("engagement_request")))
        assert result.digest() == DIGESTS["engagement_result"], (
            "the engagement settlement changed for a frozen request — "
            "either the mechanism semantics moved (update EXPERIMENTS.md "
            "and refresh deliberately) or determinism broke")
        assert result.digest() == settlement_digest(result.outcome)

    def test_sweep_digest_is_frozen(self):
        result = execute(request_from_dict(load("sweep_request")))
        assert result.digest() == DIGESTS["sweep_result"]

    def test_market_stream_digest_is_frozen(self):
        # A seeded 200-round market run — churn, contention, resident
        # deviants — must fold to the frozen stream digest: the whole
        # arrival/churn/admission derivation and every settlement along
        # the way are pinned by one hash.
        result = execute(request_from_dict(load("market_request")))
        assert result.digest() == DIGESTS["market_result"], (
            "the market round stream changed for a frozen request — "
            "either a seeded derivation moved (bump MARKET_VERSION and "
            "refresh deliberately) or determinism broke")
        assert result.rounds == 200
        assert result.summary["max_ledger_error"] < 1e-9

    def test_committee_settlement_digest_is_frozen(self):
        # An N=4 committee carrying a fine-stealing seat-0 leader must
        # settle exactly as frozen: the quorum out-votes the thief.
        result = execute(request_from_dict(load("committee_request")))
        assert result.digest() == DIGESTS["committee_result"], (
            "the committee settlement changed for a frozen request — "
            "quorum adjudication semantics moved (update EXPERIMENTS.md "
            "and refresh deliberately) or determinism broke")
        assert result.outcome["certificates"], (
            "a committee run must archive its quorum certificates")

    def test_multi_engagement_settlement_map_digest_is_frozen(self):
        # Two engagements on one bus under sjf: a committee engagement
        # whose deviant is fined (the quorum out-votes a fine-stealing
        # leader) and an ncp-nfe engagement in commit mode.
        result = execute(request_from_dict(load("multi_engagement_request")))
        assert result.digest() == DIGESTS["multi_engagement_result"], (
            "the settlement map changed for a frozen multi-engagement "
            "request — arbiter or mechanism semantics moved, or "
            "determinism broke")
        assert not result.outcomes["E1"]["completed"]
        assert result.outcomes["E2"]["completed"]
