"""Hostile and oversized payloads: every one gets an ApiError.

A malformed field — any JSON value in place of any field of a valid
request, a multi-engagement request's sub-payload or a sweep plan —
must be refused with :class:`ApiError` (which the service turns into an
``invalid-request`` frame), or else parse into a request whose
``to_dict()`` re-parses to an equal request.  Nothing else may escape
the parser.  Sizes are bounded by :data:`repro.api.v1.LIMITS`, checked
at parse time; no test here executes a request.
"""

import copy
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ApiError,
    BenchRequest,
    EngagementRequest,
    MarketRequest,
    MultiEngagementRequest,
    SweepRequest,
    request_from_dict,
)
from repro.api.v1 import LIMITS
from repro.sweep import SweepPlan

W = (2.0, 3.0, 5.0, 4.0)
Z = 0.4


def _engagement(**kw) -> EngagementRequest:
    # Every field away from its default, so sparse fields are on the wire.
    return EngagementRequest(
        w=W, z=Z, kind="ncp-nfe", num_blocks=40, bidding_mode="commit",
        fine_factor=3.0, redundancy="independent",
        deviants=((1, "multiple-bids"),), crash=((2, 0.5),),
        drop_rate=0.1, seed=9, pki_seed=4, committee=4,
        byzantine=((0, "fine-steal"),), **kw)


def _plan(n: int = 2) -> dict:
    return SweepPlan.from_scenarios(
        "utility-point",
        [{"w": [2.0, 3.0], "z": Z, "kind": "ncp-fe", "i": 0,
          "bid_factor": 1.0 + 0.1 * j, "exec_factor": 1.0}
         for j in range(n)], root_seed=3).to_dict()


#: One valid payload per request type.
BASES = {
    "engagement": _engagement().to_dict(),
    "multi-engagement": MultiEngagementRequest(
        engagements=(_engagement(), EngagementRequest(w=(3.0, 4.0), z=Z)),
        policy="sjf").to_dict(),
    "sweep": SweepRequest(plan=_plan(), workers=2).to_dict(),
    "bench": BenchRequest(quick=False, workers=2).to_dict(),
    "market": MarketRequest(
        rounds=5, seed=3, deviants=((0, "multiple-bids"),),
        contention_window=0.3, join_rate=0.1, leave_rate=0.05).to_dict(),
}


def _paths(node, prefix=()):
    """Every key path into a payload's objects (list items by index)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            if isinstance(value, dict):
                yield from _paths(value, prefix + (pos,))


#: (request type, path) for every field of every base payload — top
#: level, each sub-payload and the sweep plan with its scenarios.
TARGETS = [(kind, path) for kind, base in BASES.items()
           for path in _paths(base)]

#: The probe's JSON values: wrong types, wrong shapes, edge numbers.
VALUES = [
    None, True, False, 0, -1, 5, 1.5, -2.5, 1e300, 10**30, math.inf,
    math.nan, "", "x", "multiple-bids", [], [None], [1, 2], [[None, None]],
    [[0, "x"]], [[0, 0.5, 1]], [[1e300, "fine-steal"]], {}, {"a": 1}, [{}],
]

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def _with(kind: str, path: tuple, value) -> dict:
    payload = copy.deepcopy(BASES[kind])
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


def _parses_cleanly_or_refuses(payload: dict) -> None:
    try:
        request = request_from_dict(payload)
    except ApiError:
        return
    assert request_from_dict(request.to_dict()) == request


def test_bases_cover_every_request_type_and_round_trip():
    from repro.api.v1 import REQUEST_TYPES

    assert set(BASES) == set(REQUEST_TYPES)
    for base in BASES.values():
        request = request_from_dict(base)
        assert request_from_dict(request.to_dict()) == request


def test_every_probe_value_in_every_field_is_refused_or_round_trips():
    # The whole probe grid, deterministically: every target field set
    # to every probe value.
    assert len(TARGETS) * len(VALUES) > 1000
    for kind, path in TARGETS:
        for value in VALUES:
            _parses_cleanly_or_refuses(_with(kind, path, value))


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(TARGETS),
       value=st.sampled_from(VALUES) | JSON)
def test_any_json_value_in_any_field_is_refused_or_round_trips(target,
                                                                value):
    _parses_cleanly_or_refuses(_with(*target, value))


class TestLimits:
    """Each over-limit value is refused at parse time, naming the
    field and the limit; the at-limit value parses."""

    @staticmethod
    def over(key: str) -> dict:
        over = LIMITS[key] + 1
        if key == "w":
            return _with("engagement", (key,), [1.0] * over)
        if key in ("num_blocks", "committee"):
            return _with("engagement", (key,), over)
        if key == "engagements":
            sub = EngagementRequest(w=(2.0, 3.0), z=Z).to_dict()
            return _with("multi-engagement", (key,), [sub] * over)
        if key in ("rounds", "processors", "max_contention"):
            return _with("market", (key,), over)
        if key == "scenarios":
            cell = _plan(1)["scenarios"][0]
            return _with("sweep", ("plan", key), [cell] * over)
        assert key == "workers"
        return _with("sweep", (key,), over)

    @pytest.mark.parametrize("key", sorted(LIMITS))
    def test_over_limit_is_an_api_error_naming_field_and_limit(self, key):
        field = "plan scenarios" if key == "scenarios" else key
        with pytest.raises(ApiError) as err:
            request_from_dict(json.loads(json.dumps(self.over(key))))
        message = str(err.value)
        assert message.startswith(f"{field} must")
        assert f"{LIMITS[key]} " in message
        assert f"(LIMITS[{key!r}])" in message

    def test_bench_workers_are_bounded_too(self):
        with pytest.raises(ApiError, match=r"LIMITS\['workers'\]"):
            BenchRequest(workers=LIMITS["workers"] + 1)

    @pytest.mark.parametrize("kwargs", [
        dict(w=(1.0,) * LIMITS["w"], z=Z),
        dict(w=W, z=Z, num_blocks=LIMITS["num_blocks"]),
        dict(w=W, z=Z, committee=LIMITS["committee"]),
    ])
    def test_at_limit_engagements_parse(self, kwargs):
        request = EngagementRequest(**kwargs)
        assert request_from_dict(request.to_dict()) == request

    def test_at_limit_market_and_sweep_parse(self):
        MarketRequest(rounds=LIMITS["rounds"],
                      processors=LIMITS["processors"],
                      max_contention=LIMITS["max_contention"])
        SweepRequest(plan=_plan(), workers=LIMITS["workers"])
        sub = EngagementRequest(w=(2.0, 3.0), z=Z)
        MultiEngagementRequest(engagements=(sub,) * LIMITS["engagements"])
