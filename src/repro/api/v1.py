"""The versioned public API: v1 request/result value types.

Every request the reproduction can serve — a protocol engagement, a
sweep plan, a benchmark pass — and every answer it produces is one of
the frozen dataclasses here, tagged ``schema: "repro/api/v1"``.  The
CLI subcommands construct these objects from argv; the request service
(:mod:`repro.service`) parses them off its socket; both hand them to
the same executors in :mod:`repro.api.execute`, which is what makes a
service answer byte-comparable with a direct library call.

Stability contract
------------------
* One field table: each dataclass field declares its check, whether it
  is *sparse* and its JSON shape (:func:`_field`).  ``_Payload`` runs
  the checks at construction and owns the only ``to_dict``.
* ``to_dict`` / ``from_dict`` round-trip exactly: every field is plain
  JSON data, defaults are materialized (sparse fields excepted: they
  are left off the wire at their default), and ``from_dict`` rejects
  unknown keys — a v2 field can never be silently dropped by a v1
  parser.
* Validation happens at construction and raises :class:`ApiError` with
  an actionable message (what was wrong, what would be accepted) —
  also for a malformed shape, such as a non-list ``deviants``.  Sizes
  are bounded by :data:`LIMITS`, checked at parse time.
* ``digest()`` of a request is its canonical identity: the SHA-256 of
  the canonical-JSON encoding of ``to_dict()``.  The service's
  cross-request result cache and the golden fixtures both key on it.
  A multi-engagement request holds its sub-requests parsed and
  re-encodes them canonically, so a wrapped engagement is encoded
  exactly as the same engagement sent alone.
* Schema evolution is additive-with-defaults within v1; anything else
  ships as ``repro/api/v2`` beside (not instead of) v1, with v1
  parsing kept alive for one deprecation cycle (see DESIGN.md §4.9).
"""

from __future__ import annotations

import functools
import hashlib
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.agents.behaviors import REFEREE_STRATEGIES, Deviation
from repro.api import registry as _registry
from repro.crypto.certificates import tolerated_faults
from repro.sweep.spec import PLAN_FORMAT, SweepPlan, canonical_json

__all__ = [
    "SCHEMA",
    "LIMITS",
    "ApiError",
    "EngagementRequest",
    "MultiEngagementRequest",
    "SweepRequest",
    "BenchRequest",
    "MarketRequest",
    "EngagementResult",
    "MultiEngagementResult",
    "SweepResult",
    "BenchResult",
    "MarketResult",
    "ServiceStats",
    "settlement_digest",
    "parse_request",
    "parse_result",
    "request_from_dict",
    "result_from_dict",
]

SCHEMA = "repro/api/v1"

_ENGAGEMENT_KINDS = ("ncp-fe", "ncp-nfe")
_BIDDING_MODES = ("atomic", "commit", "naive")
_REDUNDANCY_MODES = ("memoized", "independent")
_ARBITER_POLICIES = ("fifo", "sjf", "rr")
_PROTOCOL_RESULT = "repro/protocol-result/v1"

#: Upper bounds on request sizes, checked at parse time, so a request
#: over a limit is refused before any executor runs.  DESIGN.md §4.9
#: gives the reason for each, beside the service's frame limit
#: (:data:`repro.service.tcp.MAX_FRAME_BYTES`).
LIMITS = {
    "w": 1024,                # processors per engagement
    "num_blocks": 10_000,     # signed load blocks per engagement
    "committee": 64,          # referee committee seats
    "engagements": 64,        # sub-requests per multi-engagement request
    "rounds": 1_000_000,      # market rounds
    "processors": 1024,       # a market's founding population
    "max_contention": 64,     # engagements per contended market round
    "scenarios": 100_000,     # sweep-plan scenarios
    "workers": 16,            # sweep and bench worker processes
}

#: Fields of a protocol-result record that constitute the *settlement*
#: — what the mechanism decided — as opposed to operational telemetry
#: (traffic counters, trace spans).  The canonical digest of an
#: engagement covers exactly these, so a run contending for a shared
#: bus digests identically to the same engagement run alone:
#: contention moves flow times, never settlements.
SETTLEMENT_FIELDS = (
    "format", "completed", "terminal_phase", "order", "participants",
    "bids", "alpha", "phi", "payments", "balances", "costs", "utilities",
    "fine_amount", "makespan_realized", "user_cost", "degraded", "crashed",
    "reallocations", "verdicts",
)


class ApiError(ValueError):
    """A request or payload failed v1 validation.

    The message always names the offending field and the accepted
    values, so it can be surfaced verbatim to CLI and service callers.
    """


def settlement_digest(record: Mapping[str, Any]) -> str:
    """Canonical digest of an engagement's settlement.

    SHA-256 over the canonical-JSON encoding of the
    :data:`SETTLEMENT_FIELDS` subset of a ``repro/protocol-result/v1``
    record.  Identical for a run served from the daemon's warm workers
    and a direct ``DLSBLNCP(...).run()`` of the same request.
    """
    subset = {k: record[k] for k in SETTLEMENT_FIELDS if k in record}
    return hashlib.sha256(canonical_json(subset).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# field checks: ``check(name, value)`` returns the normalized value
# ---------------------------------------------------------------------------

def _fail(message: str) -> None:
    raise ApiError(message)


def _check_number(name: str, value, *, minimum=None, maximum=None,
                  exclusive_min=False, exclusive_max=False) -> float:
    # A JSON true or "0.4" would pass float(); only real numbers do here.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        _fail(f"{name} must be a number; got {value!r}")
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        _fail(f"{name} must be a number; got {value!r}")
    if out != out or out in (float("inf"), float("-inf")):
        _fail(f"{name} must be finite; got {value!r}")
    if minimum is not None:
        if exclusive_min and not out > minimum:
            _fail(f"{name} must be > {minimum}; got {value!r}")
        if not exclusive_min and not out >= minimum:
            _fail(f"{name} must be >= {minimum}; got {value!r}")
    if maximum is not None:
        if exclusive_max and not out < maximum:
            _fail(f"{name} must be < {maximum}; got {value!r}")
        if not exclusive_max and not out <= maximum:
            _fail(f"{name} must be <= {maximum}; got {value!r}")
    return out


def _check_int(name: str, value, *, minimum=None, limit=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            as_int = int(value)
        except (TypeError, ValueError, OverflowError):
            _fail(f"{name} must be an integer; got {value!r}")
        if not isinstance(value, float) or as_int != value:
            _fail(f"{name} must be an integer; got {value!r}")
        value = as_int
    if minimum is not None and value < minimum:
        _fail(f"{name} must be >= {minimum}; got {value}")
    if limit is not None and value > LIMITS[limit]:
        _fail(f"{name} must be <= {LIMITS[limit]} (LIMITS[{limit!r}]); "
              f"got {value}")
    return int(value)


def _check_optional_int(name: str, value) -> int | None:
    return None if value is None else _check_int(name, value)


def _check_choice(name: str, value, choices) -> str:
    if value not in choices:
        _fail(f"{name} must be one of {list(choices)}; got {value!r}")
    return value


def _check_flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        _fail(f"{name} must be true or false; got {value!r}")
    return value


def _check_list(name: str, value, *, least=0, limit=None,
                noun="entries") -> tuple:
    if not isinstance(value, (list, tuple)):
        _fail(f"{name} must be a list; got {type(value).__name__}")
    if len(value) < least:
        _fail(f"{name} must list at least {least} {noun}; got {value!r}")
    if limit is not None and len(value) > LIMITS[limit]:
        _fail(f"{name} must list at most {LIMITS[limit]} {noun} "
              f"(LIMITS[{limit!r}]); got {len(value)}")
    return tuple(value)


def _check_object(name: str, value) -> dict:
    if not isinstance(value, Mapping):
        _fail(f"{name} must be a JSON object; got {type(value).__name__}")
    return dict(value)


def _check_numbers(name: str, value, **bounds) -> dict:
    """A JSON object of numbers, keyed by strings."""
    return {str(k): _check_number(f"{name}[{k!r}]", v, **bounds)
            for k, v in _check_object(name, value).items()}


def _check_w(name: str, value) -> tuple:
    w = _check_list(name, value, least=2, limit="w",
                    noun="per-unit processing times")
    return tuple(_check_number(f"w[{i}]", x, minimum=0.0, exclusive_min=True)
                 for i, x in enumerate(w))


def _check_engagement_kind(name: str, value) -> str:
    if value == "cp":
        _fail("kind 'cp' has a trusted control processor — engagements "
              "run the distributed protocol; use the `mechanism` "
              "subcommand / repro.core.DLSBL for the CP system, or one "
              f"of {list(_ENGAGEMENT_KINDS)}")
    return _check_choice(name, value, _ENGAGEMENT_KINDS)


def _check_deviation(name: str, value) -> str:
    try:
        return Deviation(value).value
    except ValueError:
        _fail(f"unknown deviation {value!r}; "
              f"choose from {sorted(d.value for d in Deviation)}")


def _check_strategy(name: str, value) -> str:
    if value not in REFEREE_STRATEGIES:
        _fail(f"unknown referee strategy {value!r}; "
              f"choose from {list(REFEREE_STRATEGIES)}")
    return value


def _check_pairs(name: str, value, *, labels, second) -> tuple:
    """``[index, x]`` entries: a non-negative integer, then *second*'s
    check on ``x`` (``labels`` name the two halves in messages)."""
    out = []
    for entry in _check_list(name, value):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            _fail(f"each {name} entry must be [{labels[0]}, {labels[1]}]; "
                  f"got {entry!r}")
        out.append((_check_int(f"{name} {labels[0]}", entry[0], minimum=0),
                    second(f"{name} {labels[1]}", entry[1])))
    return tuple(out)


def _check_in_range(name: str, pairs, count: int, of: str) -> None:
    for idx, _ in pairs:
        if idx >= count:
            _fail(f"{name} {idx} out of range for {count} {of}")


def _check_record(name: str, value) -> Mapping:
    fmt = value.get("format") if isinstance(value, Mapping) else None
    if fmt != _PROTOCOL_RESULT:
        _fail(f"{name} must be a {_PROTOCOL_RESULT} object; got "
              f"{type(value).__name__} with format {fmt!r}")
    return value


_DEVIANTS = dict(labels=("index", "name"), second=_check_deviation)


def _pair_lists(pairs) -> list:
    return [list(p) for p in pairs]


def _field(default, check=None, *, sparse=False, shape=None, **bounds):
    """One row of the field table.

    ``check(name, value)`` (with *bounds* bound in) validates and
    normalizes the value at construction; a *sparse* field is left off
    the wire at its default; ``shape(value)`` gives the JSON form
    (``None``: the value itself).
    """
    if bounds:
        check = functools.partial(check, **bounds)
    meta = {"check": check, "sparse": sparse, "shape": shape}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


@functools.cache
def _specs(cls) -> tuple:
    """``(name, check, sparse, default, shape)`` for each field of *cls*."""
    return tuple((f.name, f.metadata.get("check"),
                  f.metadata.get("sparse", False), f.default,
                  f.metadata.get("shape"))
                 for f in fields(cls))


def _envelope(data: Mapping[str, Any], expected_type: str,
              cls) -> dict[str, Any]:
    """Validate the ``schema``/``type`` envelope; return the body."""
    if not isinstance(data, Mapping):
        _fail(f"a {expected_type} payload must be a JSON object; "
              f"got {type(data).__name__}")
    schema = data.get("schema")
    if schema != SCHEMA:
        _fail(f"expected schema {SCHEMA!r}; got {schema!r} "
              f"(is this payload from a newer API version?)")
    kind = data.get("type")
    if kind != expected_type:
        _fail(f"expected type {expected_type!r}; got {kind!r}")
    body = {k: v for k, v in data.items() if k not in ("schema", "type")}
    valid = {spec[0] for spec in _specs(cls)}
    unknown = sorted(set(body) - valid)
    if unknown:
        _fail(f"unknown {expected_type} field(s) {unknown}; "
              f"valid fields: {sorted(valid)}")
    return body


class _Payload:
    """Shared plumbing for every v1 value type, driven by the field table.

    ``__post_init__`` runs each field's check and stores the normalized
    value; ``to_dict`` encodes each field by its shape, leaving sparse
    fields out at their default.  A subclass adds only its cross-field
    checks, in its own ``__post_init__`` after ``super().__post_init__()``.
    """

    TYPE = ""  # overridden

    def __post_init__(self) -> None:
        for name, check, _, _, _ in _specs(type(self)):
            if check is not None:
                object.__setattr__(self, name,
                                   check(name, getattr(self, name)))

    def to_dict(self) -> dict:
        out = {"schema": SCHEMA, "type": self.TYPE}
        for name, _, sparse, default, shape in _specs(type(self)):
            value = getattr(self, name)
            if not (sparse and value == default):
                out[name] = value if shape is None else shape(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return cls(**_envelope(data, cls.TYPE, cls))

    def canonical(self) -> str:
        """Canonical JSON encoding (sorted keys, no whitespace)."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical` — the value's stable identity."""
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngagementRequest(_Payload):
    """One DLS-BL-NCP engagement, fully described as plain data.

    Mirrors what ``repro protocol`` accepts from argv: the instance
    (``w``, ``kind``, ``z``), the engagement options, deviating agents
    (``deviants``: ``[index, deviation-name]`` pairs), injected faults
    (``crash``: ``[index, progress]`` pairs; ``drop_rate`` with
    ``seed``), and the determinism hook ``pki_seed``.

    ``committee`` (with optional ``byzantine`` ``[seat, strategy]``
    pairs) replaces the single trusted referee with an N-member quorum
    committee.  Both fields are *sparse* on the wire: ``to_dict``
    omits them at their defaults, so pre-committee payloads and their
    digests are unchanged (additive-with-defaults evolution).
    """

    TYPE = "engagement"

    w: tuple[float, ...] = _field((), _check_w, shape=list)
    z: float = _field(0.0, _check_number, minimum=0.0, exclusive_min=True)
    kind: str = _field("ncp-fe", _check_engagement_kind)
    num_blocks: int = _field(120, _check_int, minimum=1, limit="num_blocks")
    bidding_mode: str = _field("atomic", _check_choice,
                               choices=_BIDDING_MODES)
    fine_factor: float = _field(2.0, _check_number, minimum=0.0,
                                exclusive_min=True)
    redundancy: str = _field("memoized", _check_choice,
                             choices=_REDUNDANCY_MODES)
    deviants: tuple[tuple[int, str], ...] = _field(
        (), _check_pairs, shape=_pair_lists, **_DEVIANTS)
    crash: tuple[tuple[int, float], ...] = _field(
        (), _check_pairs, shape=_pair_lists, labels=("index", "progress"),
        second=functools.partial(_check_number, minimum=0.0, maximum=1.0))
    drop_rate: float = _field(0.0, _check_number, minimum=0.0, maximum=1.0,
                              exclusive_max=True)
    seed: int | None = _field(None, _check_optional_int)
    pki_seed: int | None = _field(None, _check_optional_int)
    committee: int = _field(0, _check_int, sparse=True, minimum=0,
                            limit="committee")
    byzantine: tuple[tuple[int, str], ...] = _field(
        (), _check_pairs, sparse=True, shape=_pair_lists,
        labels=("seat", "strategy"), second=_check_strategy)

    def __post_init__(self) -> None:
        super().__post_init__()
        m = len(self.w)
        _check_in_range("deviants index", self.deviants, m, "processors")
        _check_in_range("crash index", self.crash, m, "processors")
        if self.byzantine and not self.committee:
            _fail("byzantine referees need a committee; set committee >= 1")
        _check_in_range("byzantine seat", self.byzantine, self.committee,
                        "committee seats")
        seats = [s for s, _ in self.byzantine]
        if len(set(seats)) != len(seats):
            _fail(f"byzantine seats must be distinct; got {seats}")
        limit = tolerated_faults(self.committee)
        if len(seats) > limit:
            _fail(f"a {self.committee}-member committee tolerates at most "
                  f"{limit} Byzantine member(s) (f = (N-1)//3); "
                  f"got {len(seats)}")

    def engine_config(self):
        """The :class:`repro.core.dls_bl_ncp.EngineConfig` this request
        describes."""
        from repro.agents.behaviors import AgentBehavior
        from repro.core.dls_bl_ncp import EngineConfig
        from repro.core.fines import FinePolicy
        from repro.network.faults import CrashFault, FaultPlan, MessageFault
        from repro.protocol.phases import Phase

        behaviors: dict[int, AgentBehavior] = {}
        for idx, name in self.deviants:
            existing = behaviors.get(idx)
            devs = ((existing.deviations if existing else frozenset())
                    | {Deviation(name)})
            behaviors[idx] = AgentBehavior(deviations=devs)

        names = [f"P{i + 1}" for i in range(len(self.w))]
        crashes = tuple(
            CrashFault(names[idx], phase=Phase.PROCESSING_LOAD,
                       progress=progress)
            for idx, progress in self.crash)
        messages = ()
        if self.drop_rate:
            messages = (MessageFault(action="drop",
                                     probability=self.drop_rate),)
        fault_plan = None
        if crashes or messages:
            fault_plan = FaultPlan(seed=self.seed or 0, crashes=crashes,
                                   messages=messages)
        committee = None
        if self.committee:
            from repro.core.quorum import CommitteeConfig

            committee = CommitteeConfig(size=self.committee,
                                        byzantine=self.byzantine)
        return EngineConfig(
            behaviors=behaviors or None,
            policy=FinePolicy(self.fine_factor),
            num_blocks=self.num_blocks,
            bidding_mode=self.bidding_mode,
            fault_plan=fault_plan,
            redundancy=self.redundancy,
            pki_seed=self.pki_seed,
            committee=committee,
        )


def _check_plan(name: str, value) -> Mapping:
    if not isinstance(value, Mapping):
        _fail(f"plan must be a {PLAN_FORMAT} JSON object; "
              f"got {type(value).__name__}")
    scenarios = value.get("scenarios")
    if isinstance(scenarios, (list, tuple)):
        _check_list("plan scenarios", scenarios, limit="scenarios",
                    noun="scenarios")
    try:
        SweepPlan.from_dict(value)
    except (ValueError, OverflowError) as exc:
        _fail(f"plan is not a valid {PLAN_FORMAT} payload: {exc}")
    return value


@dataclass(frozen=True)
class SweepRequest(_Payload):
    """A sweep plan (``repro/sweep-plan/v1`` payload) plus execution
    options the server may honour (``workers``)."""

    TYPE = "sweep"

    plan: dict = _field({}, _check_plan, shape=dict)
    workers: int = _field(1, _check_int, minimum=1, limit="workers")

    def build_plan(self) -> SweepPlan:
        """Parse the embedded plan into a :class:`SweepPlan`."""
        return SweepPlan.from_dict(self.plan)


@dataclass(frozen=True)
class BenchRequest(_Payload):
    """One pass of the perf kernels (no regression gate, no report
    file — a measurement, so the service never caches it)."""

    TYPE = "bench"

    quick: bool = _field(True, _check_flag)
    workers: int = _field(1, _check_int, minimum=1, limit="workers")


def _check_engagements(name: str, value) -> tuple:
    entries = _check_list(name, value, least=1, limit="engagements",
                          noun="engagement payloads")
    subs = []
    for pos, entry in enumerate(entries):
        if isinstance(entry, EngagementRequest):
            subs.append(entry)
            continue
        if not isinstance(entry, Mapping):
            _fail(f"engagements[{pos}] must be an engagement payload "
                  f"object; got {type(entry).__name__}")
        try:
            subs.append(EngagementRequest.from_dict(entry))
        except ApiError as exc:
            _fail(f"engagements[{pos}]: {exc}")
    return tuple(subs)


@dataclass(frozen=True)
class MultiEngagementRequest(_Payload):
    """K engagements multiplexed over one shared bus, as plain data.

    ``engagements`` is a tuple of :class:`EngagementRequest`.  An entry
    may be given as a complete engagement payload (with its own
    schema/type envelope — the sub-payloads are first-class v1 values,
    so a client can promote a solo request into a multi-engagement one
    by wrapping it unchanged), parsed once here, or as an
    :class:`EngagementRequest`, taken as given.  Either way the wire
    form is each sub-request's canonical ``to_dict()``, so a wrapped
    engagement digests as it would alone.  All entries must share
    ``z``: engagements contending for one physical bus share its
    per-unit communication time by definition.  ``policy`` selects the
    bus-window granting discipline
    (:data:`repro.protocol.arbiter.POLICIES`).

    Engagement ids are assigned deterministically — ``E1 .. EK`` in
    submission order — so the same payload always produces the same
    result keys (and therefore the same digests).
    """

    TYPE = "multi-engagement"

    engagements: tuple[EngagementRequest, ...] = _field(
        (), _check_engagements, shape=lambda subs: [s.to_dict() for s in subs])
    policy: str = _field("fifo", _check_choice, choices=_ARBITER_POLICIES)

    def __post_init__(self) -> None:
        super().__post_init__()
        z0 = self.engagements[0].z
        for pos, sub in enumerate(self.engagements[1:], start=1):
            if abs(sub.z - z0) > 1e-12:
                _fail(f"engagements sharing a bus share its z; "
                      f"engagements[0].z = {z0} but "
                      f"engagements[{pos}].z = {sub.z}")

    @property
    def z(self) -> float:
        return self.engagements[0].z

    @property
    def engagement_ids(self) -> tuple[str, ...]:
        return tuple(f"E{i + 1}" for i in range(len(self.engagements)))

    def jobs(self) -> tuple:
        """The :class:`repro.protocol.arbiter.EngagementJob` tuple this
        request describes."""
        from repro.dlt.platform import NetworkKind
        from repro.protocol.arbiter import EngagementJob

        return tuple(
            EngagementJob(
                engagement_id=eid,
                w=sub.w,
                kind=NetworkKind(sub.kind),
                config=sub.engine_config())
            for eid, sub in zip(self.engagement_ids, self.engagements))


@dataclass(frozen=True)
class MarketRequest(_Payload):
    """A seeded long-horizon market simulation, as plain data.

    Describes everything the :mod:`repro.market` simulator needs: the
    engagement template (``z``, ``kind``, ``num_blocks``,
    ``fine_factor``), the processor population (``processors`` members
    with per-unit times drawn uniformly from ``[w_low, w_high]``; a
    round hires a ``cohort``-sized subset), the open-loop arrival
    process (``arrival_rate`` engagements per unit time — arrivals
    closer together than ``contention_window`` contend for the bus in
    one multi-engagement round of at most ``max_contention``, granted
    under ``policy``), the churn process (``join_rate``/``leave_rate``
    per round; a leave that lands on a hired processor mid-round
    becomes a Processing-phase crash fault and takes the survivor
    re-allocation path), the resident deviants (``deviants``:
    ``[index, deviation-name]`` pairs over the *founding* population,
    exactly as in :class:`EngagementRequest`), and the reputation
    model (``reputation_decay``, ``admission_floor`` — see DESIGN.md
    §4.14).  ``window`` sets the bucket width of the windowed
    timeseries in the result.
    """

    TYPE = "market"

    rounds: int = _field(100, _check_int, minimum=1, limit="rounds")
    seed: int = _field(0, _check_int)
    z: float = _field(0.4, _check_number, minimum=0.0, exclusive_min=True)
    kind: str = _field("ncp-fe", _check_choice, choices=_ENGAGEMENT_KINDS)
    num_blocks: int = _field(16, _check_int, minimum=1, limit="num_blocks")
    fine_factor: float = _field(2.0, _check_number, minimum=0.0,
                                exclusive_min=True)
    processors: int = _field(6, _check_int, minimum=2, limit="processors")
    cohort: int = _field(3, _check_int, minimum=2)
    w_low: float = _field(1.5, _check_number, minimum=0.0,
                          exclusive_min=True)
    w_high: float = _field(6.0, _check_number)
    arrival_rate: float = _field(2.0, _check_number, minimum=0.0,
                                 exclusive_min=True)
    contention_window: float = _field(0.0, _check_number, minimum=0.0)
    max_contention: int = _field(3, _check_int, minimum=1,
                                 limit="max_contention")
    policy: str = _field("fifo", _check_choice, choices=_ARBITER_POLICIES)
    join_rate: float = _field(0.0, _check_number, minimum=0.0, maximum=1.0)
    leave_rate: float = _field(0.0, _check_number, minimum=0.0, maximum=1.0)
    deviants: tuple[tuple[int, str], ...] = _field(
        (), _check_pairs, shape=_pair_lists, **_DEVIANTS)
    reputation_decay: float = _field(0.8, _check_number, minimum=0.0,
                                     maximum=1.0)
    admission_floor: float = _field(0.2, _check_number, minimum=0.0,
                                    maximum=1.0, exclusive_max=True)
    window: int = _field(25, _check_int, minimum=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cohort > self.processors:
            _fail(f"cohort must be <= processors; got cohort={self.cohort} "
                  f"with processors={self.processors}")
        if self.w_high < self.w_low:
            _fail(f"w_high must be >= w_low = {self.w_low}; "
                  f"got {self.w_high}")
        _check_in_range("deviants index", self.deviants, self.processors,
                        "processors")
        if len({i for i, _ in self.deviants}) >= self.processors:
            _fail("deviants cannot cover the whole founding population; "
                  "leave at least one honest processor")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EngagementResult(_Payload):
    """Answer to an :class:`EngagementRequest`.

    ``outcome`` is the full ``repro/protocol-result/v1`` record
    (settlement + traffic + per-phase trace spans); ``digest`` is its
    :func:`settlement_digest`; ``cached`` marks answers the service
    replayed from its cross-request result cache.
    """

    TYPE = "engagement-result"

    outcome: dict = _field({}, _check_record, shape=dict)
    digest_value: str = ""
    cached: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.digest_value:
            object.__setattr__(self, "digest_value",
                               settlement_digest(self.outcome))

    @property
    def completed(self) -> bool:
        return bool(self.outcome.get("completed"))

    @property
    def spans(self) -> list:
        return list(self.outcome.get("spans", ()))

    def digest(self) -> str:  # the settlement digest IS the identity
        return self.digest_value


@dataclass(frozen=True)
class SweepResult(_Payload):
    """Answer to a :class:`SweepRequest`.

    ``records`` and ``digest_value`` follow the sweep engine's
    determinism contract (byte-identical to the serial reference loop);
    ``telemetry`` carries the operational extras (shards, traffic,
    phases, restarts) excluded from the digest.
    """

    TYPE = "sweep-result"

    records: tuple = _field((), _check_list, shape=list)
    digest_value: str = ""
    workers: int = 1
    telemetry: dict = _field({}, _check_object, shape=dict)
    cached: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        from repro.sweep.spec import digest_records

        expected = digest_records(self.records)
        if not self.digest_value:
            object.__setattr__(self, "digest_value", expected)
        elif self.digest_value != expected:
            _fail("digest_value does not match the record stream "
                  f"(expected {expected}, got {self.digest_value}) — "
                  "payload corrupted in transit?")

    @classmethod
    def from_run(cls, run, *, cached: bool = False) -> "SweepResult":
        """Fold a :class:`repro.sweep.SweepResult` execution record."""
        return cls(
            records=tuple(run.records),
            digest_value=run.digest(),
            workers=run.workers,
            telemetry={
                "restarts": run.restarts,
                "shards": [s.to_dict() for s in run.shards],
                "traffic": run.traffic.to_dict(),
                "phases": run.phases.to_dict(),
            },
            cached=cached,
        )

    def digest(self) -> str:  # the record-stream digest IS the identity
        return self.digest_value


@dataclass(frozen=True)
class BenchResult(_Payload):
    """Answer to a :class:`BenchRequest`: kernel → best-of-N seconds."""

    TYPE = "bench-result"

    timings: dict = _field({}, _check_numbers, shape=dict)
    quick: bool = True
    cached: bool = False


def _check_ids(name: str, value) -> tuple:
    return tuple(str(x) for x in _check_list(name, value))


def _check_outcomes(name: str, value) -> dict:
    outcomes = _check_object(name, value)
    if not outcomes:
        _fail("outcomes must map engagement ids to "
              f"{_PROTOCOL_RESULT} objects; got {value!r}")
    for eid, rec in outcomes.items():
        _check_record(f"outcomes[{eid!r}]", rec)
    return outcomes


@dataclass(frozen=True)
class MultiEngagementResult(_Payload):
    """Answer to a :class:`MultiEngagementRequest`.

    ``outcomes`` maps each engagement id to its full
    ``repro/protocol-result/v1`` record — the same records a solo run
    of that engagement emits, so everything downstream of a solo result
    works per engagement unchanged.  ``digest_value`` is the SHA-256 of
    the canonical ``{id: settlement_digest(outcome)}`` map: it pins
    *settlements only* (flow telemetry legitimately varies with the
    granting policy), which is how the differential suite asserts the
    arbiter path, the daemon and the serial reference executor agree
    byte-for-byte where it matters.
    """

    TYPE = "multi-engagement-result"

    outcomes: dict = _field({}, _check_outcomes, shape=dict)
    policy: str = _field("fifo", _check_choice, choices=_ARBITER_POLICIES)
    order: tuple = _field((), _check_ids, shape=list)
    completions: dict = _field({}, _check_numbers, shape=dict, minimum=0.0)
    digest_value: str = ""
    cached: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if sorted(self.order) != sorted(self.outcomes):
            _fail(f"order {list(self.order)} must be a permutation of the "
                  f"outcome ids {sorted(self.outcomes)}")
        expected = hashlib.sha256(canonical_json(
            {eid: settlement_digest(rec)
             for eid, rec in self.outcomes.items()}
        ).encode("ascii")).hexdigest()
        if not self.digest_value:
            object.__setattr__(self, "digest_value", expected)
        elif self.digest_value != expected:
            _fail("digest_value does not match the settlement map "
                  f"(expected {expected}, got {self.digest_value}) — "
                  "payload corrupted in transit?")

    @property
    def mean_flow_time(self) -> float:
        comps = list(self.completions.values())
        return sum(comps) / len(comps) if comps else 0.0

    @property
    def makespan(self) -> float:
        return max(self.completions.values()) if self.completions else 0.0

    def digest(self) -> str:  # the settlement map IS the identity
        return self.digest_value


def _check_stream_digest(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        _fail(f"{name} must be the run's stream digest (a hex string); "
              f"got {value!r}")
    return value


def _check_series(name: str, value) -> dict:
    """A JSON object of lists, keyed by strings."""
    return {str(k): list(_check_list(f"{name}[{k!r}]", v))
            for k, v in _check_object(name, value).items()}


@dataclass(frozen=True)
class MarketResult(_Payload):
    """Answer to a :class:`MarketRequest`.

    ``digest_value`` is the market's *stream digest*: the per-round
    records, folded through :class:`repro.sweep.spec.StreamDigest` in
    round order.  It is the result's identity — the same seeded run on
    any topology (direct call, daemon, fleet shard) must reproduce it
    bit-for-bit, which is what the market soak tier asserts.  The round
    records themselves are **not** carried on the wire (a million-round
    soak would not fit); the result keeps the digest plus the windowed
    ``series``, the final ``reputations``, and scalar ``summary``
    tallies — everything :mod:`repro.analysis.timeseries` consumes.
    ``cached`` is telemetry and excluded from the identity.
    """

    TYPE = "market-result"

    rounds: int = _field(0, _check_int, minimum=0)
    digest_value: str = _field("", _check_stream_digest)
    summary: dict = _field({}, _check_object, shape=dict)
    series: dict = _field({}, _check_series, shape=dict)
    reputations: dict = _field({}, _check_numbers, shape=dict, minimum=0.0,
                               maximum=1.0)
    cached: bool = False

    def digest(self) -> str:  # the round-stream digest IS the identity
        return self.digest_value


@dataclass(frozen=True)
class ServiceStats(_Payload):
    """Service-level counters (answer to a ``stats`` request)."""

    TYPE = "stats-result"

    requests: int = 0
    by_type: dict = _field({}, shape=dict)
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    expired: int = 0
    cache_hits: int = 0
    queue_depth: int = 0
    queue_capacity: int = 0
    in_flight: int = 0
    workers: int = 1
    pool_rebuilds: int = 0  # workers respawned after a death (wire name kept)
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    uptime: float = 0.0


def _check_daemons(name: str, value) -> tuple:
    daemons = _check_list(name, value)
    for pos, entry in enumerate(daemons):
        if not isinstance(entry, Mapping) or "endpoint" not in entry:
            _fail(f"daemons[{pos}] must be an object with an "
                  f"'endpoint'; got {entry!r}")
    return tuple(dict(d) for d in daemons)


@dataclass(frozen=True)
class FleetStatsResult(_Payload):
    """Aggregate view of a daemon fleet (answer to ``repro fleet``).

    ``daemons`` lists one entry per endpoint in shard order — the
    endpoint string, a ``healthy`` flag, and the daemon's own
    ``stats-result`` payload (``null`` when unreachable).
    ``dispatcher`` carries the router-side tallies (requests routed,
    failovers, cache peeks/hits, quarantine churn).
    """

    TYPE = "fleet-stats-result"

    daemons: tuple = _field((), _check_daemons, shape=list)
    dispatcher: dict = _field({}, _check_object, shape=dict)

    @property
    def healthy(self) -> int:
        return sum(1 for d in self.daemons if d.get("healthy"))


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------
#
# Parsing dispatch lives in :mod:`repro.api.registry`; importing this
# module registers every v1 value type.  Executors are attached by
# :mod:`repro.api.execute`, whose executors import the engine layers
# when first called, so parsing a payload never loads the engine.

for _request_cls in (EngagementRequest, MultiEngagementRequest,
                     SweepRequest, MarketRequest):
    _registry.register_request(_request_cls)
# A bench answer is a wall-clock measurement, not a value: replaying it
# from the digest-keyed result cache would defeat its purpose.
_registry.register_request(BenchRequest, cacheable=False)

for _result_cls in (EngagementResult, MultiEngagementResult, SweepResult,
                    BenchResult, MarketResult, ServiceStats,
                    FleetStatsResult):
    _registry.register_result(_result_cls)

#: Live views of the registry — late registrations show up here too.
REQUEST_TYPES: dict[str, type] = _registry.REQUEST_CLASSES
RESULT_TYPES: dict[str, type] = _registry.RESULT_CLASSES

parse_request = _registry.parse_request
parse_result = _registry.parse_result


def request_from_dict(data: Mapping[str, Any]):
    """Parse any v1 request payload (dispatch on its ``type`` tag)."""
    return _registry.parse_request(data)


def result_from_dict(data: Mapping[str, Any]):
    """Parse any v1 result payload (dispatch on its ``type`` tag)."""
    return _registry.parse_result(data)
