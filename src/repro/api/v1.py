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
* ``to_dict`` / ``from_dict`` round-trip exactly: every field is plain
  JSON data, defaults are materialized, and ``from_dict`` rejects
  unknown keys — a v2 field can never be silently dropped by a v1
  parser.
* Validation happens at construction and raises :class:`ApiError` with
  an actionable message (what was wrong, what would be accepted).
* ``digest()`` of a request is its canonical identity: the SHA-256 of
  the canonical-JSON encoding of ``to_dict()``.  The service's
  cross-request result cache and the golden fixtures both key on it.
* Schema evolution is additive-with-defaults within v1; anything else
  ships as ``repro/api/v2`` beside (not instead of) v1, with v1
  parsing kept alive for one deprecation cycle (see DESIGN.md §4.9).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.api import registry as _registry
from repro.sweep.spec import PLAN_FORMAT, SweepPlan, canonical_json

__all__ = [
    "SCHEMA",
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

#: Fields of a protocol-result record that constitute the *settlement*
#: — what the mechanism decided — as opposed to operational telemetry
#: (traffic counters, trace spans).  The canonical digest of a served
#: engagement covers exactly these, so a result computed on a warm
#: worker with long-lived caches digests identically to a cold direct
#: call: caches change counters, never settlements.
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
# validation helpers
# ---------------------------------------------------------------------------

def _fail(message: str) -> None:
    raise ApiError(message)


def _check_number(name: str, value, *, minimum=None, maximum=None,
                  exclusive_min=False, exclusive_max=False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
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


def _check_int(name: str, value, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            _fail(f"{name} must be an integer; got {value!r}")
        if not isinstance(value, float) or as_int != value:
            _fail(f"{name} must be an integer; got {value!r}")
        value = as_int
    if minimum is not None and value < minimum:
        _fail(f"{name} must be >= {minimum}; got {value}")
    return int(value)


def _check_choice(name: str, value, choices) -> str:
    if value not in choices:
        _fail(f"{name} must be one of {list(choices)}; got {value!r}")
    return value


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
    valid = {f.name for f in fields(cls)}
    unknown = sorted(set(body) - valid)
    if unknown:
        _fail(f"unknown {expected_type} field(s) {unknown}; "
              f"valid fields: {sorted(valid)}")
    return body


def _tagged(kind: str, body: dict) -> dict:
    return {"schema": SCHEMA, "type": kind, **body}


class _Payload:
    """Shared canonical-encoding plumbing for every v1 value type."""

    TYPE = ""  # overridden

    def to_dict(self) -> dict:
        raise NotImplementedError

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

    w: tuple[float, ...] = ()
    z: float = 0.0
    kind: str = "ncp-fe"
    num_blocks: int = 120
    bidding_mode: str = "atomic"
    fine_factor: float = 2.0
    redundancy: str = "memoized"
    deviants: tuple[tuple[int, str], ...] = ()
    crash: tuple[tuple[int, float], ...] = ()
    drop_rate: float = 0.0
    seed: int | None = None
    pki_seed: int | None = None
    committee: int = 0
    byzantine: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.w, (list, tuple)) or len(self.w) < 2:
            _fail("w must list at least 2 per-unit processing times; "
                  f"got {self.w!r}")
        w = tuple(_check_number(f"w[{i}]", x, minimum=0.0, exclusive_min=True)
                  for i, x in enumerate(self.w))
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", _check_number(
            "z", self.z, minimum=0.0, exclusive_min=True))
        if self.kind == "cp":
            _fail("kind 'cp' has a trusted control processor — engagements "
                  "run the distributed protocol; use the `mechanism` "
                  "subcommand / repro.core.DLSBL for the CP system, or one "
                  f"of {list(_ENGAGEMENT_KINDS)}")
        _check_choice("kind", self.kind, _ENGAGEMENT_KINDS)
        object.__setattr__(self, "num_blocks", _check_int(
            "num_blocks", self.num_blocks, minimum=1))
        _check_choice("bidding_mode", self.bidding_mode, _BIDDING_MODES)
        _check_choice("redundancy", self.redundancy, _REDUNDANCY_MODES)
        object.__setattr__(self, "fine_factor", _check_number(
            "fine_factor", self.fine_factor, minimum=0.0, exclusive_min=True))
        object.__setattr__(self, "drop_rate", _check_number(
            "drop_rate", self.drop_rate, minimum=0.0, maximum=1.0,
            exclusive_max=True))

        from repro.agents.behaviors import Deviation

        valid_devs = sorted(d.value for d in Deviation)
        deviants = []
        for entry in self.deviants:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                _fail(f"each deviants entry must be [index, name]; "
                      f"got {entry!r}")
            idx = _check_int("deviants index", entry[0], minimum=0)
            if idx >= len(w):
                _fail(f"deviants index {idx} out of range for "
                      f"{len(w)} processors")
            if entry[1] not in valid_devs:
                _fail(f"unknown deviation {entry[1]!r}; "
                      f"choose from {valid_devs}")
            deviants.append((idx, str(entry[1])))
        object.__setattr__(self, "deviants", tuple(deviants))

        crash = []
        for entry in self.crash:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                _fail(f"each crash entry must be [index, progress]; "
                      f"got {entry!r}")
            idx = _check_int("crash index", entry[0], minimum=0)
            if idx >= len(w):
                _fail(f"crash index {idx} out of range for "
                      f"{len(w)} processors")
            progress = _check_number("crash progress", entry[1],
                                     minimum=0.0, maximum=1.0)
            crash.append((idx, progress))
        object.__setattr__(self, "crash", tuple(crash))
        if self.seed is not None:
            object.__setattr__(self, "seed", _check_int("seed", self.seed))
        if self.pki_seed is not None:
            object.__setattr__(self, "pki_seed",
                               _check_int("pki_seed", self.pki_seed))

        object.__setattr__(self, "committee", _check_int(
            "committee", self.committee, minimum=0))
        from repro.core.quorum import BYZANTINE_STRATEGIES, tolerated_faults

        if self.byzantine and not self.committee:
            _fail("byzantine referees need a committee; set committee >= 1")
        byzantine = []
        for entry in self.byzantine:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                _fail(f"each byzantine entry must be [seat, strategy]; "
                      f"got {entry!r}")
            seat = _check_int("byzantine seat", entry[0], minimum=0)
            if seat >= self.committee:
                _fail(f"byzantine seat {seat} out of range for a "
                      f"{self.committee}-member committee")
            if entry[1] not in BYZANTINE_STRATEGIES:
                _fail(f"unknown referee strategy {entry[1]!r}; "
                      f"choose from {list(BYZANTINE_STRATEGIES)}")
            byzantine.append((seat, str(entry[1])))
        if len({s for s, _ in byzantine}) != len(byzantine):
            _fail("byzantine seats must be distinct; "
                  f"got {[s for s, _ in byzantine]}")
        limit = tolerated_faults(self.committee)
        if len(byzantine) > limit:
            _fail(f"a {self.committee}-member committee tolerates at most "
                  f"{limit} Byzantine member(s) (f = (N-1)//3); "
                  f"got {len(byzantine)}")
        object.__setattr__(self, "byzantine", tuple(byzantine))

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "w": list(self.w),
            "z": self.z,
            "kind": self.kind,
            "num_blocks": self.num_blocks,
            "bidding_mode": self.bidding_mode,
            "fine_factor": self.fine_factor,
            "redundancy": self.redundancy,
            "deviants": [list(d) for d in self.deviants],
            "crash": [list(c) for c in self.crash],
            "drop_rate": self.drop_rate,
            "seed": self.seed,
            "pki_seed": self.pki_seed,
            # Sparse: omitted at defaults so pre-committee payloads and
            # digests are byte-identical to earlier v1 emissions.
            **({"committee": self.committee} if self.committee else {}),
            **({"byzantine": [list(b) for b in self.byzantine]}
               if self.byzantine else {}),
        })

    def engine_config(self, *, memo=None, signature_cache=None):
        """The :class:`repro.core.dls_bl_ncp.EngineConfig` this request
        describes (optionally wired to a host's long-lived caches)."""
        from repro.agents.behaviors import AgentBehavior, Deviation
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
            memo=memo if self.redundancy == "memoized" else None,
            signature_cache=signature_cache,
            committee=committee,
        )


@dataclass(frozen=True)
class SweepRequest(_Payload):
    """A sweep plan (``repro/sweep-plan/v1`` payload) plus execution
    options the server may honour (``workers``)."""

    TYPE = "sweep"

    plan: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "workers",
                           _check_int("workers", self.workers, minimum=1))
        if not isinstance(self.plan, Mapping):
            _fail(f"plan must be a {PLAN_FORMAT} JSON object; "
                  f"got {type(self.plan).__name__}")
        try:
            self.build_plan()
        except ValueError as exc:
            _fail(f"plan is not a valid {PLAN_FORMAT} payload: {exc}")

    def build_plan(self) -> SweepPlan:
        """Parse the embedded plan into a :class:`SweepPlan`."""
        return SweepPlan.from_dict(self.plan)

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "plan": dict(self.plan),
            "workers": self.workers,
        })


@dataclass(frozen=True)
class BenchRequest(_Payload):
    """One pass of the perf kernels (no regression gate, no report
    file — a measurement, so the service never caches it)."""

    TYPE = "bench"

    quick: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.quick, bool):
            _fail(f"quick must be true or false; got {self.quick!r}")
        object.__setattr__(self, "workers",
                           _check_int("workers", self.workers, minimum=1))

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "quick": self.quick,
            "workers": self.workers,
        })


_ARBITER_POLICIES = ("fifo", "sjf", "rr")


@dataclass(frozen=True)
class MultiEngagementRequest(_Payload):
    """K engagements multiplexed over one shared bus, as plain data.

    ``engagements`` is a tuple of complete :class:`EngagementRequest`
    payloads (each with its own schema/type envelope — the sub-payloads
    are first-class v1 values, so a client can promote a solo request
    into a multi-engagement one by wrapping it unchanged).  All entries
    must share ``z``: engagements contending for one physical bus share
    its per-unit communication time by definition.  ``policy`` selects
    the bus-window granting discipline
    (:data:`repro.protocol.arbiter.POLICIES`).

    Engagement ids are assigned deterministically — ``E1 .. EK`` in
    submission order — so the same payload always produces the same
    result keys (and therefore the same digests).
    """

    TYPE = "multi-engagement"

    engagements: tuple = ()
    policy: str = "fifo"

    def __post_init__(self) -> None:
        _check_choice("policy", self.policy, _ARBITER_POLICIES)
        if not isinstance(self.engagements, (list, tuple)) \
                or not self.engagements:
            _fail("engagements must list at least 1 engagement payload; "
                  f"got {self.engagements!r}")
        parsed = []
        for pos, entry in enumerate(self.engagements):
            if not isinstance(entry, Mapping):
                _fail(f"engagements[{pos}] must be an engagement payload "
                      f"object; got {type(entry).__name__}")
            try:
                parsed.append(EngagementRequest.from_dict(entry))
            except ApiError as exc:
                _fail(f"engagements[{pos}]: {exc}")
        z0 = parsed[0].z
        for pos, sub in enumerate(parsed[1:], start=1):
            if abs(sub.z - z0) > 1e-12:
                _fail(f"engagements sharing a bus share its z; "
                      f"engagements[0].z = {z0} but "
                      f"engagements[{pos}].z = {sub.z}")
        object.__setattr__(self, "engagements",
                           tuple(dict(e) for e in self.engagements))

    @property
    def z(self) -> float:
        return float(self.engagements[0]["z"])

    @property
    def engagement_ids(self) -> tuple[str, ...]:
        return tuple(f"E{i + 1}" for i in range(len(self.engagements)))

    def sub_requests(self) -> tuple[EngagementRequest, ...]:
        """The embedded engagements, parsed."""
        return tuple(EngagementRequest.from_dict(e)
                     for e in self.engagements)

    def jobs(self, *, memo=None, signature_cache=None) -> tuple:
        """The :class:`repro.protocol.arbiter.EngagementJob` tuple this
        request describes (optionally wired to a host's caches)."""
        from repro.dlt.platform import NetworkKind
        from repro.protocol.arbiter import EngagementJob

        return tuple(
            EngagementJob(
                engagement_id=eid,
                w=sub.w,
                kind=NetworkKind(sub.kind),
                config=sub.engine_config(memo=memo,
                                         signature_cache=signature_cache))
            for eid, sub in zip(self.engagement_ids, self.sub_requests()))

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "engagements": [dict(e) for e in self.engagements],
            "policy": self.policy,
        })


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

    rounds: int = 100
    seed: int = 0
    z: float = 0.4
    kind: str = "ncp-fe"
    num_blocks: int = 16
    fine_factor: float = 2.0
    processors: int = 6
    cohort: int = 3
    w_low: float = 1.5
    w_high: float = 6.0
    arrival_rate: float = 2.0
    contention_window: float = 0.0
    max_contention: int = 3
    policy: str = "fifo"
    join_rate: float = 0.0
    leave_rate: float = 0.0
    deviants: tuple[tuple[int, str], ...] = ()
    reputation_decay: float = 0.8
    admission_floor: float = 0.2
    window: int = 25

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds",
                           _check_int("rounds", self.rounds, minimum=1))
        object.__setattr__(self, "seed", _check_int("seed", self.seed))
        object.__setattr__(self, "z", _check_number(
            "z", self.z, minimum=0.0, exclusive_min=True))
        _check_choice("kind", self.kind, _ENGAGEMENT_KINDS)
        object.__setattr__(self, "num_blocks", _check_int(
            "num_blocks", self.num_blocks, minimum=1))
        object.__setattr__(self, "fine_factor", _check_number(
            "fine_factor", self.fine_factor, minimum=0.0,
            exclusive_min=True))
        object.__setattr__(self, "processors", _check_int(
            "processors", self.processors, minimum=2))
        object.__setattr__(self, "cohort",
                           _check_int("cohort", self.cohort, minimum=2))
        if self.cohort > self.processors:
            _fail(f"cohort must be <= processors; got cohort={self.cohort} "
                  f"with processors={self.processors}")
        object.__setattr__(self, "w_low", _check_number(
            "w_low", self.w_low, minimum=0.0, exclusive_min=True))
        object.__setattr__(self, "w_high", _check_number(
            "w_high", self.w_high, minimum=self.w_low))
        object.__setattr__(self, "arrival_rate", _check_number(
            "arrival_rate", self.arrival_rate, minimum=0.0,
            exclusive_min=True))
        object.__setattr__(self, "contention_window", _check_number(
            "contention_window", self.contention_window, minimum=0.0))
        object.__setattr__(self, "max_contention", _check_int(
            "max_contention", self.max_contention, minimum=1))
        _check_choice("policy", self.policy, _ARBITER_POLICIES)
        object.__setattr__(self, "join_rate", _check_number(
            "join_rate", self.join_rate, minimum=0.0, maximum=1.0))
        object.__setattr__(self, "leave_rate", _check_number(
            "leave_rate", self.leave_rate, minimum=0.0, maximum=1.0))

        from repro.agents.behaviors import Deviation

        valid_devs = sorted(d.value for d in Deviation)
        deviants = []
        for entry in self.deviants:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                _fail(f"each deviants entry must be [index, name]; "
                      f"got {entry!r}")
            idx = _check_int("deviants index", entry[0], minimum=0)
            if idx >= self.processors:
                _fail(f"deviants index {idx} out of range for "
                      f"{self.processors} processors")
            if entry[1] not in valid_devs:
                _fail(f"unknown deviation {entry[1]!r}; "
                      f"choose from {valid_devs}")
            deviants.append((idx, str(entry[1])))
        object.__setattr__(self, "deviants", tuple(deviants))
        if len({i for i, _ in deviants}) >= self.processors:
            _fail("deviants cannot cover the whole founding population; "
                  "leave at least one honest processor")

        object.__setattr__(self, "reputation_decay", _check_number(
            "reputation_decay", self.reputation_decay,
            minimum=0.0, maximum=1.0))
        object.__setattr__(self, "admission_floor", _check_number(
            "admission_floor", self.admission_floor,
            minimum=0.0, maximum=1.0, exclusive_max=True))
        object.__setattr__(self, "window",
                           _check_int("window", self.window, minimum=1))

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "rounds": self.rounds,
            "seed": self.seed,
            "z": self.z,
            "kind": self.kind,
            "num_blocks": self.num_blocks,
            "fine_factor": self.fine_factor,
            "processors": self.processors,
            "cohort": self.cohort,
            "w_low": self.w_low,
            "w_high": self.w_high,
            "arrival_rate": self.arrival_rate,
            "contention_window": self.contention_window,
            "max_contention": self.max_contention,
            "policy": self.policy,
            "join_rate": self.join_rate,
            "leave_rate": self.leave_rate,
            "deviants": [list(d) for d in self.deviants],
            "reputation_decay": self.reputation_decay,
            "admission_floor": self.admission_floor,
            "window": self.window,
        })


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

    outcome: dict = field(default_factory=dict)
    digest_value: str = ""
    cached: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.outcome, Mapping):
            _fail("outcome must be a repro/protocol-result/v1 object; "
                  f"got {type(self.outcome).__name__}")
        fmt = self.outcome.get("format")
        if fmt != "repro/protocol-result/v1":
            _fail(f"outcome.format must be 'repro/protocol-result/v1'; "
                  f"got {fmt!r}")
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

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "outcome": dict(self.outcome),
            "digest_value": self.digest_value,
            "cached": self.cached,
        })


@dataclass(frozen=True)
class SweepResult(_Payload):
    """Answer to a :class:`SweepRequest`.

    ``records`` and ``digest_value`` follow the sweep engine's
    determinism contract (byte-identical to the serial reference loop);
    ``telemetry`` carries the operational extras (shards, traffic,
    phases, restarts) excluded from the digest.
    """

    TYPE = "sweep-result"

    records: tuple = ()
    digest_value: str = ""
    workers: int = 1
    telemetry: dict = field(default_factory=dict)
    cached: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
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

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "records": list(self.records),
            "digest_value": self.digest_value,
            "workers": self.workers,
            "telemetry": dict(self.telemetry),
            "cached": self.cached,
        })


@dataclass(frozen=True)
class BenchResult(_Payload):
    """Answer to a :class:`BenchRequest`: kernel → best-of-N seconds."""

    TYPE = "bench-result"

    timings: dict = field(default_factory=dict)
    quick: bool = True
    cached: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.timings, Mapping):
            _fail(f"timings must map kernel names to seconds; "
                  f"got {type(self.timings).__name__}")
        object.__setattr__(
            self, "timings",
            {str(k): float(v) for k, v in self.timings.items()})

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "timings": dict(self.timings),
            "quick": self.quick,
            "cached": self.cached,
        })


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

    outcomes: dict = field(default_factory=dict)
    policy: str = "fifo"
    order: tuple = ()
    completions: dict = field(default_factory=dict)
    digest_value: str = ""
    cached: bool = False

    def __post_init__(self) -> None:
        _check_choice("policy", self.policy, _ARBITER_POLICIES)
        if not isinstance(self.outcomes, Mapping) or not self.outcomes:
            _fail("outcomes must map engagement ids to "
                  "repro/protocol-result/v1 objects; got "
                  f"{self.outcomes!r}")
        for eid, rec in self.outcomes.items():
            if not isinstance(rec, Mapping) \
                    or rec.get("format") != "repro/protocol-result/v1":
                _fail(f"outcomes[{eid!r}] must be a "
                      "repro/protocol-result/v1 object")
        object.__setattr__(self, "outcomes", dict(self.outcomes))
        object.__setattr__(self, "order",
                           tuple(str(x) for x in self.order))
        if sorted(self.order) != sorted(self.outcomes):
            _fail(f"order {list(self.order)} must be a permutation of the "
                  f"outcome ids {sorted(self.outcomes)}")
        object.__setattr__(
            self, "completions",
            {str(k): _check_number(f"completions[{k!r}]", v, minimum=0.0)
             for k, v in dict(self.completions).items()})
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

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "outcomes": {eid: dict(rec)
                         for eid, rec in self.outcomes.items()},
            "policy": self.policy,
            "order": list(self.order),
            "completions": dict(self.completions),
            "digest_value": self.digest_value,
            "cached": self.cached,
        })


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

    rounds: int = 0
    digest_value: str = ""
    summary: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    reputations: dict = field(default_factory=dict)
    cached: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounds",
                           _check_int("rounds", self.rounds, minimum=0))
        if not isinstance(self.digest_value, str) or not self.digest_value:
            _fail("digest_value must be the run's stream digest "
                  f"(a hex string); got {self.digest_value!r}")
        if not isinstance(self.summary, Mapping):
            _fail(f"summary must be an object; got {self.summary!r}")
        object.__setattr__(self, "summary", dict(self.summary))
        if not isinstance(self.series, Mapping):
            _fail(f"series must map series names to value lists; "
                  f"got {self.series!r}")
        series = {}
        for name, values in self.series.items():
            if not isinstance(values, (list, tuple)):
                _fail(f"series[{name!r}] must be a list; got {values!r}")
            series[str(name)] = list(values)
        object.__setattr__(self, "series", series)
        if not isinstance(self.reputations, Mapping):
            _fail(f"reputations must map processor ids to scores; "
                  f"got {self.reputations!r}")
        object.__setattr__(
            self, "reputations",
            {str(k): _check_number(f"reputations[{k!r}]", v, minimum=0.0,
                                   maximum=1.0)
             for k, v in dict(self.reputations).items()})

    def digest(self) -> str:  # the round-stream digest IS the identity
        return self.digest_value

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "rounds": self.rounds,
            "digest_value": self.digest_value,
            "summary": dict(self.summary),
            "series": {k: list(v) for k, v in self.series.items()},
            "reputations": dict(self.reputations),
            "cached": self.cached,
        })


@dataclass(frozen=True)
class ServiceStats(_Payload):
    """Service-level counters (answer to a ``stats`` request)."""

    TYPE = "stats-result"

    requests: int = 0
    by_type: dict = field(default_factory=dict)
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

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "requests": self.requests,
            "by_type": dict(self.by_type),
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "expired": self.expired,
            "cache_hits": self.cache_hits,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "in_flight": self.in_flight,
            "workers": self.workers,
            "pool_rebuilds": self.pool_rebuilds,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "uptime": self.uptime,
        })


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

    daemons: tuple = ()
    dispatcher: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.daemons, (list, tuple)):
            _fail(f"daemons must be a list; got {self.daemons!r}")
        for pos, entry in enumerate(self.daemons):
            if not isinstance(entry, Mapping) or "endpoint" not in entry:
                _fail(f"daemons[{pos}] must be an object with an "
                      f"'endpoint'; got {entry!r}")
        object.__setattr__(self, "daemons",
                           tuple(dict(d) for d in self.daemons))
        if not isinstance(self.dispatcher, Mapping):
            _fail(f"dispatcher must be an object; got {self.dispatcher!r}")
        object.__setattr__(self, "dispatcher", dict(self.dispatcher))

    @property
    def healthy(self) -> int:
        return sum(1 for d in self.daemons if d.get("healthy"))

    def to_dict(self) -> dict:
        return _tagged(self.TYPE, {
            "daemons": [dict(d) for d in self.daemons],
            "dispatcher": dict(self.dispatcher),
        })


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------
#
# Parsing dispatch lives in :mod:`repro.api.registry`; importing this
# module registers every v1 value type.  Executors are attached by
# :mod:`repro.api.execute` when it is imported — two-phase by design,
# so parsing a payload never drags the engine layers in.

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
