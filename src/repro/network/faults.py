"""Deterministic fault injection for the simulated bus.

The paper assumes a reliable atomic-broadcast bus and always-live
processors; :mod:`repro.network.bus` enforces exactly that.  This
module is the controlled breach of those assumptions: a declarative,
seed-reproducible :class:`FaultPlan` describes what goes wrong and
when, and :class:`FaultyBus` applies it while preserving the
event-queue determinism the golden tests rely on.

Fault catalogue
---------------
* **crash-stop** (:class:`CrashFault`) — an endpoint dies at entry to a
  protocol phase or at a simulated time and never speaks or listens
  again.  A processor crashing mid-Processing leaves part of its
  assignment unfinished (``progress``), which the protocol engine
  re-allocates over the survivors.
* **message faults** (:class:`MessageFault`) — drop, delay or
  duplicate *unicast* control messages matching a filter.  Atomic
  broadcast stays reliable (it is a property of the shared physical
  medium, per the paper); crash-stop is the only fault that silences a
  broadcast listener.  Probabilistic rules draw from the plan's seeded
  RNG in simulation order, so the same seed reproduces the same run
  bit-for-bit.
* **load-transfer stall** (:class:`StallFault`) — a bulk transfer
  occupies the one-port bus for longer than ``units * z``.
* **meter outage** (``FaultPlan.meter_outages``) — the tamper-proof
  meter of a processor is unreadable; the engine falls back to the
  bid-asserted execution value for that reading.

Determinism contract
--------------------
With an empty plan the wrapper is a strict no-op: ``FaultyBus`` rebinds
its transport methods to the base-class implementations, so message
logs, traffic stats and event schedules are byte-identical to a plain
:class:`~repro.network.bus.Bus`.  With a non-empty plan, every random
decision comes from ``random.Random(plan.seed)`` consumed in the
(deterministic) order the simulation asks, so a (plan, workload) pair
fully determines the run.

Engagement scoping
------------------
On a multiplexed bus each engagement carries its *own* plan
(``FaultyBus(z, plans={"A": plan_a, ...})``), and each plan's mutable
state — RNG stream, application budgets, crash set, phase marker — is
held in a private :class:`_PlanState` keyed by engagement id.  The
isolation is therefore structural, not behavioural: a rule targeting
engagement A literally cannot consume a draw from, or mark a crash in,
engagement B's state, so arming faults in one engagement leaves every
other engagement's traffic and RNG alignment untouched (the chaos
tests pin this).  The legacy ``plan=`` argument is engagement ``None``
— the root scope — with semantics unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

from repro.network.bus import Bus, LogEntry
from repro.network.events import EventQueue
from repro.network.messages import Message, MessageKind

if TYPE_CHECKING:  # the network layer stays import-independent of protocol/
    from repro.protocol.phases import Phase

__all__ = [
    "CrashFault",
    "MessageFault",
    "StallFault",
    "RefereeFault",
    "FaultPlan",
    "FaultRecord",
    "FaultyBus",
]

DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
_ACTIONS = (DROP, DELAY, DUPLICATE)

#: Referee-fault actions.  ``crash`` silences the member at the bus
#: level; ``drop``/``delay`` hit its quorum traffic; the remaining three
#: are *strategy* injections — the engine flips the named member to the
#: matching Byzantine behaviour from :mod:`repro.core.quorum`.
REFEREE_CRASH = "crash"
REFEREE_STRATEGY_ACTIONS = ("silent", "equivocate", "fine-steal")
_REFEREE_ACTIONS = (REFEREE_CRASH, DROP, DELAY) + REFEREE_STRATEGY_ACTIONS


@dataclass(frozen=True)
class CrashFault:
    """Crash-stop of one endpoint.

    Exactly one of ``phase`` / ``at_time`` should be given.  ``phase``
    kills the endpoint at entry to that protocol phase (a BIDDING crash
    is a silent bidder; an ALLOCATING_LOAD crash receives nothing and
    computes nothing).  ``at_time`` kills it at a simulated instant;
    the engine maps an instant inside the Processing window to a
    mid-Processing crash.  ``progress`` is the fraction of the assigned
    work completed before dying when the crash lands mid-Processing.
    """

    name: str
    phase: Phase | None = None
    at_time: float | None = None
    progress: float = 0.0

    def __post_init__(self) -> None:
        if (self.phase is None) == (self.at_time is None):
            raise ValueError("specify exactly one of phase / at_time")
        if not 0.0 <= self.progress <= 1.0:
            raise ValueError(f"progress must be in [0, 1], got {self.progress}")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError(f"at_time must be >= 0, got {self.at_time}")


@dataclass(frozen=True)
class MessageFault:
    """Drop / delay / duplicate unicast control messages.

    ``kind`` / ``sender`` / ``recipient`` are match filters (``None``
    matches anything; load transfers are never matched — stalls cover
    the data plane).  ``probability`` is evaluated per matching
    (message, recipient) pair against the plan's seeded RNG;
    ``max_applications`` bounds how often the rule fires (``None`` =
    unbounded).
    """

    action: str = DROP
    kind: MessageKind | None = None
    sender: str | None = None
    recipient: str | None = None
    probability: float = 1.0
    delay: float = 0.0
    max_applications: int | None = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"action must be one of {_ACTIONS}, got {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.action == DELAY and self.delay <= 0:
            raise ValueError("delay faults need delay > 0")

    def matches(self, msg: Message, recipient: str) -> bool:
        if msg.kind is MessageKind.LOAD:
            return False
        if self.kind is None and msg.kind.is_quorum_traffic:
            # Wildcard rules never touch committee-internal traffic:
            # arming a committee must not change which processor
            # messages a seeded plan hits (RNG-draw alignment).  Target
            # quorum kinds explicitly, or use a RefereeFault.
            return False
        if self.kind is not None and msg.kind is not self.kind:
            return False
        if self.sender is not None and msg.sender != self.sender:
            return False
        return self.recipient is None or recipient == self.recipient


@dataclass(frozen=True)
class StallFault:
    """Stretch matching load transfers on the one-port bus.

    The transfer occupies the port for ``units * z * factor +
    extra_time`` instead of ``units * z`` — a congested or flaky data
    path that slows the schedule without losing the blocks.
    """

    sender: str | None = None
    recipient: str | None = None
    factor: float = 1.0
    extra_time: float = 0.0

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.extra_time < 0.0:
            raise ValueError(f"extra_time must be >= 0, got {self.extra_time}")

    def matches(self, sender: str, recipient: str) -> bool:
        if self.sender is not None and sender != self.sender:
            return False
        return self.recipient is None or recipient == self.recipient


@dataclass(frozen=True)
class RefereeFault:
    """A fault targeting one referee-committee member.

    ``crash`` silences *member* at the bus from the start of the run —
    it neither proposes nor votes, and quorum traffic addressed to it is
    lost.  ``drop`` / ``delay`` hit the member's committee-internal
    traffic (proposals, votes, certificate announcements) in either
    direction, with the same probability/budget semantics as
    :class:`MessageFault`.  ``silent`` / ``equivocate`` / ``fine-steal``
    are strategy injections: the engine flips the member to the matching
    Byzantine behaviour before the run starts (the bus passes them
    through untouched).
    """

    member: str
    action: str = REFEREE_CRASH
    probability: float = 1.0
    delay: float = 0.0
    max_applications: int | None = None

    def __post_init__(self) -> None:
        if self.action not in _REFEREE_ACTIONS:
            raise ValueError(
                f"action must be one of {_REFEREE_ACTIONS}, got {self.action!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.action == DELAY and self.delay <= 0:
            raise ValueError("delay faults need delay > 0")

    @property
    def is_strategy(self) -> bool:
        return self.action in REFEREE_STRATEGY_ACTIONS

    def matches(self, msg: Message, recipient: str) -> bool:
        """Transport-level match: quorum traffic touching this member."""
        if self.action not in (DROP, DELAY):
            return False
        if not msg.kind.is_quorum_traffic:
            return False
        return msg.sender == self.member or recipient == self.member


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, declaratively.

    The plan is immutable and seed-reproducible; construct one per run
    (the :class:`FaultyBus` holds the mutable application state).
    """

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    messages: tuple[MessageFault, ...] = ()
    stalls: tuple[StallFault, ...] = ()
    meter_outages: tuple[str, ...] = ()
    referees: tuple[RefereeFault, ...] = ()

    def __post_init__(self) -> None:
        named = [c.name for c in self.crashes]
        if len(set(named)) != len(named):
            raise ValueError(f"multiple crash faults for one endpoint: {named}")

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing (strict no-op guarantee)."""
        return not (self.crashes or self.messages or self.stalls
                    or self.meter_outages or self.referees)

    def referee_strategies(self) -> dict[str, str]:
        """Member -> Byzantine strategy, for the engine to inject."""
        return {rf.member: rf.action for rf in self.referees
                if rf.is_strategy}

    def referee_crashes(self) -> tuple[str, ...]:
        return tuple(rf.member for rf in self.referees
                     if rf.action == REFEREE_CRASH)

    def crash_for(self, name: str) -> CrashFault | None:
        for c in self.crashes:
            if c.name == name:
                return c
        return None

    def meter_out(self, name: str) -> bool:
        return name in self.meter_outages


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault, for experiment accounting.

    ``engagement`` names the scope the fault landed in (``None`` for
    the root scope — the solo-engagement case).
    """

    time: float
    kind: str        # "drop" | "delay" | "duplicate" | "stall" | "crash" | "lost-to-crashed"
    detail: str
    engagement: str | None = None


class _PlanState:
    """Mutable application state of one engagement's fault plan.

    Everything a plan consumes or accumulates while executing — the
    seeded RNG stream, per-rule application budgets, the crash set and
    the current phase — lives here, one instance per engagement.  Two
    engagements therefore cannot perturb each other's RNG alignment or
    crash bookkeeping by construction.
    """

    __slots__ = ("plan", "rng", "crashed", "applications",
                 "referee_applications", "phase")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.crashed: set[str] = set()
        self.applications: dict[int, int] = {}
        self.referee_applications: dict[int, int] = {}
        self.phase: Phase | None = None


class FaultyBus(Bus):
    """A :class:`Bus` that executes one :class:`FaultPlan` per scope.

    Crashed endpoints stay attached (their traffic history remains
    addressable) but are deaf and mute: broadcasts skip them, unicasts
    to them are reported undelivered, messages *from* them are
    suppressed, and load shipped to them occupies the port but is lost.

    ``plan`` arms the root scope (the historical solo-engagement
    surface); ``plans`` maps engagement ids to their own plans for a
    multiplexed bus.  Scopes without a plan ride the reliable base-class
    path message by message.
    """

    def __init__(self, z: float, *, plan: FaultPlan | None = None,
                 queue: EventQueue | None = None,
                 plans: Mapping[str, FaultPlan] | None = None) -> None:
        super().__init__(z, queue=queue)
        self.plan = plan or FaultPlan()
        self.fault_log: list[FaultRecord] = []
        self._states: dict[str | None, _PlanState] = {}
        root = _PlanState(self.plan)
        self._states[None] = root
        for eid, scoped_plan in (plans or {}).items():
            if not eid:
                raise ValueError("engagement ids in plans must be non-empty")
            self._states[eid] = _PlanState(scoped_plan)
        # Root-state aliases: the historical single-engagement surface.
        self._rng = root.rng
        self._crashed = root.crashed
        self._applications = root.applications
        self._referee_applications = root.referee_applications
        # Referee-member crashes take effect before any phase: a crashed
        # committee member never proposes or votes in any round.
        for eid, state in self._states.items():
            for name in state.plan.referee_crashes():
                self._mark_crashed(name, state, eid)
        if all(state.plan.empty for state in self._states.values()):
            # Strict no-op when disabled: rebind the hot-path methods to
            # the base implementations so the wrapper costs one extra
            # instance-dict lookup, nothing more.
            base = super()
            self.broadcast = base.broadcast          # type: ignore[method-assign]
            self.send = base.send                    # type: ignore[method-assign]
            self.transfer_load = base.transfer_load  # type: ignore[method-assign]

    def _state(self, engagement: str | None) -> _PlanState | None:
        return self._states.get(engagement)

    def plan_for(self, engagement: str | None) -> FaultPlan:
        """The fault plan armed for one engagement (empty if none)."""
        state = self._states.get(engagement)
        return state.plan if state is not None else FaultPlan()

    # -- crash bookkeeping ---------------------------------------------------

    def enter_phase(self, phase: Phase, *,
                    engagement: str | None = None) -> None:
        """Activate crash faults whose trigger phase has been reached
        (in *engagement*'s plan only — other scopes are untouched)."""
        state = self._states.get(engagement)
        if state is None:
            return
        state.phase = phase
        for c in state.plan.crashes:
            if c.phase is not None and c.phase.value <= phase.value:
                self._mark_crashed(c.name, state, engagement)

    def _mark_crashed(self, name: str, state: _PlanState,
                      engagement: str | None) -> None:
        if name not in state.crashed:
            state.crashed.add(name)
            self.fault_log.append(FaultRecord(self.queue.now, "crash", name,
                                              engagement))
            # In-flight deliveries die with the endpoint; the other
            # addressees of each are unaffected.  Only this engagement's
            # scope is touched — the same name in another engagement
            # lives on.
            scope = self._scope(engagement)
            for entry in scope.pending.pop(name, ()):
                entry.drop(name)

    def _check_timed_crashes(self, state: _PlanState,
                             engagement: str | None) -> None:
        for c in state.plan.crashes:
            if c.at_time is not None and self.queue.now >= c.at_time:
                self._mark_crashed(c.name, state, engagement)

    def is_crashed(self, name: str, *, engagement: str | None = None) -> bool:
        state = self._states.get(engagement)
        if state is None:
            return False
        self._check_timed_crashes(state, engagement)
        return name in state.crashed

    @property
    def crashed(self) -> tuple[str, ...]:
        return tuple(sorted(self._crashed))

    def crashed_for(self, engagement: str | None) -> tuple[str, ...]:
        state = self._states.get(engagement)
        return tuple(sorted(state.crashed)) if state is not None else ()

    # -- faulty control plane ------------------------------------------------

    def broadcast(self, msg: Message) -> None:
        """Atomic broadcast; only crash-stop can silence a listener.

        A crashed sender's broadcast never reaches the medium; crashed
        listeners are deaf to the entry, and each writes one
        ``lost-to-crashed`` record, in membership order.
        """
        state = self._states.get(msg.engagement)
        if state is None or state.plan.empty:
            return Bus.broadcast(self, msg)
        if not msg.is_broadcast:
            raise ValueError("broadcast() requires recipients == ('*',)")
        scope = self._scope(msg.engagement)
        self._require_sender(msg.sender, scope)
        self._check_timed_crashes(state, msg.engagement)
        if msg.sender in state.crashed:
            self.fault_log.append(FaultRecord(
                self.queue.now, "lost-to-crashed",
                f"broadcast from {msg.sender}", msg.engagement))
            return
        self._record(msg, scope)
        sender = msg.sender
        crashed = state.crashed
        members = self._members(scope)
        deaf = [sender]
        if crashed:
            for name in members:
                if name != sender and name in crashed:
                    deaf.append(name)
                    self.fault_log.append(FaultRecord(
                        self.queue.now, "lost-to-crashed",
                        f"{msg.kind.value}->{name}", msg.engagement))
        scope.medium.append(LogEntry(msg, self.queue.now, members, deaf))

    def send(self, msg: Message) -> tuple[str, ...]:
        """Unicast with the plan's drop/delay/duplicate rules applied.

        Returns the recipients delivered *now*; delayed recipients will
        still hear the message later but are reported undelivered, which
        is what triggers the engine's retry path (a late original plus a
        retransmission is harmless — agents de-duplicate payloads).
        """
        state = self._states.get(msg.engagement)
        if state is None or state.plan.empty:
            return Bus.send(self, msg)
        if msg.is_broadcast:
            raise ValueError("use broadcast() for '*' recipients")
        scope = self._scope(msg.engagement)
        missing = [r for r in msg.recipients if r not in scope.endpoints]
        if missing:
            raise KeyError(f"unknown recipients {missing}; "
                           f"attached: {tuple(scope.endpoints)}")
        self._require_sender(msg.sender, scope)
        self._check_timed_crashes(state, msg.engagement)
        if msg.sender in state.crashed:
            self.fault_log.append(FaultRecord(
                self.queue.now, "lost-to-crashed",
                f"send from {msg.sender}", msg.engagement))
            return ()
        self._record(msg, scope)
        delivered: list[str] = []
        delayed: dict[float, list[str]] = {}
        for r in msg.recipients:
            if r in state.crashed:
                self.fault_log.append(FaultRecord(
                    self.queue.now, "lost-to-crashed",
                    f"{msg.kind.value}->{r}", msg.engagement))
                continue
            fate = self._fate(msg, r, state)
            if fate is None or fate.action == DUPLICATE:
                scope.endpoints[r](msg)
                delivered.append(r)
                if fate is not None:
                    scope.endpoints[r](msg)
                    self.fault_log.append(FaultRecord(
                        self.queue.now, DUPLICATE, f"{msg.kind.value}->{r}",
                        msg.engagement))
            elif fate.action == DROP:
                self.fault_log.append(FaultRecord(
                    self.queue.now, DROP, f"{msg.kind.value}->{r}",
                    msg.engagement))
            else:  # DELAY
                delayed.setdefault(fate.delay, []).append(r)
                self.fault_log.append(FaultRecord(
                    self.queue.now, DELAY, f"{msg.kind.value}->{r} "
                    f"+{fate.delay:g}", msg.engagement))
        # Recipients sharing a delay ride one deferred entry.  Fates were
        # already decided (and logged) above in recipient order, so the
        # RNG draw sequence and fault-log order are unchanged; delivery
        # order within a group matches the old per-recipient seq order.
        for delay, group in delayed.items():
            recipients = tuple(group)
            copy = replace(msg, recipients=recipients)
            self._deliver_at(self.queue.now + delay, recipients, copy, scope,
                             label=f"delayed-{msg.kind.value}->{','.join(group)}")
        return tuple(delivered)

    def _fate(self, msg: Message, recipient: str,
              state: _PlanState) -> MessageFault | None:
        """First applicable message fault for this (message, recipient).

        The RNG is consumed for every probabilistic rule that *matches*,
        whether or not it fires, so the draw sequence depends only on
        the message schedule — the determinism the golden tests demand.
        Each engagement's state carries its own RNG stream, so matching
        here can never perturb another engagement's draw sequence.
        """
        for idx, rule in enumerate(state.plan.messages):
            if not rule.matches(msg, recipient):
                continue
            used = state.applications.get(idx, 0)
            if rule.max_applications is not None and used >= rule.max_applications:
                continue
            fires = rule.probability >= 1.0 or state.rng.random() < rule.probability
            if fires:
                state.applications[idx] = used + 1
                return rule
        # Referee-targeted transport rules only ever match quorum
        # traffic, so their RNG draws cannot perturb processor-facing
        # fault sequences under a shared seed.
        for idx, ref_rule in enumerate(state.plan.referees):
            if not ref_rule.matches(msg, recipient):
                continue
            used = state.referee_applications.get(idx, 0)
            if (ref_rule.max_applications is not None
                    and used >= ref_rule.max_applications):
                continue
            fires = (ref_rule.probability >= 1.0
                     or state.rng.random() < ref_rule.probability)
            if fires:
                state.referee_applications[idx] = used + 1
                return MessageFault(action=ref_rule.action, kind=msg.kind,
                                    delay=ref_rule.delay)
        return None

    # -- faulty data plane ---------------------------------------------------

    def transfer_load(self, sender: str, recipient: str, units: float, body,
                      *, engagement: str | None = None) -> float:
        """One-port transfer with stalls applied; lost if the recipient died."""
        state = self._states.get(engagement)
        if state is None or state.plan.empty:
            return Bus.transfer_load(self, sender, recipient, units, body,
                                     engagement=engagement)
        if units < 0:
            raise ValueError(f"units must be non-negative, got {units}")
        scope = self._scope(engagement)
        if recipient not in scope.endpoints:
            raise KeyError(f"unknown recipient {recipient!r}")
        self._require_sender(sender, scope)
        self._check_timed_crashes(state, engagement)
        duration = units * self.z
        for stall in state.plan.stalls:
            if stall.matches(sender, recipient):
                stalled = duration * stall.factor + stall.extra_time
                self.fault_log.append(FaultRecord(
                    self.queue.now, "stall",
                    f"load {sender}->{recipient} {duration:g}->{stalled:g}",
                    engagement))
                duration = stalled
                break
        start = max(self._port_free_at, self.queue.now)
        done = start + duration
        self._port_free_at = done
        msg = Message(MessageKind.LOAD, sender, (recipient,), body,
                      size_bytes=max(1, int(round(units * 1024))),
                      engagement=engagement)
        self._record(msg, scope)
        if recipient in state.crashed:
            self.fault_log.append(FaultRecord(
                self.queue.now, "lost-to-crashed", f"load->{recipient}",
                engagement))
        else:
            self._deliver_at(done, (recipient,), msg, scope,
                             label=f"load->{recipient}")
        return done

    # -- accounting ----------------------------------------------------------

    def fault_counts(self, *, engagement: str | None = ...) -> dict[str, int]:
        """Applied-fault tally by kind (drops, delays, stalls, ...).

        By default counts every scope's records (the historical solo
        behaviour, where there is only the root scope); pass
        ``engagement=`` (including ``None`` for the root) to tally one
        scope alone.
        """
        counts: dict[str, int] = {}
        for rec in self.fault_log:
            if engagement is not ... and rec.engagement != engagement:
                continue
            counts[rec.kind] = counts.get(rec.kind, 0) + 1
        return counts
