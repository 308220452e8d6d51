"""The shared bus: atomic broadcast, unicast, one-port load transfers.

Transport-level guarantees (all assumed by the paper and therefore
enforced here rather than attackable):

* **reliable & atomic broadcast** — a broadcast is *one* transmission
  on the shared medium that every registered endpoint hears: one
  :class:`LogEntry` on the scope's medium, carrying the exact bytes the
  sender put on the wire (a cheater cannot send different "broadcasts"
  to different peers; to equivocate it must issue two broadcasts, which
  produces two signed artifacts — exactly the evidence the referee
  accepts);
* **tamper-proof transport** — messages are delivered unmodified and
  attributed to the actual sending endpoint;
* **one-port load transfers** — bulk load occupies the bus exclusively
  for ``units * z`` time; control messages are treated as instantaneous
  (their cost is *accounted*, per Thm 5.4, but does not occupy the data
  path — the paper's complexity analysis likewise counts rather than
  schedules them).

Every message is appended to an ordered log with per-kind counters so
experiments can report messages × bytes by phase and by kind.

The broadcast medium
--------------------
A broadcast calls no endpoint handler.  It appends one
:class:`LogEntry` to its scope's :attr:`Bus.medium` — the message, its
delivery time, and who heard it (the scope's membership snapshot minus
the sender and, on a :class:`~repro.network.faults.FaultyBus`, any
crash-stopped endpoint).  Listeners read the medium when they need to,
so an ``m``-party bid exchange costs ``m`` entries rather than
``m(m-1)`` handler calls.  Point-to-point traffic — unicasts, and the
deferred deliveries of load transfers and delayed unicasts, which are
entries of the same type scheduled on the event queue — still calls
the addressee's handler, at the instant it arrives.

Engagement scopes
-----------------
One physical bus can carry several concurrent *engagements* (the
multi-load contention setting).  Each engagement gets its own endpoint
namespace, message log, medium and traffic counters — a **scope** —
selected by the :attr:`~repro.network.messages.Message.engagement` tag;
the shared physics (event queue, one-port data clock) stay global,
because there is only one wire.  Scope ``None`` is the bus's *root*
scope and is what every pre-contention caller uses implicitly: a solo
engagement on the root scope produces byte-identical logs, stats and
schedules to a bus built before scopes existed.

Protocol code never tags messages by hand: :meth:`Bus.scoped` returns
an :class:`EngagementBusView` — a transport with the exact ``Bus``
surface that stamps its engagement id on everything it carries — so the
engine, runners and adjudicator run unmodified whether they own the bus
or share it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.network.events import EventQueue
from repro.network.messages import Message, MessageKind

__all__ = ["TrafficStats", "LogEntry", "Bus", "EngagementBusView"]


class LogEntry:
    """One transmission on a scope's medium, and who heard it.

    ``members`` is the set of names the transmission reached — for a
    broadcast the scope's membership snapshot, shared by every entry
    until an endpoint attaches or detaches; for a deferred delivery its
    addressees.  ``deaf`` names the members that did not hear it: a
    broadcast's sender and any crash-stopped endpoint, or an addressee
    dropped (by detach or crash) before a deferred delivery arrived.
    ``time`` is the simulated delivery instant.

    A deferred entry is scheduled on the event queue as its own action:
    firing delivers the message to the handler of every remaining
    addressee still attached, and :meth:`drop` of the last addressee
    cancels the event outright.
    """

    __slots__ = ("msg", "time", "members", "deaf", "event", "_endpoints")

    def __init__(self, msg: Message, time: float, members, deaf=(),
                 endpoints: dict[str, Callable[[Message], None]] | None = None,
                 ) -> None:
        self.msg = msg
        self.time = time
        self.members = members
        self.deaf = tuple(deaf)
        self.event = None            # set by Bus for deferred deliveries
        self._endpoints = endpoints  # live endpoint table (deferred only)

    def heard_by(self, name: str) -> bool:
        """Whether *name* heard (or, if deferred, will hear) this entry."""
        return name in self.members and name not in self.deaf

    @property
    def hearers(self) -> tuple[str, ...]:
        """Members that heard the entry, in membership order."""
        deaf = self.deaf
        return tuple(n for n in self.members if n not in deaf)

    def drop(self, name: str) -> None:
        """Strike *name* from a pending delivery (idempotent)."""
        if not self.heard_by(name):
            return
        self.deaf += (name,)
        if self.event is not None and not self.hearers:
            self.event.cancel()

    def __call__(self) -> None:
        endpoints, deaf = self._endpoints, self.deaf
        for name in self.members:
            handler = endpoints.get(name)
            if handler is not None and name not in deaf:
                handler(self.msg)


@dataclass
class TrafficStats:
    """Running communication-cost accounting (Theorem 5.4's metric).

    Besides the wire counters, carries the perf layer's cache counters
    for the engagement (filled in by the protocol engine when it
    settles): ``memo_hits`` / ``memo_misses`` count digest-keyed
    allocation/exclusion/payment lookups, ``sig_cache_hits`` /
    ``sig_cache_misses`` count signature-verification lookups.  All
    four stay zero on transports never driven by an engine.
    """

    messages: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    retries: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    sig_cache_hits: int = 0
    sig_cache_misses: int = 0

    def record(self, msg: Message) -> None:
        self.messages += 1
        self.bytes += msg.size_bytes
        self.by_kind[msg.kind] += 1
        self.bytes_by_kind[msg.kind] += msg.size_bytes

    def record_retry(self, count: int = 1) -> None:
        """Count *count* retransmission attempts (ack/retry recovery)."""
        self.retries += count

    @property
    def control_bytes(self) -> int:
        """Bytes excluding load transfers (the Thm 5.4 cost metric)."""
        return self.bytes - self.bytes_by_kind[MessageKind.LOAD]

    @property
    def control_messages(self) -> int:
        return self.messages - self.by_kind[MessageKind.LOAD]


class _Scope:
    """One engagement's slice of the bus: namespace, log, medium, counters.

    The endpoint table, message log, broadcast medium, traffic stats and
    in-flight delivery index are all per scope — two engagements sharing
    the bus can attach the same processor names without collision and
    never see each other's traffic.  Only the physics (event queue,
    one-port clock) are shared, on the bus.
    """

    __slots__ = ("endpoints", "log", "medium", "stats", "pending", "members")

    def __init__(self) -> None:
        self.endpoints: dict[str, Callable[[Message], None]] = {}
        self.log: list[Message] = []
        self.medium: list[LogEntry] = []
        self.stats = TrafficStats()
        # in-flight deferred deliveries per addressee, so detach can
        # drop them
        self.pending: dict[str, list[LogEntry]] = {}
        # membership snapshot shared by broadcast entries, rebuilt
        # lazily after attach/detach
        self.members: dict[str, None] | None = None


class Bus:
    """The shared bus connecting processors, the referee and the user.

    Endpoints register a handler ``(Message) -> None``, which receives
    their point-to-point traffic.  A broadcast is one :class:`LogEntry`
    on the scope's :attr:`medium`, heard by every endpoint except the
    sender (atomicity: one entry, identical payload to all).  Load
    transfers advance the one-port busy clock by ``units * z``.

    Every membership and messaging method takes an optional
    ``engagement`` selector (or reads it off the message tag) defaulting
    to the root scope — see the module docstring.  Callers multiplexing
    engagements should use :meth:`scoped` rather than tagging by hand.
    """

    def __init__(self, z: float, *, queue: EventQueue | None = None) -> None:
        if z <= 0:
            raise ValueError(f"z must be positive, got {z}")
        self.z = float(z)
        self.queue = queue or EventQueue()
        self._root = _Scope()
        self._scopes: dict[str, _Scope] = {}
        # Root-scope aliases: the historical single-engagement surface.
        self.stats = self._root.stats
        self.log = self._root.log
        self.medium = self._root.medium
        self._endpoints = self._root.endpoints
        self._port_free_at = 0.0

    # -- scopes --------------------------------------------------------------

    def _scope(self, engagement: str | None) -> _Scope:
        if engagement is None:
            return self._root
        scope = self._scopes.get(engagement)
        if scope is None:
            scope = self._scopes[engagement] = _Scope()
        return scope

    def scoped(self, engagement: str) -> "EngagementBusView":
        """A transport bound to *engagement*'s scope (full Bus surface)."""
        if not engagement:
            raise ValueError("engagement id must be a non-empty string")
        return EngagementBusView(self, engagement)

    @property
    def engagements(self) -> tuple[str, ...]:
        """Named engagement scopes seen so far (root excluded)."""
        return tuple(self._scopes)

    def stats_for(self, engagement: str | None) -> TrafficStats:
        """Traffic counters of one engagement's scope."""
        return self._scope(engagement).stats

    def log_for(self, engagement: str | None) -> list[Message]:
        """Ordered message log of one engagement's scope."""
        return self._scope(engagement).log

    def medium_for(self, engagement: str | None) -> list[LogEntry]:
        """Broadcast entries of one engagement's scope, in order."""
        return self._scope(engagement).medium

    # -- membership ---------------------------------------------------------

    def attach(self, name: str, handler: Callable[[Message], None], *,
               engagement: str | None = None) -> None:
        """Register an endpoint; names must be unique within a scope."""
        scope = self._scope(engagement)
        if name in scope.endpoints:
            raise ValueError(f"endpoint {name!r} already attached"
                             + (f" in engagement {engagement!r}"
                                if engagement else ""))
        scope.endpoints[name] = handler
        scope.members = None

    def detach(self, name: str, *, engagement: str | None = None) -> None:
        """Remove an endpoint and cancel its in-flight deliveries.

        A detached endpoint hears no later broadcast and must not
        receive deliveries already scheduled for it on the queue (it
        has left the bus): it is dropped from pending entries rather
        than delivered into the void (an entry whose last addressee
        leaves is cancelled outright).
        """
        scope = self._scope(engagement)
        scope.endpoints.pop(name, None)
        scope.members = None
        for entry in scope.pending.pop(name, ()):
            entry.drop(name)

    @staticmethod
    def _members(scope: _Scope) -> dict[str, None]:
        """The scope's current membership snapshot (shared, never mutated)."""
        members = scope.members
        if members is None:
            members = scope.members = dict.fromkeys(scope.endpoints)
        return members

    @property
    def endpoints(self) -> tuple[str, ...]:
        return tuple(self._endpoints)

    def endpoints_for(self, engagement: str | None) -> tuple[str, ...]:
        return tuple(self._scope(engagement).endpoints)

    def enter_phase(self, phase, *, engagement: str | None = None) -> None:
        """Protocol-phase hook; the plain bus ignores it.

        :class:`repro.network.faults.FaultyBus` overrides this to
        activate phase-triggered faults (scoped to *engagement*).
        """

    def is_crashed(self, name: str, *, engagement: str | None = None) -> bool:
        """Crash-stop status; always False on the reliable bus."""
        return False

    def _require_sender(self, sender: str, scope: _Scope) -> None:
        if sender not in scope.endpoints:
            raise KeyError(f"unknown sender {sender!r}; "
                           f"attached: {tuple(scope.endpoints)}")

    # -- control-plane messaging -------------------------------------------

    def broadcast(self, msg: Message) -> None:
        """Reliable atomic broadcast: one medium entry, heard by every
        scope endpoint except the sender (other engagements' scopes
        never hear it)."""
        if not msg.is_broadcast:
            raise ValueError("broadcast() requires recipients == ('*',)")
        scope = self._scope(msg.engagement)
        self._require_sender(msg.sender, scope)
        self._record(msg, scope)
        scope.medium.append(LogEntry(msg, self.queue.now,
                                     self._members(scope), (msg.sender,)))

    def send(self, msg: Message) -> tuple[str, ...]:
        """Unicast/multicast to the named recipients (must be attached
        in the message's engagement scope).

        Returns the recipients the transport delivered to, which on the
        reliable bus is all of them.  Fault-injecting transports return
        the subset that actually got the message — the transport-level
        "ack" the engine's retry path keys off.
        """
        if msg.is_broadcast:
            raise ValueError("use broadcast() for '*' recipients")
        scope = self._scope(msg.engagement)
        missing = [r for r in msg.recipients if r not in scope.endpoints]
        if missing:
            raise KeyError(f"unknown recipients {missing}; "
                           f"attached: {tuple(scope.endpoints)}")
        self._require_sender(msg.sender, scope)
        self._record(msg, scope)
        for r in msg.recipients:
            scope.endpoints[r](msg)
        return msg.recipients

    # -- data plane (one-port load transfers) --------------------------------

    def transfer_load(self, sender: str, recipient: str, units: float, body,
                      *, engagement: str | None = None) -> float:
        """Ship *units* of load; returns the wall-clock completion time.

        The bus is exclusive: the transfer begins when the port frees up
        and occupies it for ``units * z``.  The message is delivered at
        completion time via the event queue.  The one-port clock is
        *global* — concurrent engagements queue behind each other here,
        which is exactly the contention the arbiter schedules.
        """
        if units < 0:
            raise ValueError(f"units must be non-negative, got {units}")
        scope = self._scope(engagement)
        if recipient not in scope.endpoints:
            raise KeyError(f"unknown recipient {recipient!r}")
        self._require_sender(sender, scope)
        start = max(self._port_free_at, self.queue.now)
        done = start + units * self.z
        self._port_free_at = done
        msg = Message(MessageKind.LOAD, sender, (recipient,), body,
                      size_bytes=max(1, int(round(units * 1024))),
                      engagement=engagement)
        self._record(msg, scope)
        self._deliver_at(done, (recipient,), msg, scope,
                         label=f"load->{recipient}")
        return done

    def _deliver_at(self, time: float, recipients: tuple[str, ...],
                    msg: Message, scope: _Scope, *,
                    label: str = "") -> LogEntry:
        """Schedule one queue event delivering *msg* to *recipients*.

        The delivery is a single deferred :class:`LogEntry`; each
        recipient's slot in the scope's pending index points at it so
        ``detach`` (and FaultyBus crashes) drop individuals without
        disturbing the rest.
        """
        entry = LogEntry(msg, time, recipients, endpoints=scope.endpoints)
        entry.event = self.queue.schedule(time, entry, label=label)
        pending = scope.pending
        for r in recipients:
            pending.setdefault(r, []).append(entry)
        return entry

    @property
    def port_free_at(self) -> float:
        """Next instant at which the data port is idle."""
        return self._port_free_at

    # -- internals -----------------------------------------------------------

    def _record(self, msg: Message, scope: _Scope | None = None) -> None:
        if scope is None:
            scope = self._scope(msg.engagement)
        scope.log.append(msg)
        scope.stats.record(msg)


class EngagementBusView:
    """A transport bound to one engagement scope of a shared bus.

    Exposes the exact :class:`Bus` surface the protocol stack consumes
    — ``attach`` / ``broadcast`` / ``send`` / ``transfer_load`` /
    ``enter_phase`` / ``is_crashed`` / ``stats`` / ``log`` / ``medium``
    / ``queue`` / ``port_free_at`` — stamping its engagement id onto every message
    so the engine, runners, retry machinery and committee adjudicator
    run unmodified over a multiplexed bus.  The physics properties
    (``queue``, ``port_free_at``, ``z``) deliberately read through to
    the shared bus: simulated time and port contention are global.
    """

    __slots__ = ("_bus", "engagement")

    def __init__(self, bus: Bus, engagement: str) -> None:
        self._bus = bus
        self.engagement = engagement

    # -- shared physics ------------------------------------------------------

    @property
    def bus(self) -> Bus:
        """The underlying shared transport."""
        return self._bus

    @property
    def z(self) -> float:
        return self._bus.z

    @property
    def queue(self) -> EventQueue:
        return self._bus.queue

    @property
    def port_free_at(self) -> float:
        return self._bus.port_free_at

    # -- scoped state --------------------------------------------------------

    @property
    def stats(self) -> TrafficStats:
        return self._bus.stats_for(self.engagement)

    @property
    def log(self) -> list[Message]:
        return self._bus.log_for(self.engagement)

    @property
    def medium(self) -> list[LogEntry]:
        return self._bus.medium_for(self.engagement)

    @property
    def endpoints(self) -> tuple[str, ...]:
        return self._bus.endpoints_for(self.engagement)

    @property
    def fault_log(self) -> list:
        """Scope's applied-fault records (empty on a reliable bus)."""
        return [rec for rec in getattr(self._bus, "fault_log", [])
                if getattr(rec, "engagement", None) == self.engagement]

    # -- scoped operations ---------------------------------------------------

    def _tagged(self, msg: Message) -> Message:
        if msg.engagement == self.engagement:
            return msg
        # Every message of a multiplexed engagement passes here: build
        # the tagged copy directly, keeping the size it already carries.
        return Message(msg.kind, msg.sender, msg.recipients, msg.body,
                       msg.size_bytes, self.engagement)

    def attach(self, name: str, handler: Callable[[Message], None]) -> None:
        self._bus.attach(name, handler, engagement=self.engagement)

    def detach(self, name: str) -> None:
        self._bus.detach(name, engagement=self.engagement)

    def broadcast(self, msg: Message) -> None:
        self._bus.broadcast(self._tagged(msg))

    def send(self, msg: Message) -> tuple[str, ...]:
        return self._bus.send(self._tagged(msg))

    def transfer_load(self, sender: str, recipient: str, units: float,
                      body) -> float:
        return self._bus.transfer_load(sender, recipient, units, body,
                                       engagement=self.engagement)

    def enter_phase(self, phase) -> None:
        self._bus.enter_phase(phase, engagement=self.engagement)

    def is_crashed(self, name: str) -> bool:
        return self._bus.is_crashed(name, engagement=self.engagement)
