"""The DLS-BL-NCP protocol coordinator.

Runs the four phases of Section 4 over the simulated bus.  The phase
logic lives in one :class:`~repro.protocol.context.PhaseRunner` per
paper phase (:mod:`repro.protocol.runners`), each reading and writing
a shared :class:`~repro.protocol.context.EngagementContext`; the
engine here owns only the three things the runners cannot: transport
attachment (wiring every endpoint's own ``bus_handler`` to the bus and
every agent to the engagement's bid board), the runner loop (entering
each phase, invoking its runner, recording a
:class:`~repro.protocol.trace.PhaseSpan`, following ``next_phase``
until a runner terminates the engagement), and settlement — one
:meth:`~ProtocolEngine.settle` shared by every path: completion,
early-termination fines, and crash degradation alike.

Any fine raised in phases 1-2 terminates the protocol immediately
(processors that had commenced work are compensated ``alpha_i w~_i``
out of the collected fines); payment-phase fines do not void the
completed computation.  The engine itself is untrusted plumbing: it
never decides allocations or payments, it only delivers messages,
reads meters, and executes verdicts on the ledger.
"""

from __future__ import annotations

import gc

from repro.agents.board import BidBoard
from repro.agents.processor import ProcessorAgent
from repro.core.fines import FinePolicy
from repro.core.quorum import CommitteeConfig, RefereeCommittee
from repro.core.referee import Referee
from repro.crypto.blocks import divide_load
from repro.crypto.pki import PKI
from repro.crypto.signatures import SigningKey
from repro.dlt.platform import NetworkKind
from repro.network.bus import Bus
from repro.network.faults import FaultPlan, FaultyBus
from repro.network.messages import Message, MessageKind
from repro.perf import REDUNDANCY_MODES, ComputationCache
from repro.protocol.committee import CommitteeAdjudicator
from repro.protocol.context import (
    REFEREE,
    USER,
    EngagementContext,
    PhaseDeadlines,
    RetryPolicy,
)
from repro.protocol.payment_infra import PaymentInfrastructure
from repro.protocol.phases import Phase
from repro.protocol.results import ProtocolResult
from repro.protocol.runners import (
    AllocationRunner,
    BiddingRunner,
    PaymentsRunner,
    ProcessingRunner,
)
from repro.protocol.trace import PhaseSpan

__all__ = ["PhaseDeadlines", "RetryPolicy", "ProtocolResult", "ProtocolEngine",
           "EngagementSession"]

# Runners are stateless (state lives on the context): one each suffices.
_RUNNERS = {
    Phase.BIDDING: BiddingRunner(),
    Phase.ALLOCATING_LOAD: AllocationRunner(),
    Phase.PROCESSING_LOAD: ProcessingRunner(),
    Phase.COMPUTING_PAYMENTS: PaymentsRunner(),
}


class ProtocolEngine:
    """Wire together agents, bus, referee and ledger, then run.

    *agents* are the strategic processors in allocation order (``P_1``
    first; the originator position is implied by *kind*, which must be
    ``NCP_FE`` or ``NCP_NFE`` — use :class:`repro.core.DLSBL` for the
    CP system); *z* is the per-unit bus communication time and
    *num_blocks* the granularity of the user's load division.

    *bidding_mode* selects how bids travel (paper §4 + footnote 1):
    ``"atomic"`` (default) reliable atomic broadcast; ``"commit"``
    point-to-point preceded by a published hash commitment; ``"naive"``
    point-to-point without commitments (the ablation — split bids
    poison honest views undetected and only surface downstream).

    *fault_plan*: ``None`` or an empty plan keeps the engine on the
    plain reliable :class:`Bus` (logs and results byte-identical to a
    build without the fault layer); a non-empty plan swaps in a
    :class:`FaultyBus` and arms the crash-tolerance machinery —
    *deadlines* / *retry* timeouts, ack/retry recovery, and survivor
    re-allocation.

    *redundancy*: ``"memoized"`` (default) injects one fresh
    content-addressed :class:`~repro.perf.cache.ComputationCache` into
    every agent and the referee — keyed by a digest of each party's
    *own* inputs, so the memo is semantically invisible;
    ``"independent"`` recomputes everything from scratch (the paper's
    literal procedure, kept so the equivalence property tests have a
    ground truth to compare against).
    """

    BIDDING_MODES = ("atomic", "commit", "naive")

    def __init__(
        self,
        agents: list[ProcessorAgent],
        kind: NetworkKind,
        z: float,
        *,
        pki: PKI,
        user_key: SigningKey,
        policy: FinePolicy | None = None,
        num_blocks: int = 120,
        bidding_mode: str = "atomic",
        fault_plan: FaultPlan | None = None,
        deadlines: PhaseDeadlines | None = None,
        retry: RetryPolicy | None = None,
        redundancy: str = "memoized",
        committee: CommitteeConfig | None = None,
        bus: Bus | None = None,
        engagement_id: str | None = None,
    ) -> None:
        if bidding_mode not in self.BIDDING_MODES:
            raise ValueError(f"bidding_mode must be one of {self.BIDDING_MODES}, "
                             f"got {bidding_mode!r}")
        if redundancy not in REDUNDANCY_MODES:
            raise ValueError(f"redundancy must be one of {REDUNDANCY_MODES}, "
                             f"got {redundancy!r}")
        self.redundancy = redundancy
        self.bidding_mode = bidding_mode
        self._bulletin: dict = {}
        if kind is NetworkKind.CP:
            raise ValueError(
                "DLS-BL-NCP targets networks without control processors; "
                "use DLSBL for the CP system")
        if len(agents) < 2:
            raise ValueError("the mechanism requires at least 2 processors")
        names = [a.name for a in agents]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate agent names: {names}")
        self.agents = list(agents)
        self.kind = kind
        self.z = float(z)
        self.pki = pki
        self.user_key = user_key
        self.policy = policy or FinePolicy()
        self.num_blocks = int(num_blocks)
        self.memo = ComputationCache() if redundancy == "memoized" else None
        for agent in agents:
            agent.memo = self.memo
        # Adjudication: a single trusted referee by default; with a
        # committee config, N referees behind the same interface — the
        # adjudicator drives quorum rounds over the bus and the engine
        # verifies every verdict's certificate before applying it.
        self.committee: RefereeCommittee | None = None
        self._adjudicator: CommitteeAdjudicator | None = None
        if committee is None:
            self.referee = Referee(pki, self.policy, memo=self.memo)
        else:
            self.committee = RefereeCommittee(pki, self.policy,
                                              config=committee,
                                              memo=self.memo)
            if fault_plan is not None:
                for member, strategy in \
                        fault_plan.referee_strategies().items():
                    self.committee.set_strategy(member, strategy)
            self._adjudicator = CommitteeAdjudicator(self.committee)
            self.referee = self._adjudicator
        self.infra = PaymentInfrastructure(USER)
        # Per-engagement deltas: the PKI may outlive this engine, so
        # snapshot the counters now and report only what *this*
        # engagement adds.
        sig = pki.stats
        self._sig_base = (sig.hits, sig.misses)
        self.deadlines = deadlines or PhaseDeadlines()
        self.retry = retry or RetryPolicy()
        # An empty plan must leave zero trace: stay on the plain Bus so
        # even the bus *type* matches the fault-free build.
        armed = fault_plan is not None and not fault_plan.empty
        self._fault_plan = fault_plan if armed else None
        if bus is not None:
            # An injected transport — typically a scoped view of a bus
            # shared with other engagements (the arbiter's case).  The
            # caller owns fault arming on it; *fault_plan* here still
            # arms this engagement's crash-tolerance machinery.
            if abs(bus.z - self.z) > 1e-12:
                raise ValueError(f"injected bus has z={bus.z}, engine z={self.z}")
            self.bus = bus
            if engagement_id is None:
                engagement_id = getattr(bus, "engagement", None)
        else:
            self.bus = FaultyBus(self.z, plan=fault_plan) if armed else Bus(self.z)
        self.engagement_id = engagement_id
        self.order = names
        self._received: dict[str, list] = {n: [] for n in names}
        self._attach_endpoints()

    # ---- wiring --------------------------------------------------------

    def _attach_endpoints(self) -> None:
        # One bid board per engagement: the broadcast bids are folded
        # once, off the scope's medium, and every agent reads its view
        # through it; handlers carry only point-to-point traffic.
        self.board = BidBoard(self.pki, self.bus.medium)
        for agent in self.agents:
            agent.listen(self.board)
            self.bus.attach(agent.name,
                            agent.bus_handler(self._received[agent.name],
                                              self._bulletin))
        self.bus.attach(REFEREE, lambda msg: None)
        self.bus.attach(USER, lambda msg: None)
        if self.committee is not None:
            # Committee members are bus endpoints so their proposal and
            # vote traffic is real, countable, and fault-targetable; the
            # adjudicator moves the payloads in-process, so the handler
            # is a sink like the referee's and the user's.
            for name in self.committee.names:
                self.bus.attach(name, lambda msg: None)

    @property
    def originator(self) -> ProcessorAgent:
        """The physical data holder (P_1 for NCP-FE, P_m for NCP-NFE).

        The role is tied to where the load resides, so it does not move
        when other processors abstain.
        """
        idx = self.kind.originator_index(len(self.agents))
        assert idx is not None
        return self.agents[idx]

    # ---- run -----------------------------------------------------------

    def run(self) -> ProtocolResult:
        """Execute the protocol once and settle the ledger.

        The engagement runs with the cyclic garbage collector paused
        (restored on exit), so generational collections do not
        repeatedly trace the engagement's growing object graph mid-run.
        Nothing in the run frees cyclic garbage, so pausing is
        observationally safe; the cycles an engagement leaves behind
        are collected by the next ordinary collection after it returns.
        """
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            session = self.begin()
            while not session.done:
                session.step()
            return session.finish()
        finally:
            if was_enabled:
                gc.enable()

    def begin(self) -> EngagementSession:
        """Open a steppable session over this engine's wiring.

        The returned :class:`EngagementSession` executes the same runner
        loop :meth:`run` would, one phase per :meth:`~EngagementSession.step`
        — the seam the bus-window arbiter interleaves engagements
        through.  Stepping a session to completion and calling
        ``finish()`` is byte-identical to :meth:`run` (modulo the GC
        pause, which is the arbiter's job when it multiplexes)."""
        return EngagementSession(self)

    def _counters(self) -> tuple[int, int, int, int, int, int, int, int]:
        """Snapshot of the traffic/cache counters, for span deltas."""
        stats = self.bus.stats
        memo = self.memo.stats if self.memo is not None else None
        sig = self.pki.stats
        adjudicator = self._adjudicator
        return (stats.messages, stats.bytes, stats.retries,
                memo.hits if memo is not None else 0,
                memo.misses if memo is not None else 0,
                sig.hits, sig.misses,
                adjudicator.rounds_used if adjudicator is not None else 0)

    # ---- settlement ----------------------------------------------------

    def settle(self, ctx: EngagementContext,
               spans: tuple[PhaseSpan, ...] = ()) -> ProtocolResult:
        """Bill, move the ledger, and fold the context into a result.

        Every path through the protocol ends here — successful
        completion, an early-termination fine, and crash degradation
        alike — so ledger conservation is enforced by one code path.
        Payments flow only when a runner produced them (``ctx.payments``
        non-empty); terminated and unrecoverable engagements settle on
        fines/compensations already executed via ``apply_verdict``.
        """
        if ctx.payments:
            self.bus.send(Message(MessageKind.BILL, REFEREE, (USER,),
                                  {"total": float(sum(ctx.payments.values()))}))
            self.infra.remit_payments(ctx.payments)
        costs = {n: ctx.costs.get(n, 0.0) for n in self.order}
        stats = self.bus.stats
        if self.memo is not None:
            stats.memo_hits = self.memo.stats.hits
            stats.memo_misses = self.memo.stats.misses
        sig = self.pki.stats
        stats.sig_cache_hits = sig.hits - self._sig_base[0]
        stats.sig_cache_misses = sig.misses - self._sig_base[1]
        balances = {n: self.infra.balance(n) for n in self.order}
        balances[USER] = self.infra.balance(USER)
        utilities = {n: balances[n] - costs[n] for n in self.order}
        return ProtocolResult(
            completed=ctx.completed,
            terminal_phase=ctx.terminal_phase,
            verdicts=tuple(ctx.verdicts),
            order=tuple(self.order),
            participants=tuple(ctx.active),
            bids=dict(ctx.bids),
            alpha={n: ctx.alpha_map.get(n, 0.0) for n in self.order},
            phi=dict(ctx.phi),
            payments={n: ctx.payments.get(n, 0.0) for n in self.order},
            balances=balances,
            costs=costs,
            utilities=utilities,
            fine_amount=ctx.fine,
            makespan_realized=ctx.realized,
            traffic=self.bus.stats,
            degraded=ctx.degraded,
            crashed=tuple(ctx.crashed),
            reallocations=dict(ctx.reallocations),
            spans=spans,
            certificates=(tuple(self.committee.certificates)
                          if self.committee is not None else ()),
        )


class EngagementSession:
    """One engagement's runner loop, opened for external pacing.

    :meth:`ProtocolEngine.run` drives the four phase runners in a tight
    loop; a session exposes the identical loop one phase at a time so a
    scheduler (the bus-window arbiter) can interleave several
    engagements over a shared bus — each :meth:`step` is one granted
    bus window.  The session owns no policy: it executes exactly the
    phases the runners dictate, records the same :class:`PhaseSpan`
    telemetry ``run()`` would, and settles through the engine's single
    :meth:`~ProtocolEngine.settle` path.  A session stepped to
    completion produces a result byte-identical to ``run()``.
    """

    def __init__(self, engine: ProtocolEngine) -> None:
        self.engine = engine
        blocks = divide_load(engine.user_key, 1.0, engine.num_blocks)
        self.ctx = EngagementContext(
            agents=engine.agents, originator=engine.originator,
            kind=engine.kind, z=engine.z, num_blocks=engine.num_blocks,
            bidding_mode=engine.bidding_mode, policy=engine.policy,
            pki=engine.pki, user_key=engine.user_key, referee=engine.referee,
            infra=engine.infra, bus=engine.bus, memo=engine.memo,
            deadlines=engine.deadlines, retry=engine.retry,
            fault_plan=engine._fault_plan, order=engine.order,
            bulletin=engine._bulletin, received=engine._received,
            blocks=blocks, adjudicator=engine._adjudicator,
            engagement_id=engine.engagement_id,
        )
        if engine._adjudicator is not None:
            engine._adjudicator.bind(self.ctx)
        self.spans: list[PhaseSpan] = []
        self.phase: Phase | None = Phase.BIDDING
        self._result: ProtocolResult | None = None

    @property
    def done(self) -> bool:
        """True once a runner has terminated the engagement."""
        return self.phase is None

    def step(self) -> Phase | None:
        """Run the pending phase; return the next one (None = done)."""
        phase = self.phase
        if phase is None:
            raise RuntimeError("session already ran its terminal phase")
        engine = self.engine
        t0 = engine.bus.queue.now
        before = engine._counters()
        engine.bus.enter_phase(phase)
        outcome = _RUNNERS[phase].run(self.ctx)
        after = engine._counters()
        self.spans.append(PhaseSpan(
            phase=phase.name,
            t_start=t0,
            t_end=engine.bus.queue.now,
            messages=after[0] - before[0],
            bytes=after[1] - before[1],
            retries=after[2] - before[2],
            memo_hits=after[3] - before[3],
            memo_misses=after[4] - before[4],
            sig_cache_hits=after[5] - before[5],
            sig_cache_misses=after[6] - before[6],
            verdicts=tuple(v.case for v in outcome.verdicts),
            fines=outcome.fines,
            quorum_rounds=after[7] - before[7],
        ))
        self.phase = outcome.next_phase
        return self.phase

    def finish(self) -> ProtocolResult:
        """Settle the ledger and fold the context into a result.

        Idempotent: settlement executes once; later calls return the
        same result object.
        """
        if self.phase is not None:
            raise RuntimeError(
                f"cannot settle: phase {self.phase.name} has not run")
        if self._result is None:
            self._result = self.engine.settle(self.ctx, tuple(self.spans))
        return self._result
