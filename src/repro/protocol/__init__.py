"""The distributed DLS-BL-NCP protocol.

* :mod:`repro.protocol.phases` — phase enumeration and shared helpers.
* :mod:`repro.protocol.payment_infra` — the assumed payment
  infrastructure (accounts, billing, fine collection).
* :mod:`repro.protocol.context` — the :class:`EngagementContext`
  record every layer shares, plus the :class:`PhaseRunner` /
  :class:`PhaseOutcome` contracts.
* :mod:`repro.protocol.runners` — one runner per paper phase (Bidding
  → Allocating Load → Processing Load → Computing Payments), each a
  pure function of the context.
* :mod:`repro.protocol.engine` — the coordinator that attaches
  endpoints to the bus, drives the runner loop, records per-phase
  :class:`~repro.protocol.trace.PhaseSpan` observability, and settles
  the ledger, with the referee adjudicating any signalled conflicts.
* :mod:`repro.protocol.arbiter` — K engagements multiplexed over one
  shared bus, phases granted as bus windows under pluggable policies
  (FIFO / SJF / round-robin) through the steppable
  :class:`EngagementSession` seam.

The engine is deliberately *not* trusted with mechanism decisions: all
allocations and payments are computed redundantly by the agents (or by
the referee when disputes arise); the engine only moves messages,
enforces physics (meters, one-port bus) and applies verdicts to the
ledger — the roles the paper assigns to tamper-proof infrastructure.
"""

from repro.protocol.phases import Phase
from repro.protocol.payment_infra import Ledger, PaymentInfrastructure
from repro.protocol.context import (
    EngagementContext,
    PhaseDeadlines,
    PhaseOutcome,
    PhaseRunner,
    RetryPolicy,
)
from repro.protocol.engine import EngagementSession, ProtocolEngine, ProtocolResult
from repro.protocol.arbiter import (
    ArbiterResult,
    BusArbiter,
    BusGrant,
    EngagementJob,
)
from repro.protocol.runners import (
    AllocationRunner,
    BiddingRunner,
    PaymentsRunner,
    ProcessingRunner,
)
from repro.protocol.trace import PhaseSpan, wire_digest

__all__ = [
    "ArbiterResult",
    "BusArbiter",
    "BusGrant",
    "EngagementJob",
    "EngagementSession",
    "wire_digest",
    "Phase",
    "Ledger",
    "PaymentInfrastructure",
    "EngagementContext",
    "PhaseDeadlines",
    "PhaseOutcome",
    "PhaseRunner",
    "PhaseSpan",
    "ProtocolEngine",
    "ProtocolResult",
    "RetryPolicy",
    "AllocationRunner",
    "BiddingRunner",
    "PaymentsRunner",
    "ProcessingRunner",
]
