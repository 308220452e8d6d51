"""The settlement record one DLS-BL-NCP run produces.

Split out of the engine so the result type sits below the coordinator
in the layering: runners and the engine both *produce* toward it, and
downstream consumers (:mod:`repro.io`, the analysis layer)
can depend on the record without touching the coordinator.  The engine
re-exports :class:`ProtocolResult` for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.referee import RefereeVerdict
from repro.network.bus import TrafficStats
from repro.protocol.context import USER
from repro.protocol.phases import Phase
from repro.protocol.trace import PhaseSpan

__all__ = ["ProtocolResult"]


@dataclass(frozen=True)
class ProtocolResult:
    """Complete record of one DLS-BL-NCP run.

    ``balances`` are final ledger positions (payments + rewards +
    compensations - fines); ``costs`` are the processing costs actually
    incurred (``alpha_i w~_i`` for work performed, 0 otherwise);
    ``utilities`` are ``balances - costs`` — the quasi-linear utility of
    Eq. (10) extended with the fine/reward flows of Section 4.
    Abstaining processors appear with alpha/payment/utility 0 and are
    absent from ``participants``.

    Fault-tolerant runs add three fields: ``degraded`` is True when the
    run survived a crash (mid-run re-allocation or a payments-phase
    silence), ``crashed`` names the processors declared unresponsive,
    and ``reallocations`` maps each survivor to the extra load fraction
    it absorbed from the crashed workers.  All three keep their empty
    defaults on fault-free runs.

    ``spans`` holds one :class:`~repro.protocol.trace.PhaseSpan` per
    phase executed — the structured per-phase observability record.

    Committee-mode runs additionally carry ``certificates`` — one
    verified :class:`~repro.crypto.certificates.QuorumCertificate` per
    adjudicated case, in decision order (empty under the single trusted
    referee).
    """

    completed: bool
    terminal_phase: Phase
    verdicts: tuple[RefereeVerdict, ...]
    order: tuple[str, ...]
    participants: tuple[str, ...]
    bids: dict[str, float]
    alpha: dict[str, float]
    phi: dict[str, float]
    payments: dict[str, float]
    balances: dict[str, float]
    costs: dict[str, float]
    utilities: dict[str, float]
    fine_amount: float
    makespan_realized: float | None
    traffic: TrafficStats
    degraded: bool = False
    crashed: tuple[str, ...] = ()
    reallocations: dict[str, float] = field(default_factory=dict)
    spans: tuple[PhaseSpan, ...] = ()
    certificates: tuple = ()

    def utility(self, name: str) -> float:
        return self.utilities[name]

    @property
    def fined(self) -> dict[str, float]:
        """Total fines per processor across all verdicts."""
        out: dict[str, float] = {}
        for v in self.verdicts:
            for f in v.fines:
                out[f.who] = out.get(f.who, 0.0) + f.amount
        return out

    @property
    def user_cost(self) -> float:
        """What the user ultimately paid (negative ledger balance)."""
        return -self.balances.get(USER, 0.0)
