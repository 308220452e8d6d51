"""Strategic agent models.

The mechanism's whole point is that processors are rational and
self-interested: they may misreport their processing capacity
(``b_i != w_i``), under-execute (``w~_i > w_i``), or — absent a trusted
control processor — deviate from the scheduling algorithm itself.

:class:`repro.agents.behaviors.AgentBehavior` captures a strategy as
data (bid factor, execution factor, and a set of protocol
:class:`~repro.agents.behaviors.Deviation`\\ s), and
:class:`repro.agents.processor.ProcessorAgent` executes that strategy
inside the protocol, including the *honest* monitoring duties (verify
signatures, detect equivocation, recompute allocations and payments,
fink to the referee) that the incentive structure makes individually
rational.
"""

from repro._lazy import attach

# Resolved on first use: the wire layer checks deviation and referee
# strategy names against repro.agents.behaviors without loading the
# agent that plays them.
__getattr__, __dir__ = attach(__name__, {
    "repro.agents.behaviors": (
        "REFEREE_EQUIVOCATE", "REFEREE_FINE_STEAL", "REFEREE_SILENT",
        "REFEREE_STRATEGIES", "AgentBehavior", "Deviation", "abstaining",
        "byzantine_referee", "misreport", "slow_execution", "truthful"),
    "repro.agents.processor": ("ProcessorAgent",),
})

__all__ = [
    "AgentBehavior",
    "Deviation",
    "abstaining",
    "truthful",
    "misreport",
    "slow_execution",
    "REFEREE_SILENT",
    "REFEREE_EQUIVOCATE",
    "REFEREE_FINE_STEAL",
    "REFEREE_STRATEGIES",
    "byzantine_referee",
    "ProcessorAgent",
]
