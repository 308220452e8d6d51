"""The paper's primary contribution: strategyproof DLT mechanisms.

* :mod:`repro.core.payments` — the compensation-and-bonus payment
  structure (Section 3, Eqs. 10-12) shared by DLS-BL and DLS-BL-NCP.
* :mod:`repro.core.dls_bl` — the centralized DLS-BL mechanism (trusted
  control processor; the paper's prior work it builds on).
* :mod:`repro.core.referee` — the minimally-trusted referee of
  DLS-BL-NCP: evidence verification, fines, reward distribution.
* :mod:`repro.core.fines` — fine-magnitude policy (``F >= sum of
  compensations``) and redistribution arithmetic.
* :mod:`repro.core.dls_bl_ncp` — the distributed DLS-BL-NCP mechanism,
  a convenience facade over :mod:`repro.protocol`.
* :mod:`repro.core.dls_star` / :mod:`repro.core.dls_chain` /
  :mod:`repro.core.dls_tree` — the paper's announced architecture
  extensions: the same compensation-and-bonus structure on star,
  linear daisy-chain and tree networks, each with physically grounded
  exclusion semantics and canonical (ungameable) service orders.
"""

from repro._lazy import attach

# Resolved on first use: the engine modules import one another through
# this package, and an eager facade import here would close a cycle
# (core.dls_bl_ncp -> agents.processor -> core.payments) for whichever
# of them a process happens to import first.
__getattr__, __dir__ = attach(__name__, {
    "repro.core.payments": ("bonus", "bonus_vector", "compensation",
                            "excluded_optimal_makespan", "payments",
                            "utilities"),
    "repro.core.dls_bl": ("DLSBL", "MechanismResult"),
    "repro.core.dls_star": ("DLSStar", "star_payments", "star_utilities"),
    "repro.core.dls_chain": ("DLSChain", "chain_payments", "chain_utilities"),
    "repro.core.dls_tree": ("DLSTree", "tree_bonus", "tree_excluded_makespan"),
    "repro.core.fines": ("FinePolicy",),
    "repro.core.referee": ("EvidenceCase", "Referee", "RefereeVerdict",
                           "Fine"),
    "repro.core.quorum": ("CommitteeConfig", "QuorumError",
                          "RefereeCommittee", "tolerated_faults"),
    "repro.core.dls_bl_ncp": ("DLSBLNCP", "EngineConfig", "NCPOutcome"),
})

__all__ = [
    "bonus",
    "bonus_vector",
    "compensation",
    "excluded_optimal_makespan",
    "payments",
    "utilities",
    "DLSBL",
    "DLSStar",
    "star_payments",
    "star_utilities",
    "DLSChain",
    "chain_payments",
    "chain_utilities",
    "DLSTree",
    "tree_bonus",
    "tree_excluded_makespan",
    "MechanismResult",
    "FinePolicy",
    "Referee",
    "RefereeVerdict",
    "Fine",
    "EvidenceCase",
    "CommitteeConfig",
    "RefereeCommittee",
    "QuorumError",
    "tolerated_faults",
    "DLSBLNCP",
    "EngineConfig",
    "NCPOutcome",
]
