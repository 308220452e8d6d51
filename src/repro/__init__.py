"""repro: strategyproof divisible-load scheduling on bus networks.

A full reproduction of Carroll & Grosu, *A Strategyproof Mechanism for
Scheduling Divisible Loads in Bus Networks without Control Processor*
(IPPS/IPDPS Workshops 2006): classical Divisible Load Theory solvers
for the three bus-network system models, the centralized DLS-BL
mechanism (compensation-and-bonus payments with verification), and the
distributed DLS-BL-NCP mechanism with strategic agents, a simulated
PKI, a shared-bus transport, referee-adjudicated fines and informer
rewards — plus the future-work extensions (star / linear / tree
architectures, multiround scheduling) the paper announces.

Quickstart::

    from repro import DLSBL, DLSBLNCP, NetworkKind

    # centralized mechanism (trusted control processor)
    mech = DLSBL(NetworkKind.CP, z=0.3)
    result = mech.run(bids=[2.0, 3.0, 5.0], w_exec=[2.0, 3.0, 5.0])

    # distributed mechanism (no control processor)
    outcome = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, z=0.3).run()

    # the versioned façade (requests as plain data; see repro.api)
    from repro import EngagementRequest, execute
    result = execute(EngagementRequest(w=(2.0, 3.0, 5.0), z=0.3))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every figure and theorem.
"""

from repro._lazy import attach

# Resolved on first use: a process that only speaks the wire never
# loads the engine (see DESIGN.md §4.9).
__getattr__, __dir__ = attach(__name__, {
    "repro.api": ("ApiError", "BenchRequest", "EngagementRequest",
                  "EngineConfig", "RunOptions", "SweepRequest", "execute"),
    "repro.core": ("DLSBL", "DLSBLNCP", "FinePolicy", "MechanismResult",
                   "NCPOutcome", "Referee"),
    "repro.dlt": ("BusNetwork", "NetworkKind", "allocate", "finish_times",
                  "makespan"),
})

__version__ = "1.1.0"

__all__ = [
    "DLSBL",
    "DLSBLNCP",
    "FinePolicy",
    "MechanismResult",
    "NCPOutcome",
    "Referee",
    "BusNetwork",
    "NetworkKind",
    "allocate",
    "finish_times",
    "makespan",
    "ApiError",
    "EngagementRequest",
    "SweepRequest",
    "BenchRequest",
    "EngineConfig",
    "RunOptions",
    "execute",
    "__version__",
]
