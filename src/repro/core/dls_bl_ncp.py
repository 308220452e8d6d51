"""DLS-BL-NCP: the paper's contribution, as a one-call facade.

:class:`DLSBLNCP` assembles the full apparatus — PKI, user, referee,
payment infrastructure, bus, strategic agents — from a declarative
description (true values + behaviours), runs the protocol, and returns
the :class:`NCPOutcome`.  Experiments that sweep strategies construct a
fresh instance per run (the protocol is single-shot: fines terminate
it, and keys/ledgers are per-engagement).

Configuration travels in an :class:`EngineConfig`: one frozen record
holding everything beyond the instance triple ``(w_true, kind, z)``.
The historical keyword sprawl (``behaviors=``, ``policy=``, … passed
directly to the constructor) still works but is deprecated — it warns
and folds the keywords into an :class:`EngineConfig` internally, so the
two calling conventions are value-identical.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, fields, replace

from repro.agents.behaviors import AgentBehavior, truthful
from repro.agents.processor import ProcessorAgent
from repro.core.fines import FinePolicy
from repro.core.quorum import CommitteeConfig
from repro.crypto.pki import PKI
from repro.dlt.platform import NetworkKind
from repro.network.faults import FaultPlan
from repro.protocol.engine import (
    PhaseDeadlines,
    ProtocolEngine,
    ProtocolResult,
    RetryPolicy,
)

__all__ = ["NCPOutcome", "EngineConfig", "DLSBLNCP"]

NCPOutcome = ProtocolResult
"""Outcome of a DLS-BL-NCP run (alias of the engine's result record)."""


@dataclass(frozen=True)
class EngineConfig:
    """Everything a DLS-BL-NCP engagement needs beyond ``(w, kind, z)``.

    The preferred calling convention is
    ``DLSBLNCP(w, kind, z, config=EngineConfig(...))`` — one value to
    build, log, and pass around instead of nine keyword arguments.

    Fields
    ------
    behaviors:
        Strategy per processor (index-keyed dict or full list);
        ``None`` means everyone honest.
    policy:
        Fine policy (``F = safety_factor * sum alpha_j b_j``).
    num_blocks:
        Load-division granularity.
    names:
        Processor names (default ``P1..Pm``).
    bidding_mode:
        ``"atomic"`` | ``"commit"`` | ``"naive"`` (paper footnote 1).
    fault_plan:
        Optional fault injection; ``None`` runs on the reliable bus.
    deadlines / retry:
        Timeout and retransmission policy for fault-tolerant runs.
    redundancy:
        ``"memoized"`` (default) or ``"independent"`` — bit-identical
        results either way.
    pki_seed:
        Deterministic key minting (byte-identical wire traces).
    committee:
        ``None`` (default) adjudicates with the single trusted referee;
        a :class:`~repro.core.quorum.CommitteeConfig` replaces it with a
        Byzantine referee committee — every verdict then requires a
        verified quorum certificate before its fines bind.
    """

    behaviors: dict[int, AgentBehavior] | list[AgentBehavior] | None = None
    policy: FinePolicy | None = None
    num_blocks: int = 120
    names: list[str] | None = None
    bidding_mode: str = "atomic"
    fault_plan: FaultPlan | None = None
    deadlines: PhaseDeadlines | None = None
    retry: RetryPolicy | None = None
    redundancy: str = "memoized"
    pki_seed: int | None = None
    committee: CommitteeConfig | None = None


_CONFIG_FIELDS = tuple(f.name for f in fields(EngineConfig))


class DLSBLNCP:
    """Configure and run the distributed mechanism.

    Parameters
    ----------
    w_true:
        True per-unit processing times, in allocation order.
    kind:
        ``NCP_FE`` or ``NCP_NFE``.
    z:
        Per-unit bus communication time.
    config:
        The engagement configuration (see :class:`EngineConfig`).

    Any :class:`EngineConfig` field may still be passed directly as a
    keyword (``behaviors=...``, ``policy=...``, ...) — that legacy path
    emits a :class:`DeprecationWarning` and builds the equivalent
    config, so results are identical between conventions.

    Example
    -------
    >>> from repro.agents import misreport
    >>> mech = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, z=0.4,
    ...                 config=EngineConfig(behaviors={1: misreport(1.5)}))
    >>> outcome = mech.run()
    >>> outcome.completed
    True
    """

    def __init__(
        self,
        w_true,
        kind: NetworkKind,
        z: float,
        *,
        config: EngineConfig | None = None,
        bus=None,
        engagement_id: str | None = None,
        **legacy_kwargs,
    ) -> None:
        if legacy_kwargs:
            unknown = sorted(set(legacy_kwargs) - set(_CONFIG_FIELDS))
            if unknown:
                raise TypeError(
                    f"DLSBLNCP got unexpected keyword argument(s) {unknown}; "
                    f"EngineConfig fields are {list(_CONFIG_FIELDS)}")
            warnings.warn(
                "passing engagement options as direct keyword arguments to "
                "DLSBLNCP is deprecated; pass config=EngineConfig(...) "
                "instead (the result is identical)",
                DeprecationWarning, stacklevel=2)
            config = replace(config or EngineConfig(), **legacy_kwargs)
        config = config or EngineConfig()
        self.config = config

        w_true = [float(w) for w in w_true]
        m = len(w_true)
        if m < 2:
            raise ValueError("DLS-BL-NCP requires at least 2 processors")
        # Default names are interned: an outcome keys many maps by
        # name, and a caller that keeps outcomes then holds one copy
        # of each name rather than one per engagement.
        names = config.names or [sys.intern(f"P{i + 1}") for i in range(m)]
        behaviors = config.behaviors
        if isinstance(behaviors, dict):
            table = [behaviors.get(i, truthful()) for i in range(m)]
        elif behaviors is None:
            table = [truthful() for _ in range(m)]
        else:
            if len(behaviors) != m:
                raise ValueError(f"need {m} behaviors, got {len(behaviors)}")
            table = list(behaviors)

        self.pki = PKI(seed=config.pki_seed)
        self.user_key = self.pki.register("user")
        agents = []
        for name, w, behavior in zip(names, w_true, table):
            key = self.pki.register(name)
            agents.append(ProcessorAgent(name, w, behavior, key=key,
                                         pki=self.pki, kind=kind, z=z))
        self.engine = ProtocolEngine(
            agents, kind, z,
            pki=self.pki, user_key=self.user_key,
            policy=config.policy, num_blocks=config.num_blocks,
            bidding_mode=config.bidding_mode,
            fault_plan=config.fault_plan, deadlines=config.deadlines,
            retry=config.retry,
            redundancy=config.redundancy,
            committee=config.committee,
            # Transport injection (not part of the frozen EngineConfig —
            # a live bus is wiring, not engagement data): the arbiter
            # hands each mechanism a scoped view of the shared bus.
            bus=bus, engagement_id=engagement_id,
        )

    @classmethod
    def from_config(cls, w_true, kind: NetworkKind, z: float,
                    config: EngineConfig) -> "DLSBLNCP":
        """Explicit-name twin of ``DLSBLNCP(w, kind, z, config=...)``."""
        return cls(w_true, kind, z, config=config)

    @property
    def agents(self) -> list[ProcessorAgent]:
        return self.engine.agents

    def run(self) -> NCPOutcome:
        """Execute the protocol once."""
        return self.engine.run()
