"""Phase 4 — Computing Payments (Section 4).

Every participant redundantly computes the payment vector ``Q`` from
the broadcast meters and submits it signed; the referee verifies that
all vectors agree (recomputing on disagreement), fines wrong-doers, and
fixes the settled ``Q``.  A payment-phase fine does not void the
completed computation — the engagement still settles on the referee's
vector, with fines and informer rewards applied on top.  Processors
that crashed after finishing their work are declared unresponsive and
paid for the completed, metered work without a fine.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.network.messages import Message, MessageKind
from repro.protocol.context import (
    REFEREE,
    EngagementContext,
    PhaseOutcome,
    PhaseRunner,
)
from repro.protocol.phases import Phase

__all__ = ["PaymentsRunner"]


class PaymentsRunner(PhaseRunner):
    """Run the Computing-Payments phase over the context's bus."""

    phase = Phase.COMPUTING_PAYMENTS

    def run(self, ctx: EngagementContext) -> PhaseOutcome:
        mark = len(ctx.verdicts)
        active = ctx.active
        faults = ctx.fault_plan
        # Processors that finished their work but crashed before this
        # round: no payment vector, no fine (a fault, not an offence),
        # full payment for the completed, metered work.
        late = ([n for n in active if ctx.bus.is_crashed(n)]
                if faults else [])
        late_set = frozenset(late)
        for name in late:
            ctx.apply_verdict(ctx.referee.judge_unresponsive(
                name, [n for n in active if n not in late_set]))

        submissions: dict[str, list] = {}
        silenced: list[str] = []
        # Every agent derives the same w~ vector from the broadcast
        # meters whenever all alpha_j > 0 (the per-agent fallback to
        # its own bid view never fires), so it is computed once here —
        # elementwise float division, bit-identical to the per-agent
        # derivation — instead of m times in Python.
        alpha = ctx.alpha
        if (alpha > 0).all():
            phi_arr = np.fromiter((ctx.phi[n] for n in active), dtype=float,
                                  count=len(active))
            shared_exec = phi_arr / alpha
        else:
            shared_exec = None
        window = ctx.deadlines.window_for(Phase.COMPUTING_PAYMENTS)
        for agent in ctx.participants:
            if agent.name in late_set:
                continue
            msgs = agent.payment_vector_messages(active, alpha, ctx.phi,
                                                 w_exec=shared_exec)
            arrived = []
            for sm in msgs:
                got = ctx.send_with_retry(
                    Message(MessageKind.PAYMENT_VECTOR, agent.name,
                            (REFEREE,), sm),
                    window=window)
                if got:
                    arrived.append(sm)
            if len(arrived) == len(msgs):
                submissions[agent.name] = arrived
            elif faults:
                # The transport, not the agent, ate the vector (retry
                # budget exhausted): fold into the unresponsive path
                # rather than fining an agent for a network fault.
                silenced.append(agent.name)
            elif arrived:
                submissions[agent.name] = arrived
        unheard = late_set | frozenset(silenced)
        for name in silenced:
            ctx.apply_verdict(ctx.referee.judge_unresponsive(
                name, [n for n in active if n not in unheard]))

        @functools.cache
        def bid_vectors():
            # m vectors of m signed bids: built only if the referee
            # finds a wrong payment vector, the one case that reads
            # them, and only once however many referees judge the case.
            return {a.name: a.bid_vector_messages(active)
                    for a in ctx.participants if a.name not in unheard}

        verdict = ctx.referee.judge_payment_vectors(
            submissions,
            participants=[n for n in active if n not in unheard],
            order=active,
            bids=ctx.bids,
            w_exec=ctx.w_obs,
            kind=ctx.kind,
            z=ctx.z,
            fine=ctx.fine,
            bid_vectors=bid_vectors,
        )
        if verdict.fines:
            ctx.apply_verdict(verdict)

        # The settled vector: the (referee-verified or recomputed)
        # payments, from the broadcast meter readings.
        from repro.core.payments import payments as compute_payments

        exec_arr = np.array([ctx.w_obs[n] for n in active])
        q = (ctx.memo.payments(ctx.net_bids, exec_arr)
             if ctx.memo is not None
             else compute_payments(ctx.net_bids, exec_arr))
        ctx.payments = dict(zip(active, map(float, q)))
        ctx.costs = {n: ctx.alpha_map[n] * ctx.w_exec[n] for n in active}
        ctx.completed = True
        ctx.terminal_phase = Phase.COMPLETE
        ctx.degraded = bool(late or silenced)
        ctx.crashed = tuple(late) + tuple(silenced)
        return self._outcome(ctx, None, mark)
