"""Phase 1 — Bidding (Section 4).

All participants exchange signed bids (atomic broadcast, or
point-to-point with/without hash commitments per footnote 1), archive
and cross-check each other's messages, and may signal the referee.
Equivocation or a commitment violation terminates the engagement with a
fine; otherwise the runner fixes the active cohort, the canonical bid
profile and the fine amount for the rest of the run.
"""

from __future__ import annotations

from repro.dlt.platform import BusNetwork
from repro.network.messages import Message, MessageKind
from repro.protocol.context import (
    REFEREE,
    EngagementContext,
    PhaseOutcome,
    PhaseRunner,
)
from repro.protocol.phases import Phase

__all__ = ["BiddingRunner"]


class BiddingRunner(PhaseRunner):
    """Run the Bidding phase over the context's bus."""

    phase = Phase.BIDDING

    def run(self, ctx: EngagementContext) -> PhaseOutcome:
        mark = len(ctx.verdicts)
        faults = ctx.fault_plan
        originator = ctx.originator
        participants = [a for a in ctx.agents if not a.behavior.abstain]
        if faults:
            # A processor crashed before or at Bidding is a silent
            # bidder — indistinguishable from abstention to its peers.
            participants = [a for a in participants
                            if not self._crashed_by_bidding(faults, a.name)]
        active = [a.name for a in participants]
        reached_originator = {originator.name}
        if ctx.bidding_mode == "atomic":
            for agent in participants:
                msgs = agent.make_bid_messages()
                agent.observe_bid(msgs[0])  # archive own primary bid
                for sm in msgs:
                    ctx.bus.broadcast(Message(MessageKind.BID, agent.name,
                                              ("*",), sm))
        else:
            if ctx.bidding_mode == "commit":
                for agent in participants:
                    commitment = agent.make_commitment()
                    ctx.bulletin[agent.name] = commitment
                    ctx.bus.broadcast(Message(
                        MessageKind.COMMITMENT, agent.name, ("*",),
                        {"digest": commitment.digest},
                    ))
            window = ctx.deadlines.window_for(Phase.BIDDING)
            for agent in participants:
                # Sign the own primary bid once: the agent archives the
                # object its peers receive, verdict stamp included.
                primary = agent.key.sign(
                    {"processor": agent.name, "bid": agent.bid})
                agent.observe_bid(primary)
                p2p = agent.make_p2p_bid_messages(active, primary)
                for peer, (sm, nonce) in p2p.items():
                    delivered = ctx.send_with_retry(Message(
                        MessageKind.BID, agent.name, (peer,),
                        {"sm": sm, "nonce": nonce},
                        size_bytes=sm.size_bytes + len(nonce),
                    ), window=window)
                    if peer == originator.name and delivered:
                        reached_originator.add(agent.name)

        if faults and ctx.bidding_mode != "atomic":
            # A bid that never reached the originator within the retry
            # budget leaves that processor out of the engagement: the
            # originator cuts the load by its own archive, so to it the
            # silent bidder abstained.
            participants = [a for a in participants
                            if a.name in reached_originator]
            active = [a.name for a in participants]

        ctx.participants = participants
        ctx.active = active
        if originator.name not in active or len(active) < 2:
            # Without the data holder, or with a single bidder, there is
            # no engagement: everyone walks away with utility 0.
            return self._outcome(ctx, None, mark)

        # The bid view that drives the physical schedule is the
        # originator's: it cuts and ships the load.  Under atomic
        # broadcast that is every honest participant's view; on
        # point-to-point networks split bids may leave others with
        # different views — the attack the downstream checks catch.
        bids = ctx.originator.bid_view(active)
        ctx.bids = bids
        ctx.net_bids = BusNetwork(tuple(bids[n] for n in active), ctx.z,
                                  ctx.kind, tuple(active))
        ctx.fine = ctx.policy.fine_amount(ctx.net_bids)

        if faults and ctx.bidding_mode != "atomic":
            # Heal bid views torn by message loss: the originator
            # re-broadcasts its signed-bid archive.  Recipients verify
            # every signature, so the sync adds no trust in the
            # originator — a tampered snapshot is equivocation evidence
            # against whoever signed the divergent copy.
            ctx.bus.broadcast(Message(
                MessageKind.COHORT, originator.name, ("*",),
                originator.bid_snapshot(active)))

        if ctx.bidding_mode == "commit":
            violation = self._first_commitment_claim(participants)
            if violation is not None:
                claimant, accused, evidence = violation
                ctx.send_with_retry(
                    Message(MessageKind.CLAIM, claimant, (REFEREE,),
                            {"case": "commitment", "accused": accused}),
                    window=ctx.deadlines.evidence)
                verdict = ctx.referee.judge_commitment_violation(
                    claimant, accused, evidence,
                    ctx.bulletin.get(accused), active, ctx.fine)
                ctx.apply_verdict(verdict)
                return self._outcome(ctx, None, mark)

        claim = self._first_bidding_claim(participants, active)
        if claim is not None:
            claimant, accused, evidence = claim
            ctx.send_with_retry(
                Message(MessageKind.CLAIM, claimant, (REFEREE,),
                        {"case": "equivocation", "accused": accused}),
                window=ctx.deadlines.evidence)
            verdict = ctx.referee.judge_equivocation(
                claimant, accused, evidence, active, ctx.fine)
            ctx.apply_verdict(verdict)
            return self._outcome(ctx, None, mark)

        return self._outcome(ctx, Phase.ALLOCATING_LOAD, mark)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _crashed_by_bidding(faults, name: str) -> bool:
        """Whether *name*'s crash fault silences it from the start."""
        c = faults.crash_for(name)
        if c is None:
            return False
        if c.phase is not None:
            return c.phase.value <= Phase.BIDDING.value
        return c.at_time <= 0.0

    @staticmethod
    def _first_commitment_claim(participants: list):
        """First commitment violation any participant witnessed."""
        for agent in participants:
            violations = agent.detect_commitment_violations()
            if violations:
                accused, evidence = violations[0]
                return agent.name, accused, evidence
        return None

    @staticmethod
    def _first_bidding_claim(participants: list, active: list[str]):
        """The first claim any participant raises, in agent order.

        Genuine equivocation evidence takes precedence over fabricated
        claims for a given agent (a liar holding real evidence uses it —
        that is the profitable move).
        """
        for agent in participants:
            detections = agent.detect_equivocations()
            if detections:
                accused, evidence = detections[0]
                return agent.name, accused, evidence
            fab = agent.fabricate_equivocation_claim(active)
            if fab is not None:
                accused, evidence = fab
                return agent.name, accused, evidence
        return None
