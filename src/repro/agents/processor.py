"""The processor agent: strategy execution plus monitoring duties.

A :class:`ProcessorAgent` owns a private true value ``w_i``, a signing
key, and an :class:`~repro.agents.behaviors.AgentBehavior`.  It
implements every per-processor step of DLS-BL-NCP:

* produce (one or, when deviating, several) signed bids;
* verify and archive everyone else's signed bids, detecting
  equivocation;
* redundantly compute the allocation and check its own assignment;
* choose its execution rate (the meters observe the result);
* redundantly compute the payment vector and submit it signed;
* when disputes arise, hand its archived signed bid vector to the
  referee (possibly manipulated, per its strategy).

The honest code paths double as the *monitoring* role the mechanism
incentivizes: every check an honest agent performs corresponds to an
offence in the referee's catalogue.
"""

from __future__ import annotations

import json

import numpy as np

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.agents.board import BidBoard
from repro.core.payments import payments as compute_payments
from repro.crypto.pki import PKI
from repro.crypto.signatures import SignedMessage, SigningKey
from repro.dlt.closed_form import allocate
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.network.messages import Message, MessageKind

__all__ = ["ProcessorAgent"]


class ProcessorAgent:
    """One strategic processor participating in DLS-BL-NCP."""

    def __init__(
        self,
        name: str,
        w_true: float,
        behavior: AgentBehavior,
        *,
        key: SigningKey,
        pki: PKI,
        kind: NetworkKind,
        z: float,
    ) -> None:
        if w_true <= 0:
            raise ValueError(f"{name}: w_true must be positive, got {w_true}")
        self.name = name
        self.w_true = float(w_true)
        self.behavior = behavior
        self.key = key
        self.pki = pki
        self.kind = kind
        self.z = float(z)
        # Shared ComputationCache, injected by the engine when it runs
        # with redundancy="memoized"; None means every redundant
        # computation is performed independently (the paper's literal
        # procedure, kept for the equivalence tests).
        self.memo = None
        # The engagement's bid board; listen() installs the engine's.
        # Until then the board is empty, so an agent driven by hand
        # sees its own receptions alone.
        self._board = BidBoard(pki, [])
        # signer -> [(board position, message)] of the authentic bids
        # this agent received itself (its own bid, point-to-point
        # bids), in reception order
        self._own: dict[str, list[tuple[int, SignedMessage]]] = {}

    # ------------------------------------------------------------------
    # Bidding phase
    # ------------------------------------------------------------------

    @property
    def bid(self) -> float:
        """The (primary) reported per-unit processing time ``b_i``."""
        return self.behavior.bid_for(self.w_true)

    @property
    def exec_value(self) -> float:
        """The realized per-unit time ``w~_i`` (>= ``w_i`` by physics)."""
        return self.behavior.exec_value_for(self.w_true)

    def make_bid_messages(self) -> list[SignedMessage]:
        """Signed bid broadcast(s): ``S_Pi(b_i, P_i)``.

        The MULTIPLE_BIDS deviation issues a second, different signed
        bid — the offence the Bidding phase polices.
        """
        msgs = [self.key.sign({"processor": self.name, "bid": self.bid})]
        if Deviation.MULTIPLE_BIDS in self.behavior.deviations:
            alt = self.behavior.deviation_params.get("second_bid_factor", 0.5)
            msgs.append(self.key.sign({"processor": self.name, "bid": alt * self.bid}))
        return msgs

    # -- point-to-point bidding (no atomic broadcast; paper footnote 1) --

    def make_commitment(self):
        """Publish a commitment to this agent's primary bid.

        Returned for the bulletin; the opening nonce is kept and rides
        along with the point-to-point bid messages.
        """
        from repro.crypto.commitments import commit

        payload = {"processor": self.name, "bid": self.bid}
        commitment, nonce = commit(self.name, payload,
                                   nonce=self.key.commitment_nonce(payload))
        self._commit_nonce = nonce
        return commitment

    def make_p2p_bid_messages(
        self, peers: list[str], primary: SignedMessage,
    ) -> dict[str, tuple[SignedMessage, bytes]]:
        """Per-recipient signed bids (point-to-point networks).

        *primary* is this agent's signed primary bid, the object its own
        archive holds.  Honest agents send everyone that message.
        SPLIT_BIDS sends the chosen victim a different signed bid — the
        equivocation atomic broadcast physically rules out.  The commitment nonce
        (if one was made) accompanies every copy; the split copy cannot
        match the published commitment, which is how footnote-1
        commitments catch the attack.
        """
        nonce = getattr(self, "_commit_nonce", b"")
        out = {peer: (primary, nonce) for peer in peers if peer != self.name}
        if Deviation.SPLIT_BIDS in self.behavior.deviations:
            params = self.behavior.deviation_params
            victim = params.get("victim")
            candidates = [p for p in peers if p != self.name]
            if victim is None and candidates:
                victim = candidates[-1]
            if victim in out:
                alt_bid = params.get("split_bid_factor", 0.5) * self.bid
                alt = self.key.sign({"processor": self.name, "bid": alt_bid})
                out[victim] = (alt, nonce)
        return out

    def observe_p2p_bid(self, sm: SignedMessage, nonce: bytes,
                        bulletin: dict | None = None) -> None:
        """Receive a point-to-point bid; verify its commitment if any.

        Commitment mismatches are archived as evidence (the signed
        message itself proves what the sender transmitted) and the bid
        is still recorded — the protocol needs the value on file for
        the referee's cross-checks.
        """
        if not self.observe_bid(sm):
            return
        if bulletin is not None and sm.signer in bulletin:
            from repro.crypto.commitments import verify_commitment

            if not verify_commitment(bulletin[sm.signer], sm.payload, nonce):
                violations = getattr(self, "_commitment_violations", {})
                violations.setdefault(sm.signer, (sm, nonce))
                self._commitment_violations = violations

    def detect_commitment_violations(self) -> list[tuple[str, tuple[SignedMessage, bytes]]]:
        """Commitment mismatches this agent witnessed first-hand."""
        if Deviation.SILENT_OBSERVER in self.behavior.deviations:
            return []
        violations = getattr(self, "_commitment_violations", {})
        return [(accused, evidence)
                for accused, evidence in sorted(violations.items())
                if accused != self.name]

    def observe_bid(self, sm: SignedMessage) -> bool:
        """Archive a bid received first-hand if authentic; silently
        discard otherwise.  True iff archived.

        "If the message fails verification, it is discarded."  Distinct
        authentic payloads from one signer are all kept — they are the
        equivocation evidence.  Broadcast bids never come through here:
        the agent reads them off the engagement's :class:`BidBoard`.
        """
        if not self.pki.verify(sm):
            return False
        payload = sm.payload
        if not isinstance(payload, dict) or payload.get("processor") != sm.signer:
            return False
        self._own.setdefault(sm.signer, []).append((self._board.position, sm))
        return True

    def listen(self, board: BidBoard) -> None:
        """Hear the engagement's broadcast bids through *board*."""
        self._board = board

    def bus_handler(self, inbox: list, bulletin: dict):
        """Build this agent's bus message handler (the Endpoint duty).

        The handler receives the agent's point-to-point traffic only —
        broadcasts are entries on the medium, read through the bid
        board.  *inbox* is the shared list where received load blocks
        land (the engine holds the same reference, so it must be
        mutated in place); *bulletin* is the shared commitment board,
        consulted at call time so commitments published after
        attachment are seen.
        """
        name_tuple = (self.name,)
        BID, LOAD = MessageKind.BID, MessageKind.LOAD

        def handle(msg: Message) -> None:
            kind = msg.kind
            if kind is BID:
                body = msg.body
                if isinstance(body, dict) and "nonce" in body:
                    self.observe_p2p_bid(body["sm"], body["nonce"],
                                         bulletin or None)
                else:
                    self.observe_bid(body)
            elif kind is LOAD and msg.recipients == name_tuple:
                inbox.extend(msg.body)
        return handle

    # -- this agent's view of the bids ----------------------------------

    def _view(self) -> tuple[set[str], list[int]]:
        """Fold the board's new entries; return the signers whose
        archive, for this agent, may differ from the board's common
        view — those of broadcast bids it did not hear, and those it
        received bids from first-hand — with the positions of the bid
        entries it did not hear.  Every view reads the board through
        here."""
        board = self._board
        board.sync()
        missed = board.missed_by(self.name)
        differing = set(self._own)
        for position in missed:
            differing.update(board.signers_at(position))
        return differing, missed

    def _archive(self, signer: str, differing: set[str],
                 missed: list[int]) -> list[SignedMessage]:
        """*signer*'s distinct authentic bids in the order this agent
        received them, given :meth:`_view`'s answer: the board's entries
        it heard, interleaved with its own receptions (a reception
        precedes the entry at its recorded position)."""
        board = self._board
        if signer not in differing:
            return board.archive(signer)
        timeline = [(position, 0, sm)
                    for position, sm in self._own.get(signer, ())]
        timeline += [(position, 1, sm)
                     for position, sm in board.occurrences(signer)
                     if position not in missed]
        timeline.sort(key=lambda item: item[:2])
        archive = []
        for _, _, sm in timeline:
            if all(prior.canonical != sm.canonical for prior in archive):
                archive.append(sm)
        return archive

    def _archives(self, signers) -> list[list[SignedMessage]]:
        """Each of *signers*' archives, as this agent holds them."""
        differing, missed = self._view()
        return [self._archive(signer, differing, missed) for signer in signers]

    @property
    def _bid_archive(self) -> dict[str, list[SignedMessage]]:
        """Signer -> this agent's distinct authentic bids from it."""
        differing, missed = self._view()
        archive = {}
        for signer in dict.fromkeys([*self._own, *self._board.first_bids()]):
            msgs = self._archive(signer, differing, missed)
            if msgs:
                archive[signer] = msgs
        return archive

    def detect_equivocations(self) -> list[tuple[str, tuple[SignedMessage, SignedMessage]]]:
        """Equivocators this agent can prove, with the two-message evidence.

        SILENT_OBSERVER agents shirk and report nothing; deviants never
        report their own offence (they hold the same evidence everyone
        else does, but reporting it fines *them*).
        """
        if Deviation.SILENT_OBSERVER in self.behavior.deviations:
            return []
        # Only a signer equivocating in the common view, or one this
        # agent heard differently, can show two bids in its archive;
        # honest engagements have neither beyond the agent itself.
        differing, missed = self._view()
        candidates = (differing | set(self._board.equivocators())) - {self.name}
        found = []
        for signer in sorted(candidates):
            msgs = self._archive(signer, differing, missed)
            if len(msgs) >= 2:
                found.append((signer, (msgs[0], msgs[1])))
        return found

    def fabricate_equivocation_claim(self, participants: list[str]) -> tuple[str, tuple[SignedMessage, SignedMessage]] | None:
        """FALSE_EQUIVOCATION_CLAIM: accuse an innocent peer.

        The best a liar can do is present the victim's single authentic
        bid twice (it cannot forge a second one), which the referee
        rejects as non-probative.
        """
        if Deviation.FALSE_EQUIVOCATION_CLAIM not in self.behavior.deviations:
            return None
        victim = self.behavior.deviation_params.get("victim")
        candidates = [p for p in participants if p != self.name]
        if victim is None and candidates:
            victim = candidates[0]
        msgs = self._archives([victim])[0] if victim is not None else []
        if not msgs:
            return None
        return victim, (msgs[0], msgs[0])

    # ------------------------------------------------------------------
    # Allocation phase
    # ------------------------------------------------------------------

    def bid_view(self, order: list[str]) -> dict[str, float]:
        """This agent's view of the bid profile (first authentic bid wins).

        Under atomic broadcast every honest agent holds the same view.
        """
        return dict(zip(order, self._bid_tuple(order)))

    def _bid_tuple(self, order: list[str]) -> tuple:
        """The bid profile as a tuple, in *order* (cache-key form).

        Same data as :meth:`bid_view` without materializing the dict;
        used by the payment fast path where only the network key is
        needed.  Raises :class:`KeyError` for missing bids, like
        :meth:`bid_view`.
        """
        differing, missed = self._view()
        first = self._board.first_bids()
        bids = [first.get(name) for name in order]
        for signer in differing:
            if signer in order:
                msgs = self._archive(signer, differing, missed)
                bids[order.index(signer)] = (float(msgs[0].payload["bid"])
                                             if msgs else None)
        bids = tuple(bids)
        if None in bids:
            missing = order[bids.index(None)]
            raise KeyError(f"{self.name} holds no bid from {missing}")
        return bids

    def compute_allocation(self, order: list[str]) -> np.ndarray:
        """Redundant allocation computation (Algorithm 2.1 / 2.2).

        With an injected memo, the result is looked up by a content
        address of this agent's *own* bid view — agents with identical
        views share one computation, agents with poisoned views miss
        and compute their own, so memoization cannot hide divergence.
        """
        view = self.bid_view(order)
        w = tuple(view[n] for n in order)
        if self.memo is not None:
            net = self.memo.network(w, self.z, self.kind, tuple(order))
            return self.memo.allocation(net)
        return allocate(BusNetwork(w, self.z, self.kind, tuple(order)))

    def compute_survivor_allocation(self, survivors: list[str]) -> np.ndarray:
        """Re-solve the closed form over the surviving cohort.

        Used when a worker crashes mid-Processing: the unfinished load
        is re-divided among *survivors* (allocation order preserved, so
        the originator keeps its required position in both NCP kinds).
        """
        view = self.bid_view(survivors)
        w = tuple(view[n] for n in survivors)
        if self.memo is not None:
            net = self.memo.network(w, self.z, self.kind, tuple(survivors))
            return self.memo.allocation(net)
        return allocate(BusNetwork(w, self.z, self.kind, tuple(survivors)))

    def bid_snapshot(self, order: list[str]) -> list[SignedMessage]:
        """First archived signed bid per *order* member this agent holds.

        Unlike :meth:`bid_vector_messages` this is never manipulated —
        it is the raw archive, re-broadcast by the originator to heal
        bid views torn by message loss on point-to-point networks.
        (A lying originator gains nothing: the copies are signed by
        their original authors, so tampering is detectable and a
        divergent snapshot is equivocation evidence against it.)
        """
        return [msgs[0] for msgs in self._archives(order) if msgs]

    def planned_shipments(self, entitled_blocks: dict[str, int]) -> dict[str, int]:
        """As originator: blocks to actually ship to each recipient.

        Honest originators ship exactly the entitlement; SHORT/OVER
        deviations perturb the chosen victim's count.
        """
        plan = dict(entitled_blocks)
        dev = self.behavior.deviations
        params = self.behavior.deviation_params
        victim = params.get("victim")
        if victim is None:
            others = [n for n in plan if n != self.name]
            victim = others[0] if others else None
        if victim is not None and victim in plan:
            if Deviation.SHORT_ALLOCATION in dev:
                plan[victim] = max(0, plan[victim] - int(params.get("delta_blocks", 1)))
            elif Deviation.OVER_ALLOCATION in dev:
                plan[victim] = plan[victim] + int(params.get("delta_blocks", 1))
        return plan

    def disputes_assignment(self, received_blocks: int, entitled_blocks: int) -> bool:
        """Whether to signal the referee about the received assignment."""
        if Deviation.FALSE_ALLOCATION_CLAIM in self.behavior.deviations:
            return True
        if Deviation.SILENT_OBSERVER in self.behavior.deviations:
            return False
        return received_blocks != entitled_blocks

    def bid_vector_messages(self, order: list[str]) -> list[SignedMessage]:
        """The signed bid vector handed to the referee on disputes.

        MANIPULATED_BID_VECTOR re-signs this agent's own entry with an
        altered value (the only entry it *can* alter — it lacks every
        other private key).
        """
        vector = []
        for name, msgs in zip(order, self._archives(order)):
            if not msgs:
                raise KeyError(f"{self.name} holds no bid from {name}")
            vector.append(msgs[0])
        if Deviation.MANIPULATED_BID_VECTOR in self.behavior.deviations:
            scale = self.behavior.deviation_params.get("vector_bid_factor", 2.0)
            forged = self.key.sign({"processor": self.name, "bid": scale * self.bid})
            vector = [forged if sm.signer == self.name else sm for sm in vector]
        return vector

    @property
    def cooperates_with_remedy(self) -> bool:
        """Whether, as originator, it ships the referee-mediated remainder."""
        return Deviation.REFUSE_REMEDY not in self.behavior.deviations

    # ------------------------------------------------------------------
    # Payments phase
    # ------------------------------------------------------------------

    def payment_vector_messages(
        self,
        order: list[str],
        alpha: np.ndarray,
        phi: dict[str, float],
        *,
        w_exec: np.ndarray | None = None,
    ) -> list[SignedMessage]:
        """Compute ``Q`` from the broadcast meters and submit it signed.

        ``w~_j = phi_j / alpha_j`` (Computing Payments, Section 4).
        WRONG_PAYMENTS scales the vector; CONTRADICTORY_PAYMENTS sends
        two different signed copies.

        ``w_exec`` lets the engine pass the shared meter-derived vector
        (it is identical for every agent whenever all ``alpha_j > 0``,
        since the fallback to the agent's own bid view never triggers);
        omitted, the agent derives it itself exactly as the paper says.
        """
        if w_exec is None:
            view = self.bid_view(order)
            w = tuple(view[n] for n in order)
            w_exec = np.array([phi[n] / a if a > 0 else view[n]
                               for n, a in zip(order, alpha)])
        else:
            w = self._bid_tuple(order)
        dev = self.behavior.deviations
        if self.memo is not None and Deviation.WRONG_PAYMENTS not in dev:
            # Honest wire fast path: every agent with this view signs
            # the same payload, so the float list and its JSON fragment
            # come from the shared cache and only the per-agent
            # envelope (name + MAC) is built here.  The composed
            # canonical is byte-equal to canonical_bytes(payload):
            # keys sort as "Q" < "processor" and both fragments are
            # produced by the same json encoder.
            net = self.memo.network(w, self.z, self.kind, tuple(order))
            q_list, q_json = self.memo.payments_payload(net, w_exec)
            payload = {"processor": self.name, "Q": q_list}
            canon = ('{"Q":%s,"processor":%s}'
                     % (q_json, json.dumps(self.name))).encode()
            msgs = [self.key.sign(payload, canonical=canon)]
            if Deviation.CONTRADICTORY_PAYMENTS in dev:
                alt = dict(payload, Q=[x * 2.0 for x in q_list])
                msgs.append(self.key.sign(alt))
            return msgs
        if self.memo is not None:
            net = self.memo.network(w, self.z, self.kind, tuple(order))
            q = self.memo.payments(net, w_exec)
        else:
            q = compute_payments(BusNetwork(w, self.z, self.kind, tuple(order)),
                                 w_exec)
        if Deviation.WRONG_PAYMENTS in dev:
            q = q * self.behavior.deviation_params.get("payment_scale", 1.5)
        payload = {"processor": self.name, "Q": [float(x) for x in q]}
        msgs = [self.key.sign(payload)]
        if Deviation.CONTRADICTORY_PAYMENTS in dev:
            alt = dict(payload, Q=[float(x) * 2.0 for x in q])
            msgs.append(self.key.sign(alt))
        return msgs

    def __repr__(self) -> str:
        return (f"ProcessorAgent({self.name!r}, w={self.w_true}, "
                f"bid={self.bid:.3g}, exec={self.exec_value:.3g}, "
                f"deviations={sorted(d.value for d in self.behavior.deviations)})")
