"""The bid board: broadcast bids folded once, read through agent views.

A broadcast is one entry on the engagement's medium; the
:class:`~repro.agents.board.BidBoard` folds each ``BID``/``COHORT``
entry once and every agent derives its own view from that fold plus
what it received first-hand.  These tests pin the views against the
per-reception semantics they replace (who heard which entry decides
what an agent holds) and the scaling the fold buys.
"""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation, truthful
from repro.agents.board import BidBoard
from repro.agents.processor import ProcessorAgent
from repro.api import EngagementRequest, build_mechanism
from repro.crypto.pki import PKI
from repro.crypto.signatures import SigningKey
from repro.dlt.platform import NetworkKind
from repro.network.bus import Bus
from repro.network.faults import CrashFault, FaultPlan, FaultyBus
from repro.network.messages import Message, MessageKind
from repro.protocol.phases import Phase

NAMES = ("P1", "P2", "P3")


def wired(bus, behaviors=None):
    """Agents P1..P3 attached to *bus* and listening to one board."""
    pki = PKI(seed=5)
    board = BidBoard(pki, bus.medium)
    agents = {}
    for name, w in zip(NAMES, (2.0, 3.0, 5.0)):
        agent = ProcessorAgent(name, w, (behaviors or {}).get(name, truthful()),
                               key=pki.register(name), pki=pki,
                               kind=NetworkKind.NCP_FE, z=0.5)
        agent.listen(board)
        bus.attach(name, agent.bus_handler([], {}))
        agents[name] = agent
    return pki, board, agents


def broadcast_bids(bus, agents):
    """The atomic Bidding phase: archive the own bid, then broadcast."""
    for agent in agents.values():
        msgs = agent.make_bid_messages()
        agent.observe_bid(msgs[0])
        for sm in msgs:
            bus.broadcast(Message(MessageKind.BID, agent.name, ("*",), sm))


class TestFold:
    def test_each_entry_is_folded_once(self):
        bus = Bus(0.5)
        _, board, agents = wired(bus)
        broadcast_bids(bus, agents)
        assert board.first_bids() == {}     # nothing folded before sync()
        assert board.sync() == 3
        assert board.sync() == 3            # nothing new to fold
        bus.broadcast(Message(MessageKind.METER, "P1", ("*",), {}))
        assert board.sync() == 3            # not a bid entry
        assert board.first_bids() == {"P1": 2.0, "P2": 3.0, "P3": 5.0}

    def test_one_hmac_verify_per_signed_message(self, monkeypatch):
        verified = []
        real_verify = SigningKey.verify

        def counting_verify(key, signed):
            verified.append((signed.signer, signed.canonical,
                             signed.signature))
            return real_verify(key, signed)

        monkeypatch.setattr(SigningKey, "verify", counting_verify)
        bus = Bus(0.5)
        _, board, agents = wired(bus)
        broadcast_bids(bus, agents)
        for agent in agents.values():
            agent.bid_view(list(NAMES))
            agent.detect_equivocations()
        assert sorted(verified) == sorted(set(verified))
        assert len(verified) == 3

    def test_forged_and_mislabelled_bids_are_discarded(self):
        bus = Bus(0.5)
        _, board, agents = wired(bus)
        rogue = SigningKey("P2")          # not P2's registered key
        forged = rogue.sign({"processor": "P2", "bid": 1.0})
        mislabelled = agents["P3"].key.sign({"processor": "P1", "bid": 1.0})
        bus.broadcast(Message(MessageKind.BID, "P2", ("*",), forged))
        bus.broadcast(Message(MessageKind.BID, "P3", ("*",), mislabelled))
        assert board.sync() == 0
        assert board.first_bids() == {}
        assert agents["P1"]._bid_archive == {}

    def test_equivocation_is_flagged_once(self):
        bus = Bus(0.5)
        _, board, agents = wired(bus, behaviors={
            "P2": AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        broadcast_bids(bus, agents)
        board.sync()
        assert board.equivocators() == ["P2"]
        assert len(board.archive("P2")) == 2
        # The first bid wins for everyone, the equivocator included.
        assert board.first_bids()["P2"] == 3.0


class TestAgentViews:
    def test_sender_does_not_hear_its_own_broadcast(self):
        bus = Bus(0.5)
        _, _, agents = wired(bus, behaviors={
            "P2": AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        broadcast_bids(bus, agents)
        # P2 holds only the bid it archived itself; everyone else heard
        # both of its broadcasts and can prove the equivocation.
        assert len(agents["P2"]._bid_archive["P2"]) == 1
        assert agents["P2"].detect_equivocations() == []
        for name in ("P1", "P3"):
            (accused, (a, b)), = agents[name].detect_equivocations()
            assert accused == "P2" and a.canonical != b.canonical

    def test_views_agree_under_atomic_broadcast(self):
        bus = Bus(0.5)
        _, _, agents = wired(bus)
        broadcast_bids(bus, agents)
        views = {a.bid_view(list(NAMES)) == {"P1": 2.0, "P2": 3.0, "P3": 5.0}
                 for a in agents.values()}
        assert views == {True}

    def test_crashed_listener_misses_later_entries(self):
        plan = FaultPlan(crashes=(CrashFault("P3", phase=Phase.BIDDING),))
        bus = FaultyBus(0.5, plan=plan)
        _, _, agents = wired(bus)
        bus.enter_phase(Phase.BIDDING)
        live = {n: a for n, a in agents.items() if n != "P3"}
        broadcast_bids(bus, live)
        assert [r.detail for r in bus.fault_log
                if r.kind == "lost-to-crashed"] == ["bid->P3", "bid->P3"]
        with pytest.raises(KeyError):
            agents["P3"].bid_view(["P1", "P2"])
        assert agents["P1"].bid_view(["P1", "P2"]) == {"P1": 2.0, "P2": 3.0}

    def test_detached_listener_misses_later_entries(self):
        bus = Bus(0.5)
        _, _, agents = wired(bus)
        bus.detach("P3")
        broadcast_bids(bus, {n: agents[n] for n in ("P1", "P2")})
        with pytest.raises(KeyError):
            agents["P3"].bid_view(["P1"])
        assert agents["P2"].bid_view(["P1"]) == {"P1": 2.0}

    def test_first_hand_reception_interleaves_with_the_medium(self):
        # A point-to-point bid received before a COHORT re-broadcast of
        # a different bid from the same signer is that agent's first
        # bid; the re-broadcast adds the second (equivocation evidence).
        bus = Bus(0.5)
        _, _, agents = wired(bus)
        p2 = agents["P2"]
        early = p2.key.sign({"processor": "P2", "bid": 7.0})
        late = p2.key.sign({"processor": "P2", "bid": 3.0})
        agents["P1"].observe_bid(early)
        bus.broadcast(Message(MessageKind.COHORT, "P3", ("*",), [late]))
        assert agents["P1"].bid_view(["P2"]) == {"P2": 7.0}
        assert [m.payload["bid"]
                for m in agents["P1"]._bid_archive["P2"]] == [7.0, 3.0]
        # P3 sent the COHORT and heard nothing first-hand.
        with pytest.raises(KeyError):
            agents["P3"].bid_view(["P2"])


def handler_calls(m, monkeypatch):
    """Agent handler calls in one honest engagement of *m* processors."""
    calls = [0]
    real = ProcessorAgent.bus_handler

    def counting(self, inbox, bulletin):
        handle = real(self, inbox, bulletin)

        def counted(msg):
            calls[0] += 1
            handle(msg)
        return counted

    monkeypatch.setattr(ProcessorAgent, "bus_handler", counting)
    w = tuple(1.0 + (i % 7) for i in range(m))
    build_mechanism(EngagementRequest(w=w, z=0.2, pki_seed=3)).run()
    return calls[0]


def test_handler_calls_grow_linearly_in_m(monkeypatch):
    # A broadcast is heard, not pushed: honest engagements make O(m)
    # agent handler calls (the load deliveries), not one per
    # (listener, broadcast) pair.
    small = handler_calls(32, monkeypatch)
    large = handler_calls(64, monkeypatch)
    assert large <= 2.2 * small
