"""Tests for the fault-injection layer (FaultPlan / FaultyBus)."""

import pytest

from repro.network.bus import Bus
from repro.network.faults import (
    CrashFault,
    FaultPlan,
    FaultyBus,
    MessageFault,
    RefereeFault,
    StallFault,
)
from repro.network.messages import Message, MessageKind
from repro.protocol.phases import Phase


def make_bus(plan=None, z=0.5):
    bus = FaultyBus(z, plan=plan)
    inboxes = {}
    for name in ("P1", "P2", "P3"):
        inboxes[name] = []
        bus.attach(name, inboxes[name].append)
    return bus, inboxes


class TestPlanValidation:
    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            CrashFault("P1")
        with pytest.raises(ValueError):
            CrashFault("P1", phase=Phase.BIDDING, at_time=1.0)

    def test_crash_progress_bounds(self):
        with pytest.raises(ValueError):
            CrashFault("P1", phase=Phase.PROCESSING_LOAD, progress=1.5)

    def test_duplicate_crash_names_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(CrashFault("P1", at_time=1.0),
                               CrashFault("P1", at_time=2.0)))

    def test_message_fault_validation(self):
        with pytest.raises(ValueError):
            MessageFault(action="explode")
        with pytest.raises(ValueError):
            MessageFault(action="delay", delay=0.0)
        with pytest.raises(ValueError):
            MessageFault(probability=1.5)

    def test_stall_validation(self):
        with pytest.raises(ValueError):
            StallFault(factor=0.5)
        with pytest.raises(ValueError):
            StallFault(extra_time=-1.0)

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(meter_outages=("P1",)).empty


class TestEmptyPlanNoOp:
    def test_wire_trace_matches_plain_bus(self):
        # The strict no-op guarantee: identical log, stats and schedule.
        def drive(bus):
            inbox = []
            for name in ("P1", "P2"):
                bus.attach(name, inbox.append)
            bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"b": 2.0}))
            bus.send(Message(MessageKind.CLAIM, "P2", ("P1",), {"c": 1}))
            bus.transfer_load("P1", "P2", 0.25, ["blk"])
            bus.queue.run()
            return inbox, bus

        plain_inbox, plain = drive(Bus(0.5))
        faulty_inbox, faulty = drive(FaultyBus(0.5, plan=FaultPlan()))
        assert [m.kind for m in faulty.log] == [m.kind for m in plain.log]
        assert faulty.stats == plain.stats
        assert faulty.queue.now == plain.queue.now
        assert [m.kind for m in faulty_inbox] == [m.kind for m in plain_inbox]
        assert faulty.fault_log == []


class TestMessageFaults:
    def test_drop(self):
        plan = FaultPlan(messages=(MessageFault(action="drop",
                                                recipient="P2"),))
        bus, inboxes = make_bus(plan)
        got = bus.send(Message(MessageKind.CLAIM, "P1", ("P2", "P3"), {}))
        assert got == ("P3",)
        assert inboxes["P2"] == []
        assert len(inboxes["P3"]) == 1
        assert bus.fault_counts() == {"drop": 1}

    def test_drop_respects_max_applications(self):
        plan = FaultPlan(messages=(MessageFault(action="drop",
                                                max_applications=1),))
        bus, inboxes = make_bus(plan)
        assert bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {})) == ()
        assert bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {})) == ("P2",)
        assert len(inboxes["P2"]) == 1

    def test_delay_delivers_later_but_unacked(self):
        plan = FaultPlan(messages=(MessageFault(action="delay", delay=2.0),))
        bus, inboxes = make_bus(plan)
        got = bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {}))
        assert got == ()          # not delivered *now* -> no ack
        assert inboxes["P2"] == []
        bus.queue.run()
        assert len(inboxes["P2"]) == 1
        assert bus.queue.now == pytest.approx(2.0)

    def test_duplicate_delivers_twice(self):
        plan = FaultPlan(messages=(MessageFault(action="duplicate"),))
        bus, inboxes = make_bus(plan)
        got = bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {}))
        assert got == ("P2",)
        assert len(inboxes["P2"]) == 2

    def test_probabilistic_drop_is_seed_reproducible(self):
        def deliveries(seed):
            plan = FaultPlan(seed=seed, messages=(
                MessageFault(action="drop", probability=0.5),))
            bus, _ = make_bus(plan)
            out = []
            for _ in range(20):
                out.append(bus.send(
                    Message(MessageKind.CLAIM, "P1", ("P2",), {})))
            return out

        assert deliveries(7) == deliveries(7)
        assert deliveries(7) != deliveries(8)

    def test_load_messages_never_matched(self):
        plan = FaultPlan(messages=(MessageFault(action="drop"),))
        bus, inboxes = make_bus(plan)
        bus.transfer_load("P1", "P2", 0.5, ["blk"])
        bus.queue.run()
        assert len(inboxes["P2"]) == 1

    def test_broadcast_immune_to_message_faults(self):
        # Atomic broadcast is a physical-medium property (paper §4):
        # only crash-stop silences a listener.
        plan = FaultPlan(messages=(MessageFault(action="drop"),))
        bus, _ = make_bus(plan)
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"b": 1.0}))
        (entry,) = bus.medium
        assert entry.hearers == ("P2", "P3")
        assert bus.fault_log == []


class TestCrashes:
    def test_phase_crash_silences_listener_and_sender(self):
        plan = FaultPlan(crashes=(CrashFault(
            "P2", phase=Phase.ALLOCATING_LOAD),))
        bus, inboxes = make_bus(plan)
        bus.enter_phase(Phase.BIDDING)
        assert not bus.is_crashed("P2")
        bus.enter_phase(Phase.ALLOCATING_LOAD)
        assert bus.is_crashed("P2")
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"b": 1.0}))
        (entry,) = bus.medium
        assert not entry.heard_by("P2")      # the crashed listener is deaf
        assert entry.hearers == ("P3",)
        assert [(r.kind, r.detail) for r in bus.fault_log
                if r.kind == "lost-to-crashed"] == [("lost-to-crashed",
                                                      "bid->P2")]
        assert bus.send(Message(MessageKind.CLAIM, "P2", ("P1",), {})) == ()
        assert inboxes["P1"] == []
        # A crashed sender's broadcast never reaches the medium.
        bus.broadcast(Message(MessageKind.BID, "P2", ("*",), {"b": 2.0}))
        assert len(bus.medium) == 1

    def test_timed_crash(self):
        plan = FaultPlan(crashes=(CrashFault("P2", at_time=1.0),))
        bus, inboxes = make_bus(plan)
        assert bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {})) == ("P2",)
        bus.queue.run_until(1.5)
        assert bus.is_crashed("P2")
        assert bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {})) == ()
        assert len(inboxes["P2"]) == 1

    def test_load_to_crashed_occupies_port_but_is_lost(self):
        plan = FaultPlan(crashes=(CrashFault("P2", phase=Phase.BIDDING),))
        bus, inboxes = make_bus(plan)
        bus.enter_phase(Phase.BIDDING)
        done = bus.transfer_load("P1", "P2", 1.0, ["blk"])
        assert done == pytest.approx(0.5)
        assert bus.port_free_at == pytest.approx(0.5)
        bus.queue.run()
        assert inboxes["P2"] == []
        assert "lost-to-crashed" in bus.fault_counts()

    def test_crash_cancels_in_flight_deliveries(self):
        plan = FaultPlan(crashes=(CrashFault("P2", at_time=0.1),))
        bus, inboxes = make_bus(plan)
        bus.transfer_load("P1", "P2", 1.0, ["blk"])  # would land at 0.5
        bus.queue.run_until(0.2)
        assert bus.is_crashed("P2")
        bus.queue.run()
        assert inboxes["P2"] == []


class TestStalls:
    def test_stall_stretches_transfer(self):
        plan = FaultPlan(stalls=(StallFault(recipient="P2", factor=3.0,
                                            extra_time=0.1),))
        bus, _ = make_bus(plan)
        done = bus.transfer_load("P1", "P2", 1.0, ["blk"])
        assert done == pytest.approx(0.5 * 3.0 + 0.1)
        done3 = bus.transfer_load("P1", "P3", 1.0, ["blk"])
        assert done3 == pytest.approx(done + 0.5)  # P3 unaffected

    def test_stall_records_fault(self):
        plan = FaultPlan(stalls=(StallFault(factor=2.0),))
        bus, _ = make_bus(plan)
        bus.transfer_load("P1", "P2", 1.0, ["blk"])
        assert bus.fault_counts() == {"stall": 1}


def quorum_bus(plan):
    bus = FaultyBus(0.5, plan=plan)
    inboxes = {}
    for name in ("referee-1", "referee-2", "P1"):
        inboxes[name] = []
        bus.attach(name, inboxes[name].append)
    return bus, inboxes


class TestRefereeFaults:
    def test_validation(self):
        with pytest.raises(ValueError, match="action"):
            RefereeFault("referee-1", action="bribable")
        with pytest.raises(ValueError, match="delay"):
            RefereeFault("referee-1", action="delay")
        with pytest.raises(ValueError, match="probability"):
            RefereeFault("referee-1", action="drop", probability=2.0)

    def test_strategy_vs_transport_split(self):
        assert RefereeFault("referee-1", action="silent").is_strategy
        assert RefereeFault("referee-1", action="fine-steal").is_strategy
        assert not RefereeFault("referee-1", action="crash").is_strategy
        assert not RefereeFault("referee-1", action="drop").is_strategy

    def test_plan_partitions_referee_faults(self):
        plan = FaultPlan(referees=(
            RefereeFault("referee-1", action="crash"),
            RefereeFault("referee-2", action="equivocate"),
            RefereeFault("referee-3", action="drop"),
        ))
        assert plan.referee_crashes() == ("referee-1",)
        assert plan.referee_strategies() == {"referee-2": "equivocate"}
        assert not plan.empty

    def test_transport_rule_only_matches_quorum_traffic(self):
        rule = RefereeFault("referee-1", action="drop")
        quorum = Message(MessageKind.QUORUM_VOTE, "referee-1",
                         ("referee-2",), {})
        control = Message(MessageKind.CLAIM, "referee-1", ("P1",), {})
        assert rule.matches(quorum, "referee-2")
        assert rule.matches(
            Message(MessageKind.QUORUM_PROPOSAL, "referee-2",
                    ("referee-1",), {}), "referee-1")
        assert not rule.matches(control, "P1")
        assert rule.matches(quorum, "P1")  # the member is the sender
        assert not rule.matches(
            Message(MessageKind.QUORUM_VOTE, "referee-3",
                    ("referee-4",), {}), "referee-4")

    def test_drop_applies_on_the_bus(self):
        plan = FaultPlan(referees=(
            RefereeFault("referee-1", action="drop", max_applications=1),))
        bus, inboxes = quorum_bus(plan)
        vote = Message(MessageKind.QUORUM_VOTE, "referee-2",
                       ("referee-1",), {})
        assert bus.send(vote) == ()
        assert bus.send(vote) == ("referee-1",)
        assert len(inboxes["referee-1"]) == 1
        assert bus.fault_counts() == {"drop": 1}

    def test_referee_crash_precedes_all_phases(self):
        plan = FaultPlan(referees=(RefereeFault("referee-1",
                                                action="crash"),))
        bus, inboxes = quorum_bus(plan)
        assert bus.is_crashed("referee-1")
        got = bus.send(Message(MessageKind.QUORUM_PROPOSAL, "referee-2",
                               ("referee-1",), {}))
        assert got == ()
        assert inboxes["referee-1"] == []
        # ...and it cannot speak either.
        assert bus.send(Message(MessageKind.QUORUM_VOTE, "referee-1",
                                ("referee-2",), {})) == ()

    def test_wildcard_message_fault_skips_quorum_traffic(self):
        # A seeded plan written before committees existed must hit the
        # same processor messages after one is armed: wildcard rules
        # never consume an RNG draw on committee-internal traffic.
        plan = FaultPlan(messages=(MessageFault(action="drop"),))
        bus, inboxes = quorum_bus(plan)
        vote = Message(MessageKind.QUORUM_VOTE, "referee-2",
                       ("referee-1",), {})
        assert bus.send(vote) == ("referee-1",)
        # An explicitly-typed rule still can.
        typed = FaultPlan(messages=(
            MessageFault(action="drop", kind=MessageKind.QUORUM_VOTE),))
        bus2, _ = quorum_bus(typed)
        assert bus2.send(vote) == ()
