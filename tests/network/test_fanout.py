"""Deferred fan-out delivery: one queue event per delivery.

A deferred delivery — a load transfer, or a delayed unicast to several
addressees — is one :class:`~repro.network.bus.LogEntry` scheduled on
the event queue with its whole addressee list, the same entry type a
broadcast puts on the medium.  These tests pin the per-addressee
semantics: who will hear the entry, that detaching or crashing one
addressee drops only that name, that the event is cancelled only once
nobody is left, and that FaultyBus delay rules grouping addressees
still deliver exactly once per survivor.
"""

import pytest

from repro.network.bus import Bus, LogEntry
from repro.network.events import EventQueue
from repro.network.faults import FaultPlan, FaultyBus, MessageFault
from repro.network.messages import Message, MessageKind


def recorder():
    got = []
    return got, got.append


class TestFanOutDelivery:
    def make(self, recipients=("A", "B")):
        got_a, h_a = recorder()
        got_b, h_b = recorder()
        endpoints = {"A": h_a, "B": h_b}
        msg = Message(MessageKind.CLAIM, "S", tuple(recipients), {"x": 1})
        entry = LogEntry(msg, 1.0, tuple(recipients), endpoints=endpoints)
        return entry, got_a, got_b

    def test_delivers_to_every_recipient(self):
        delivery, got_a, got_b = self.make()
        assert delivery.hearers == ("A", "B")
        delivery()
        assert len(got_a) == 1 and len(got_b) == 1
        assert got_a[0] is got_b[0] is delivery.msg

    def test_drop_removes_one_recipient_only(self):
        delivery, got_a, got_b = self.make()
        delivery.drop("A")
        assert not delivery.heard_by("A") and delivery.heard_by("B")
        delivery()
        assert got_a == [] and len(got_b) == 1

    def test_drop_is_idempotent(self):
        delivery, _, got_b = self.make()
        delivery.drop("A")
        delivery.drop("A")
        delivery.drop("never-there")
        assert delivery.deaf == ("A",)
        delivery()
        assert len(got_b) == 1

    def test_dropping_last_recipient_cancels_the_event(self):
        q = EventQueue()
        delivery, _, _ = self.make()
        delivery.event = q.schedule(1.0, delivery, label="fanout")
        delivery.drop("A")
        assert not delivery.event.cancelled
        delivery.drop("B")
        assert delivery.event.cancelled
        assert q.pending == 0

    def test_endpoint_table_is_live(self):
        # Resolution happens at fire time: an endpoint gone from the
        # table by then is skipped even if never drop()ed.
        delivery, got_a, got_b = self.make()
        del delivery._endpoints["A"]
        delivery()
        assert got_a == [] and len(got_b) == 1


class TestBusDeferredDelivery:
    def test_transfer_load_is_one_event(self):
        bus = Bus(0.5)
        got, handler = recorder()
        bus.attach("S", lambda m: None)
        bus.attach("W", handler)
        done = bus.transfer_load("S", "W", 2.0, body=("blocks",))
        assert done == pytest.approx(1.0)
        assert bus.queue.pending == 1
        bus.queue.run()
        assert len(got) == 1
        assert got[0].kind is MessageKind.LOAD
        assert got[0].body == ("blocks",)

    def test_detach_before_delivery_suppresses_it(self):
        bus = Bus(0.5)
        got, handler = recorder()
        bus.attach("S", lambda m: None)
        bus.attach("W", handler)
        bus.transfer_load("S", "W", 2.0, body=("blocks",))
        bus.detach("W")
        bus.queue.run()
        assert got == []
        assert bus.queue.pending == 0


class TestFaultyBusDelayGrouping:
    def plan(self, delay=0.25):
        return FaultPlan(messages=(
            MessageFault(action="delay", probability=1.0, delay=delay),))

    def build(self, plan):
        bus = FaultyBus(0.5, plan=plan)
        got_a, h_a = recorder()
        got_b, h_b = recorder()
        bus.attach("S", lambda m: None)
        bus.attach("A", h_a)
        bus.attach("B", h_b)
        return bus, got_a, got_b

    def test_same_delay_recipients_share_one_event(self):
        bus, got_a, got_b = self.build(self.plan())
        msg = Message(MessageKind.CLAIM, "S", ("A", "B"), {"x": 1})
        delivered = bus.send(msg)
        assert delivered == ()                       # nothing arrived yet
        assert bus.queue.pending == 1                # one event, two riders
        assert [r.kind for r in bus.fault_log] == ["delay", "delay"]
        bus.queue.run()
        assert len(got_a) == 1 and len(got_b) == 1
        assert got_a[0].body == {"x": 1}

    def test_detach_drops_one_rider_from_delayed_fanout(self):
        bus, got_a, got_b = self.build(self.plan())
        bus.send(Message(MessageKind.CLAIM, "S", ("A", "B"), {"x": 1}))
        bus.detach("B")
        bus.queue.run()
        assert len(got_a) == 1 and got_b == []

    def test_detach_of_sole_rider_cancels_the_event(self):
        bus, got_a, _ = self.build(self.plan())
        bus.send(Message(MessageKind.CLAIM, "S", ("A",), {"x": 1}))
        assert bus.queue.pending == 1
        bus.detach("A")
        assert bus.queue.pending == 0
        bus.queue.run()
        assert got_a == []

    def test_distinct_delays_get_distinct_events(self):
        plan = FaultPlan(messages=(
            MessageFault(action="delay", probability=1.0, delay=0.25,
                         recipient="A"),
            MessageFault(action="delay", probability=1.0, delay=0.75,
                         recipient="B"),
        ))
        bus, got_a, got_b = self.build(plan)
        bus.send(Message(MessageKind.CLAIM, "S", ("A", "B"), {"x": 1}))
        assert bus.queue.pending == 2
        bus.queue.step()
        assert len(got_a) == 1 and got_b == []       # A's event fires first
        bus.queue.run()
        assert len(got_b) == 1
