"""Tests for the shared bus transport.

A broadcast is one entry on the scope's medium and calls no handler;
point-to-point traffic (unicasts, load transfers) reaches the
addressee's handler.  Broadcast tests therefore pin *who heard which
entry*, and that no handler ran for it.
"""

import pytest

from repro.network.bus import Bus
from repro.network.messages import Message, MessageKind


def make_bus(z=0.5):
    bus = Bus(z)
    inboxes = {}
    for name in ("P1", "P2", "P3"):
        inboxes[name] = []
        bus.attach(name, inboxes[name].append)
    return bus, inboxes


class TestAttachment:
    def test_duplicate_name_rejected(self):
        bus, _ = make_bus()
        with pytest.raises(ValueError):
            bus.attach("P1", lambda m: None)

    def test_detach(self):
        bus, inboxes = make_bus()
        bus.detach("P2")
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"x": 1}))
        (entry,) = bus.medium
        assert not entry.heard_by("P2")
        assert entry.hearers == ("P3",)
        assert all(inbox == [] for inbox in inboxes.values())

    def test_rejects_bad_z(self):
        with pytest.raises(ValueError):
            Bus(0.0)


class TestBroadcast:
    def test_atomic_delivery_to_all_but_sender(self):
        bus, inboxes = make_bus()
        msg = Message(MessageKind.BID, "P1", ("*",), {"bid": 2.0})
        bus.broadcast(msg)
        (entry,) = bus.medium
        assert entry.msg is msg
        assert not entry.heard_by("P1")
        assert entry.heard_by("P2") and entry.heard_by("P3")
        assert entry.hearers == ("P2", "P3")
        assert entry.time == bus.queue.now
        # One transmission: no endpoint handler ran for it.
        assert all(inbox == [] for inbox in inboxes.values())

    def test_identical_payload_everywhere(self):
        # Atomicity: one log entry and one medium entry, which every
        # hearer reads — there is no per-recipient copy to diverge.
        bus, _ = make_bus()
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"bid": 2.0}))
        bus.broadcast(Message(MessageKind.BID, "P2", ("*",), {"bid": 3.0}))
        assert len(bus.log) == 2
        assert [e.msg for e in bus.medium] == bus.log
        # Entries share one membership snapshot until membership changes.
        assert bus.medium[0].members is bus.medium[1].members
        bus.attach("P4", lambda m: None)
        bus.broadcast(Message(MessageKind.BID, "P3", ("*",), {"bid": 5.0}))
        assert bus.medium[2].members is not bus.medium[1].members
        assert bus.medium[2].hearers == ("P1", "P2", "P4")

    def test_unicast_is_not_on_the_medium(self):
        bus, inboxes = make_bus()
        bus.send(Message(MessageKind.CLAIM, "P1", ("P2",), {"c": 1}))
        bus.transfer_load("P1", "P3", 0.5, ["b"])
        assert bus.medium == []
        bus.queue.run()
        assert len(inboxes["P2"]) == 1 and len(inboxes["P3"]) == 1

    def test_requires_star_recipients(self):
        bus, _ = make_bus()
        with pytest.raises(ValueError):
            bus.broadcast(Message(MessageKind.BID, "P1", ("P2",), {}))


class TestSend:
    def test_unicast(self):
        bus, inboxes = make_bus()
        msg = Message(MessageKind.CLAIM, "P1", ("P2",), {"c": 1})
        bus.send(msg)
        assert inboxes["P2"] == [msg]
        assert inboxes["P3"] == []

    def test_multicast(self):
        bus, inboxes = make_bus()
        bus.send(Message(MessageKind.CLAIM, "P1", ("P2", "P3"), {"c": 1}))
        assert len(inboxes["P2"]) == len(inboxes["P3"]) == 1

    def test_unknown_recipient_rejected(self):
        bus, _ = make_bus()
        with pytest.raises(KeyError):
            bus.send(Message(MessageKind.CLAIM, "P1", ("ghost",), {}))

    def test_star_rejected(self):
        bus, _ = make_bus()
        with pytest.raises(ValueError):
            bus.send(Message(MessageKind.CLAIM, "P1", ("*",), {}))


class TestLoadTransfers:
    def test_one_port_serializes_transfers(self):
        bus, inboxes = make_bus(z=2.0)
        t1 = bus.transfer_load("P1", "P2", 0.5, ["b1"])
        t2 = bus.transfer_load("P1", "P3", 0.25, ["b2"])
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(1.5)  # starts only after t1
        bus.queue.run()
        assert inboxes["P2"][0].body == ["b1"]
        assert inboxes["P3"][0].body == ["b2"]

    def test_delivery_happens_at_completion_time(self):
        bus, inboxes = make_bus(z=2.0)
        done = bus.transfer_load("P1", "P2", 1.0, ["b"])
        bus.queue.run_until(done - 0.1)
        assert inboxes["P2"] == []
        bus.queue.run()
        assert len(inboxes["P2"]) == 1
        assert bus.queue.now == pytest.approx(done)

    def test_rejects_negative_units(self):
        bus, _ = make_bus()
        with pytest.raises(ValueError):
            bus.transfer_load("P1", "P2", -1.0, [])

    def test_zero_unit_transfer_is_instant(self):
        bus, _ = make_bus()
        assert bus.transfer_load("P1", "P2", 0.0, []) == 0.0


class TestAccounting:
    def test_stats_count_messages_and_bytes(self):
        bus, _ = make_bus()
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"bid": 2.0}))
        bus.send(Message(MessageKind.CLAIM, "P2", ("P1",), {"c": 1}))
        assert bus.stats.messages == 2
        assert bus.stats.bytes > 0
        assert bus.stats.by_kind[MessageKind.BID] == 1

    def test_control_metrics_exclude_load(self):
        bus, _ = make_bus()
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"bid": 2.0}))
        before = bus.stats.control_bytes
        bus.transfer_load("P1", "P2", 0.5, ["block"])
        assert bus.stats.control_bytes == before
        assert bus.stats.messages == 2
        assert bus.stats.control_messages == 1

    def test_log_preserves_order(self):
        bus, _ = make_bus()
        bus.broadcast(Message(MessageKind.BID, "P1", ("*",), {"a": 1}))
        bus.transfer_load("P1", "P2", 0.1, ["b"])
        bus.send(Message(MessageKind.CLAIM, "P2", ("P1",), {"c": 1}))
        kinds = [m.kind for m in bus.log]
        assert kinds == [MessageKind.BID, MessageKind.LOAD, MessageKind.CLAIM]


class TestSenderValidation:
    def test_broadcast_requires_attached_sender(self):
        bus, _ = make_bus()
        with pytest.raises(KeyError, match="unknown sender"):
            bus.broadcast(Message(MessageKind.BID, "ghost", ("*",), {"b": 1}))

    def test_send_requires_attached_sender(self):
        bus, _ = make_bus()
        with pytest.raises(KeyError, match="unknown sender"):
            bus.send(Message(MessageKind.CLAIM, "ghost", ("P1",), {"c": 1}))

    def test_transfer_requires_attached_sender(self):
        bus, _ = make_bus()
        with pytest.raises(KeyError, match="unknown sender"):
            bus.transfer_load("ghost", "P1", 0.5, ["block"])

    def test_send_returns_ack_of_all_recipients(self):
        bus, _ = make_bus()
        got = bus.send(Message(MessageKind.CLAIM, "P1", ("P2", "P3"), {}))
        assert got == ("P2", "P3")


class TestDetachInFlight:
    def test_detach_cancels_pending_load_delivery(self):
        # Regression: a detached endpoint must not receive deliveries
        # already scheduled for it (previously the queued closure fired
        # into the stale handler).
        bus, inboxes = make_bus()
        bus.transfer_load("P1", "P2", 1.0, ["block"])
        bus.detach("P2")
        bus.queue.run()
        assert inboxes["P2"] == []

    def test_other_deliveries_survive_detach(self):
        bus, inboxes = make_bus()
        bus.transfer_load("P1", "P2", 1.0, ["b2"])
        bus.transfer_load("P1", "P3", 1.0, ["b3"])
        bus.detach("P2")
        bus.queue.run()
        assert inboxes["P2"] == []
        assert len(inboxes["P3"]) == 1
