"""Engagement scoping on the shared bus: isolation under contention.

Two layers of guarantees when K engagements multiplex one bus:

* **addressing** — traffic, endpoints, stats and logs are partitioned
  per engagement scope while the physics (event clock, one-port
  constraint) stay shared;
* **fault isolation** — a :class:`FaultPlan` armed under engagement A's
  id must never perturb engagement B: not B's deliveries, not B's log,
  and not the RNG-draw alignment of B's *own* plan (each engagement's
  plan state owns a private seeded RNG), mirroring the referee-fault
  scoping guarantees of the committee suite.
"""

import pytest

from repro.network.bus import Bus
from repro.network.faults import (
    CrashFault,
    FaultPlan,
    FaultyBus,
    MessageFault,
)
from repro.network.messages import Message, MessageKind
from repro.protocol.phases import Phase


def scoped_pair(bus, eid, names=("P1", "P2", "P3")):
    """Attach *names* under engagement *eid*; return (view, inboxes)."""
    view = bus.scoped(eid)
    inboxes = {}
    for name in names:
        inboxes[name] = []
        view.attach(name, inboxes[name].append)
    return view, inboxes


def chatter(view, rounds=12):
    """A deterministic unicast conversation inside one scope."""
    acks = []
    for k in range(rounds):
        sender = f"P{(k % 3) + 1}"
        recipient = f"P{((k + 1) % 3) + 1}"
        acks.append(view.send(
            Message(MessageKind.CLAIM, sender, (recipient,), {"k": k})))
    return acks


class TestScopedAddressing:
    def test_view_stamps_the_engagement_tag(self):
        bus = Bus(0.5)
        view, inboxes = scoped_pair(bus, "A")
        view.broadcast(Message(MessageKind.BID, "P1", ("*",), {"v": 1}))
        assert [e.msg.engagement for e in view.medium] == ["A"]
        assert [m.engagement for m in bus.log_for("A")] == ["A"]
        assert bus.log_for(None) == []      # root scope untouched
        assert bus.medium == []

    def test_same_names_coexist_across_scopes(self):
        bus = Bus(0.5)
        _, in_a = scoped_pair(bus, "A")
        _, in_b = scoped_pair(bus, "B")     # same P1..P3, no collision
        bus.scoped("A").broadcast(
            Message(MessageKind.BID, "P1", ("*",), {}))
        (entry,) = bus.medium_for("A")
        assert entry.heard_by("P2")
        assert bus.medium_for("B") == []    # B heard nothing
        assert in_a["P2"] == in_b["P2"] == []
        assert set(bus.engagements) == {"A", "B"}
        assert bus.endpoints_for("A") == bus.endpoints_for("B")

    def test_stats_partition_per_scope(self):
        bus = Bus(0.5)
        view_a, _ = scoped_pair(bus, "A")
        view_b, _ = scoped_pair(bus, "B")
        chatter(view_a, rounds=6)
        chatter(view_b, rounds=2)
        assert bus.stats_for("A").control_messages == 6
        assert bus.stats_for("B").control_messages == 2

    def test_physics_stay_shared_across_scopes(self):
        # The one-port constraint is the *point* of contention: B's
        # load transfer must queue behind A's even though their control
        # planes are isolated.
        bus = Bus(0.5)
        view_a, _ = scoped_pair(bus, "A")
        view_b, in_b = scoped_pair(bus, "B")
        view_a.transfer_load("P1", "P2", 4.0, {})
        t_busy = bus.port_free_at
        assert t_busy == pytest.approx(2.0)
        view_b.transfer_load("P1", "P3", 2.0, {})
        assert bus.port_free_at == pytest.approx(t_busy + 1.0)
        bus.queue.run()
        arrival = [m for m in in_b["P3"]
                   if m.kind is MessageKind.LOAD]
        assert len(arrival) == 1

    def test_detach_is_scope_local(self):
        bus = Bus(0.5)
        view_a, _ = scoped_pair(bus, "A")
        view_b, _ = scoped_pair(bus, "B")
        view_a.detach("P2")
        assert "P2" not in bus.endpoints_for("A")
        assert "P2" in bus.endpoints_for("B")


class TestFaultIsolationChaos:
    """A plan armed for engagement A must be invisible to engagement B."""

    A_PLAN = FaultPlan(seed=3, messages=(
        MessageFault(action="drop", probability=0.5),))
    B_PLAN = FaultPlan(seed=11, messages=(
        MessageFault(action="drop", probability=0.4),))

    def _run(self, plans):
        bus = FaultyBus(0.5, plans=plans)
        view_a, in_a = scoped_pair(bus, "A")
        view_b, in_b = scoped_pair(bus, "B")
        # Interleave the two conversations so every A-side RNG draw
        # happens *between* B-side sends — the worst case for bleed.
        acks_a, acks_b = [], []
        for k in range(20):
            acks_a.append(view_a.send(Message(
                MessageKind.CLAIM, "P1", ("P2",), {"k": k})))
            acks_b.append(view_b.send(Message(
                MessageKind.CLAIM, "P2", ("P3",), {"k": k})))
        return bus, in_a, in_b, acks_a, acks_b

    def test_a_plan_never_perturbs_b_traffic(self):
        _, _, quiet_b, _, quiet_acks = self._run(plans={})
        bus, in_a, in_b, acks_a, acks_b = self._run(
            plans={"A": self.A_PLAN})
        # A suffered: some of its 20 unicasts were dropped.
        assert bus.fault_counts(engagement="A").get("drop", 0) > 0
        # B byte-for-byte identical to the no-fault world.
        assert acks_b == quiet_acks
        assert [m.body for m in in_b["P3"]] == [m.body
                                                for m in quiet_b["P3"]]
        assert bus.fault_counts(engagement="B") == {}
        assert all(r.engagement == "A" for r in bus.fault_log)

    def test_b_rng_alignment_survives_a_plan(self):
        # B's own seeded plan must fire on exactly the same messages
        # whether or not A's plan exists: each engagement's fate draws
        # come from a private Random(seed), not a shared stream.
        _, _, _, _, acks_solo = self._run(plans={"B": self.B_PLAN})
        _, _, _, _, acks_both = self._run(
            plans={"A": self.A_PLAN, "B": self.B_PLAN})
        assert acks_both == acks_solo
        assert any(ack == () for ack in acks_solo)  # B's plan did fire

    def test_crashes_are_scope_local(self):
        plan = FaultPlan(crashes=(
            CrashFault("P2", phase=Phase.PROCESSING_LOAD),))
        bus = FaultyBus(0.5, plans={"A": plan})
        scoped_pair(bus, "A")
        scoped_pair(bus, "B")
        bus.enter_phase(Phase.PROCESSING_LOAD, engagement="A")
        assert bus.is_crashed("P2", engagement="A")
        assert not bus.is_crashed("P2", engagement="B")
        assert bus.crashed_for("A") == ("P2",)
        assert bus.crashed_for("B") == ()

    def test_fault_counts_default_aggregates_all_scopes(self):
        bus, *_ = self._run(plans={"A": self.A_PLAN, "B": self.B_PLAN})
        total = bus.fault_counts()
        per = (bus.fault_counts(engagement="A").get("drop", 0)
               + bus.fault_counts(engagement="B").get("drop", 0))
        assert total.get("drop", 0) == per > 0

    def test_empty_engagement_id_rejected(self):
        with pytest.raises(ValueError):
            FaultyBus(0.5, plans={"": self.A_PLAN})


class TestProtocolLevelIsolation:
    def test_faulty_neighbour_cannot_touch_honest_settlement(self):
        # End to end through the arbiter: engagement A crashes a
        # processor mid-Processing and B must still settle exactly as
        # it would alone — same settlement digest, same wire digest.
        from repro.api import (
            MultiEngagementRequest,
            build_mechanism,
            settlement_digest,
        )
        from repro.api.v1 import EngagementRequest
        from repro.io import protocol_result_to_dict
        from repro.protocol.arbiter import BusArbiter
        from repro.protocol.trace import wire_digest

        honest = EngagementRequest(w=(2.0, 3.0, 5.0), z=0.4)
        faulty = EngagementRequest(w=(4.0, 6.0, 10.0, 8.0), z=0.4,
                                   crash=((2, 0.5),))
        solo_mech = build_mechanism(honest)
        solo = solo_mech.run()
        solo_settle = settlement_digest(protocol_result_to_dict(solo))
        solo_wire = wire_digest(solo_mech.engine.bus.log)

        multi = MultiEngagementRequest(
            engagements=(faulty.to_dict(), honest.to_dict()))
        out = BusArbiter(0.4, multi.jobs(), policy="rr").run()
        assert out.results["E1"].degraded       # the crash really fired
        assert settlement_digest(protocol_result_to_dict(
            out.results["E2"])) == solo_settle
        assert out.wire_digests["E2"] == solo_wire
