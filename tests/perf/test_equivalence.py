"""Memoized and independent redundancy modes are observationally equal.

The acceptance property of the perf layer: with a seeded PKI, a run
with ``redundancy="memoized"`` and a run with
``redundancy="independent"`` must be *byte-identical* on the wire (same
message log, same canonical payloads, same signatures) and must settle
identically (payments, balances, phi, fines, verdicts).  Memoization
may only remove repeated work — never change a single observable bit.
"""

import numpy as np
import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP
from repro.dlt.platform import NetworkKind
from repro.network.faults import CrashFault, FaultPlan, MessageFault
from repro.protocol.phases import Phase

SEED = 11


def wire_trace(mech):
    """The engagement's full wire log in canonical byte form."""
    from repro.crypto.signatures import SignedMessage

    lines = []
    for msg in mech.engine.bus.log:
        body = msg.body
        if isinstance(body, SignedMessage):
            rendered = (body.signer.encode(), body.canonical, body.signature)
        else:
            rendered = repr(body).encode()
        lines.append((msg.kind, msg.sender, msg.recipients, rendered,
                      msg.size_bytes))
    return lines


def run_pair(w, *, kind=NetworkKind.NCP_FE, z=0.4, **kwargs):
    outs = {}
    for mode in ("memoized", "independent"):
        mech = DLSBLNCP(w, kind, z, redundancy=mode, pki_seed=SEED, **kwargs)
        outs[mode] = (mech, mech.run())
    return outs


def assert_equivalent(outs):
    (mech_m, out_m) = outs["memoized"]
    (mech_i, out_i) = outs["independent"]
    assert wire_trace(mech_m) == wire_trace(mech_i)
    assert out_m.completed == out_i.completed
    assert out_m.terminal_phase == out_i.terminal_phase
    assert out_m.verdicts == out_i.verdicts
    assert out_m.bids == out_i.bids
    assert out_m.alpha == out_i.alpha
    assert out_m.phi == out_i.phi
    assert out_m.payments == out_i.payments
    assert out_m.balances == out_i.balances
    assert out_m.utilities == out_i.utilities
    assert out_m.fine_amount == out_i.fine_amount
    assert out_m.makespan_realized == out_i.makespan_realized


class TestHonestEquivalence:
    @pytest.mark.parametrize("kind", [NetworkKind.NCP_FE, NetworkKind.NCP_NFE])
    def test_small_instance(self, kind):
        assert_equivalent(run_pair([2.0, 3.0, 5.0], kind=kind))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        w = rng.uniform(1.0, 10.0, m)
        kind = NetworkKind.NCP_FE if seed % 2 == 0 else NetworkKind.NCP_NFE
        z = float(rng.uniform(0.05, 1.0))
        assert_equivalent(run_pair(w, kind=kind, z=z))

    def test_commit_bidding_mode(self):
        assert_equivalent(run_pair([2.0, 3.0, 5.0, 4.0],
                                   bidding_mode="commit"))


class TestDeviantEquivalence:
    def test_equivocator_fined_identically(self):
        outs = run_pair([2.0, 3.0, 5.0], behaviors={
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        assert_equivalent(outs)
        assert not outs["memoized"][1].completed

    def test_wrong_payments_fined_identically(self):
        outs = run_pair([2.0, 3.0, 5.0], behaviors={
            2: AgentBehavior(deviations={Deviation.WRONG_PAYMENTS})})
        assert_equivalent(outs)

    def test_contradictory_payments(self):
        outs = run_pair([2.0, 3.0, 5.0], behaviors={
            0: AgentBehavior(deviations={Deviation.CONTRADICTORY_PAYMENTS})})
        assert_equivalent(outs)


class TestFaultEquivalence:
    def test_mid_processing_crash(self):
        plan = FaultPlan(crashes=(
            CrashFault("P3", phase=Phase.PROCESSING_LOAD, progress=0.5),))
        assert_equivalent(run_pair([2.0, 3.0, 5.0, 4.0], fault_plan=plan))

    def test_message_drops_with_retry(self):
        plan = FaultPlan(seed=7, messages=(
            MessageFault(action="drop", probability=0.2),))
        assert_equivalent(run_pair([2.0, 3.0, 5.0, 4.0], fault_plan=plan,
                                   bidding_mode="commit"))

    def test_crash_and_delay_mix(self):
        plan = FaultPlan(seed=3,
                         crashes=(CrashFault("P2", at_time=0.5),),
                         messages=(MessageFault(action="delay",
                                                probability=0.3, delay=0.25),))
        assert_equivalent(run_pair([2.0, 3.0, 5.0], fault_plan=plan))


class TestCacheCounters:
    def test_memoized_run_reports_cache_activity(self, monkeypatch):
        from repro.crypto.signatures import SigningKey

        verified = []
        real_verify = SigningKey.verify

        def counting_verify(key, signed):
            verified.append((signed.signer, signed.canonical,
                             signed.signature))
            return real_verify(key, signed)

        monkeypatch.setattr(SigningKey, "verify", counting_verify)
        mech = DLSBLNCP([2.0, 3.0, 5.0, 4.0], NetworkKind.NCP_FE, 0.4,
                        redundancy="memoized", pki_seed=SEED)
        t = mech.run().traffic
        assert t.memo_hits > 0
        assert t.memo_misses > 0
        assert t.sig_cache_hits > 0
        assert t.sig_cache_misses > 0
        # Sharing means the cache never loses: each result is computed
        # at most once, and each signed message is HMAC-verified at
        # most once however many parties read it.
        assert t.memo_hits >= t.memo_misses
        assert verified and len(verified) == len(set(verified))
        assert len(verified) == t.sig_cache_misses

    def test_independent_run_reports_no_memo_activity(self):
        (_, out) = run_pair([2.0, 3.0, 5.0, 4.0])["independent"]
        assert out.traffic.memo_hits == 0
        assert out.traffic.memo_misses == 0

    def test_invalid_redundancy_rejected(self):
        with pytest.raises(ValueError, match="redundancy"):
            DLSBLNCP([2.0, 3.0], NetworkKind.NCP_FE, 0.4,
                     redundancy="sometimes")
