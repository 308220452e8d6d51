"""Stateful property test: the ledger conserves money under any history."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.protocol.payment_infra import PaymentInfrastructure

NAMES = ["user", "P1", "P2", "P3", "escrow"]


class LedgerMachine(RuleBasedStateMachine):
    """Random walks over the payment infrastructure's operations."""

    def __init__(self):
        super().__init__()
        self.infra = PaymentInfrastructure()
        self.collected = 0.0
        self.distributed = 0.0

    @rule(src=st.sampled_from(NAMES), dst=st.sampled_from(NAMES),
          amount=st.floats(min_value=0.0, max_value=100.0))
    def transfer(self, src, dst, amount):
        self.infra.ledger.transfer(src, dst, amount, memo="fuzz")

    @rule(who=st.sampled_from(["P1", "P2", "P3"]),
          amount=st.floats(min_value=0.0, max_value=50.0))
    def fine(self, who, amount):
        self.infra.collect_fine(who, amount, "fuzz-offence")
        self.collected += amount

    @rule(amount=st.floats(min_value=0.0, max_value=10.0),
          beneficiary=st.sampled_from(["P1", "P2", "P3"]))
    def reward(self, amount, beneficiary):
        # Never distribute more than escrow holds (the referee's code
        # guarantees this by construction; the machine mirrors it).
        available = self.infra.balance(PaymentInfrastructure.ESCROW)
        pay = min(amount, max(available, 0.0))
        if pay > 0:
            self.infra.distribute_from_escrow({beneficiary: pay}, "fuzz")
            self.distributed += pay

    @rule(payments=st.dictionaries(st.sampled_from(["P1", "P2", "P3"]),
                                   st.floats(min_value=-20, max_value=20),
                                   max_size=3))
    def remit(self, payments):
        self.infra.remit_payments(payments)

    @invariant()
    def money_is_conserved(self):
        assert abs(self.infra.ledger.total) < 1e-6

    @invariant()
    def history_is_append_only(self):
        assert len(self.infra.ledger.history) >= 0
        for t in self.infra.ledger.history[-3:]:
            assert t.amount >= 0


LedgerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None)
TestLedgerStateMachine = LedgerMachine.TestCase
