"""Long-horizon dynamic market simulator over the one-shot mechanism.

``repro market`` answers the question the one-shot proofs cannot: what
happens when the DLS-BL-NCP mechanism is played *repeatedly* by a
population with memory?  A seeded Poisson process generates engagement
arrivals on a shared DES clock (the same :class:`EventQueue` kernel the
bus transport runs on); arrivals that land inside the contention window
contend for the bus in one multi-engagement round; a churn process lets
processors join and leave mid-stream — a leave that lands on a hired
processor becomes a Processing-phase crash and takes the engine's
survivor re-allocation path; and a :class:`MarketHistory` ledger turns
referee verdicts into the reputation/price pressure that decides who
gets hired next (see :mod:`repro.market.history`).

Determinism contract
--------------------
The whole run is a pure function of the :class:`MarketRequest`: four
independent versioned string-seeded RNG streams (arrivals, churn,
instance draws, admission draws — the loadgen recipe), derived
per-engagement seeds via :func:`repro.sweep.spec.derive_seed`, and a
per-round record stream folded through :class:`StreamDigest` as it is
produced (a million-round soak never holds its records in memory).
The resulting stream digest is the :class:`MarketResult`'s identity:
direct call, daemon, and fleet shard must all reproduce it, and the
market soak tier pins that.

Architecture: this module orchestrates only — it speaks
:mod:`repro.api` request/result types, the generic DES kernel, and the
sweep digest helpers, and never imports protocol, kernel, or engine
layers (lint-enforced).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.api import (
    EngagementRequest,
    MarketRequest,
    MarketResult,
    MultiEngagementRequest,
    execute,
    serial_reference,
)
from repro.market.history import MarketHistory
from repro.network.events import EventQueue
from repro.sweep.spec import StreamDigest, derive_seed

__all__ = [
    "MARKET_VERSION",
    "MarketError",
    "MarketSimulator",
    "run_market",
]

#: Version tag folded into every RNG stream seed.  Bump it whenever the
#: arrival, churn, draw, or record derivation changes — golden stream
#: digests pin the whole derivation, and a silent change would be
#: indistinguishable from a determinism bug.
MARKET_VERSION = "repro-market/v1"

#: Per-round ledger conservation bound.  The protocol engine's own
#: tests pin conservation at 1e-9 per engagement; the market enforces a
#: looser bound every round so a regression surfaces as a loud
#: MarketError in the soak rather than a silent drift in a summary.
LEDGER_TOLERANCE = 1e-6


class MarketError(RuntimeError):
    """A market invariant failed mid-run (conservation, verification)."""


@dataclass
class _Window:
    """Accumulator for one windowed timeseries bucket."""

    rounds: int = 0
    engagements: int = 0
    welfare: float = 0.0
    fines: int = 0
    crashes: int = 0


@dataclass
class _Series:
    """The windowed timeseries a run emits for repro.analysis."""

    welfare: list = field(default_factory=list)
    fines: list = field(default_factory=list)
    crashes: list = field(default_factory=list)
    population: list = field(default_factory=list)
    deviants_alive: list = field(default_factory=list)
    deviant_reputation: list = field(default_factory=list)
    honest_reputation: list = field(default_factory=list)
    price: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {name: list(values)
                for name, values in vars(self).items()}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class MarketSimulator:
    """One seeded long-horizon run; see the module docstring."""

    def __init__(self, request: MarketRequest, *, verify: bool = False) -> None:
        self.request = request
        self.verify = verify
        self.history = MarketHistory(decay=request.reputation_decay,
                                     floor=request.admission_floor)
        seed = request.seed
        self._arrival_rng = random.Random(
            f"{MARKET_VERSION}:arrivals:{seed}:{request.arrival_rate}")
        self._churn_rng = random.Random(f"{MARKET_VERSION}:churn:{seed}")
        self._draw_rng = random.Random(f"{MARKET_VERSION}:draw:{seed}")
        self._admit_rng = random.Random(f"{MARKET_VERSION}:admit:{seed}")
        self._stream = StreamDigest()
        self._series = _Series()
        self._window = _Window()
        self._round = 0
        self._engagements = 0
        self._contended = 0
        self._verified = 0
        self._batch: list[float] = []
        self._done = False
        self._queue = EventQueue()

        deviations: dict[int, list[str]] = {}
        for idx, name in request.deviants:
            deviations.setdefault(idx, []).append(name)
        for i in range(request.processors):
            self.history.add(self._draw_w(),
                             deviations=tuple(deviations.get(i, ())))
        self._deviant_pids = frozenset(
            m.pid for m in self.history.members.values() if m.deviant)

    # -- seeded draws -----------------------------------------------------

    def _draw_w(self) -> float:
        return round(self._draw_rng.uniform(self.request.w_low,
                                            self.request.w_high), 3)

    # -- DES clock --------------------------------------------------------

    def run(self) -> MarketResult:
        """Drive the arrival process to ``rounds`` rounds; fold and go."""
        self._schedule_next_arrival()
        # Budget: every arrival is one event and a round consumes at
        # most max_contention of them (plus the one that closes it).
        budget = self.request.rounds * (self.request.max_contention + 1) + 64
        self._queue.run(max_events=budget)
        return self._result()

    def _schedule_next_arrival(self) -> None:
        gap = self._arrival_rng.expovariate(self.request.arrival_rate)
        self._queue.schedule_in(gap, self._on_arrival, label="arrival")

    def _on_arrival(self) -> None:
        now = self._queue.now
        if self._batch and (
                len(self._batch) >= self.request.max_contention
                or now - self._batch[-1] > self.request.contention_window):
            self._run_round()
        if self._done:
            return
        self._batch.append(now)
        self._schedule_next_arrival()

    # -- one market round -------------------------------------------------

    def _run_round(self) -> None:
        request = self.request
        batch, self._batch = self._batch, []
        self._round += 1
        round_index = self._round

        # Churn first: the newcomer competes for this round's cohorts,
        # and the departure (if hired) crashes mid-round.  Draw order is
        # fixed — join gate, leave gate, then leave selection — so the
        # churn stream is identical whatever the round does with it.
        joins: list[str] = []
        if self._churn_rng.random() < request.join_rate:
            member = self.history.add(self._draw_w(),
                                      round_index=round_index)
            joins.append(member.pid)
        leave_pid: str | None = None
        if self._churn_rng.random() < request.leave_rate:
            active = self.history.active()
            # Never shrink below a fillable cohort: a market that can
            # no longer hire anyone is an end state, not a round.
            if len(active) > request.cohort:
                leave_pid = active[
                    self._churn_rng.randrange(len(active))].pid

        # Hire one cohort per arriving engagement (disjoint while the
        # population allows), turning the departure into a crash fault
        # in the first engagement that hired the departing processor.
        subs: list[EngagementRequest] = []
        hired_pids: list[list[str]] = []
        taken: set[str] = set()
        crashed_leave = False
        for slot, _ in enumerate(batch):
            cohort = self.history.hire(self._admit_rng, request.cohort,
                                       exclude=frozenset(taken))
            taken.update(m.pid for m in cohort)
            pids = [m.pid for m in cohort]
            crash: tuple = ()
            if leave_pid in pids and not crashed_leave:
                crashed_leave = True
                progress = round(self._churn_rng.uniform(0.1, 0.9), 3)
                crash = ((pids.index(leave_pid), progress),)
            deviants = tuple(
                (pos, name) for pos, m in enumerate(cohort)
                for name in m.deviations)
            subs.append(EngagementRequest(
                w=tuple(m.w for m in cohort),
                z=request.z,
                kind=request.kind,
                num_blocks=request.num_blocks,
                fine_factor=request.fine_factor,
                deviants=deviants,
                crash=crash,
                seed=derive_seed(request.seed, "market-round",
                                 f"{round_index}:{slot}")))
            hired_pids.append(pids)

        req, outcomes = self._execute(subs)

        # Settle every engagement into the history ledger.
        fines = 0
        welfare = 0.0
        crashes = 0
        ledger_error = 0.0
        for pids, (eid, record) in zip(hired_pids,
                                       sorted(outcomes.items())):
            settled = self.history.settle(round_index, pids, record)
            fines += settled["fines"]
            welfare += settled["welfare"]
            crashes += len(settled["crashed"])
            ledger_error = max(ledger_error, settled["ledger_error"])
        if ledger_error > LEDGER_TOLERANCE:
            raise MarketError(
                f"round {round_index}: ledger not conserved "
                f"(|sum(balances)| = {ledger_error:.3g} > "
                f"{LEDGER_TOLERANCE:g})")
        if leave_pid is not None:
            self.history.mark_left(leave_pid, round_index)

        self._engagements += len(subs)
        if len(subs) > 1:
            self._contended += 1
        self._stream.add({
            "round": round_index,
            "t": round(batch[0], 6),
            "batch": len(subs),
            "request": req.digest(),
            "settlement": self._round_digest,
            "hired": hired_pids,
            "joins": joins,
            "left": leave_pid,
            "fines": fines,
            "welfare": round(welfare, 6),
            "population": len(self.history.active()),
        })
        self._fold_window(welfare, fines, crashes, len(subs))
        if self._round >= request.rounds:
            self._done = True

    def _execute(self, subs: list[EngagementRequest]):
        """Run the round through the api executors; verify if asked.

        Contention rides the existing multi-engagement path (arbiter
        seam), so the market gets bus-window granting for free.  Under
        ``verify``, every round is re-checked: a *fault-free* contended
        round against the serial reference (the arbiter's settlement
        contract — policy invariance — holds only without faults; a
        crashing or fined engagement legitimately couples to the shared
        clock), every other round against a re-execution (settlements
        are deterministic regardless).
        """
        if len(subs) == 1:
            req = subs[0]
            result = execute(req)
            self._round_digest = result.digest()
            self._verify_rerun(req, result.digest())
            return req, {"E1": result.outcome}
        req = MultiEngagementRequest(engagements=tuple(subs),
                                     policy=self.request.policy)
        result = execute(req)
        self._round_digest = result.digest()
        if self.verify:
            fault_free = all(not sub.deviants and not sub.crash
                             for sub in subs)
            if fault_free:
                reference = serial_reference(req)
                if reference != result.digest():
                    raise MarketError(
                        f"round {self._round}: contended settlements "
                        "diverge from the serial reference "
                        f"({result.digest()} != {reference})")
                self._verified += 1
            else:
                self._verify_rerun(req, result.digest())
        return req, dict(result.outcomes)

    def _verify_rerun(self, req, digest: str) -> None:
        """The determinism half of ``--verify``: same request, same
        settlement digest on a fresh execution."""
        if not self.verify:
            return
        again = execute(req)
        if again.digest() != digest:
            raise MarketError(
                f"round {self._round}: settlement digest not "
                f"reproducible ({digest} != {again.digest()})")
        self._verified += 1

    # -- timeseries -------------------------------------------------------

    def _fold_window(self, welfare: float, fines: int, crashes: int,
                     engagements: int) -> None:
        window = self._window
        window.rounds += 1
        window.engagements += engagements
        window.welfare += welfare
        window.fines += fines
        window.crashes += crashes
        if window.rounds >= self.request.window:
            self._close_window()

    def _close_window(self) -> None:
        window, self._window = self._window, _Window()
        if not window.rounds:
            return
        series = self._series
        series.welfare.append(round(window.welfare / window.rounds, 6))
        series.fines.append(window.fines)
        series.crashes.append(window.crashes)
        active = self.history.active()
        series.population.append(len(active))
        deviants = [m for m in active if m.pid in self._deviant_pids]
        honest = [m for m in active if m.pid not in self._deviant_pids]
        floor = self.request.admission_floor
        series.deviants_alive.append(
            sum(1 for m in deviants if m.reputation >= floor))
        series.deviant_reputation.append(
            round(_mean([m.reputation for m in deviants]), 6))
        series.honest_reputation.append(
            round(_mean([m.reputation for m in honest]), 6))
        series.price.append(
            round(_mean([m.price_ema for m in active]), 6))

    # -- result -----------------------------------------------------------

    def _result(self) -> MarketResult:
        self._close_window()
        history = self.history
        deviants_alive = [
            m for m in history.active()
            if m.pid in self._deviant_pids
            and m.reputation >= self.request.admission_floor]
        summary = {
            "rounds": self._round,
            "engagements": self._engagements,
            "contended_rounds": self._contended,
            "fines": history.total_fines,
            "fine_total": round(history.fine_total, 6),
            "welfare_total": round(history.total_welfare, 6),
            "max_ledger_error": history.max_ledger_error,
            "joins": history.joins,
            "leaves": history.leaves,
            "crashes": history.crashes,
            "population": len(history.active()),
            "deviants": len(self._deviant_pids),
            "deviants_alive": len(deviants_alive),
            "deviants_extinct": (bool(self._deviant_pids)
                                 and not deviants_alive),
            **({"verified_rounds": self._verified} if self.verify else {}),
        }
        return MarketResult(
            rounds=self._round,
            digest_value=self._stream.hexdigest(),
            summary=summary,
            series=self._series.to_dict(),
            reputations={m.pid: round(m.reputation, 6)
                         for m in history.members.values()},
        )


def run_market(request: MarketRequest, *,
               verify: bool = False) -> MarketResult:
    """Run a :class:`MarketRequest` end to end (the ``market`` executor).

    ``verify`` re-derives every round from the serial reference path and
    raises :class:`MarketError` on any divergence; the served executor
    never verifies (the soak tier compares digests across topologies
    instead).
    """
    return MarketSimulator(request, verify=verify).run()
