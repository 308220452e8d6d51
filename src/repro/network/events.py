"""Deterministic discrete-event simulation kernel.

A minimal but genuine DES core: events are ``(time, sequence, action)``
triples in a binary heap; ties in time break by insertion order, which
makes every simulation fully deterministic for a fixed schedule of
insertions — a property the protocol tests rely on (identical runs must
produce identical message logs and fines).

The kernel is intentionally generic (no knowledge of buses, agents or
mechanisms) so both the bus transport and the multiround pipeline can
be expressed on it.

Performance notes
-----------------
The heap stores bare ``(time, seq, event)`` tuples rather than the
:class:`Event` objects themselves: tuple comparison happens entirely in
C (two number compares — ``seq`` is unique, so the :class:`Event` slot
is never compared), where a dataclass-generated ``__lt__`` costs a
Python frame per sift step.  The drain loops additionally bind the heap
and ``heappop`` to locals; together these buy back the ~10% the 20k
event benchmark had drifted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

__all__ = ["Event", "EventQueue"]


@dataclass(slots=True)
class Event:
    """A scheduled action; the queue orders by (time, seq), FIFO within
    a tick.

    ``__slots__`` (via ``slots=True``): protocol runs schedule one event
    per load transfer and per delayed unicast, and DES throughput
    benchmarks allocate tens of thousands — the slotted layout removes
    the per-instance ``__dict__``.
    """

    time: float
    seq: int
    action: Callable[[], None]
    label: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event dead; the kernel skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Priority-queue event loop with a monotonic clock.

    Usage::

        q = EventQueue()
        q.schedule(1.5, lambda: ..., label="bid-broadcast")
        q.run()          # or q.run_until(t) / q.step()
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, time: float, action: Callable[[], None], *, label: str = "") -> Event:
        """Schedule *action* at absolute *time* (>= now)."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule into the past: {time} < now={self._now}")
        seq = self._seq
        self._seq = seq + 1
        ev = Event(max(time, self._now), seq, action, label)
        heapq.heappush(self._heap, (ev.time, seq, ev))
        return ev

    def schedule_in(self, delay: float, action: Callable[[], None], *, label: str = "") -> Event:
        """Schedule *action* after *delay* time units."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, action, label=label)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent).

        The entry stays in the heap and is skipped when popped, so
        cancellation never perturbs the (time, seq) order of the
        surviving events — a property the chaos-seed determinism tests
        pin down.
        """
        event.cancel()

    def step(self) -> Event | None:
        """Execute the next live event; return it (or None if drained)."""
        heap = self._heap
        while heap:
            time, _, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self._now = time
            ev.action()
            self._processed += 1
            return ev
        return None

    def run(self, *, max_events: int = 1_000_000) -> int:
        """Run to quiescence; return events executed.

        ``max_events`` guards against runaway self-rescheduling loops in
        buggy agents (raises rather than hanging the test suite).
        """
        heap = self._heap
        pop = heapq.heappop
        count = 0
        while heap:
            time, _, ev = pop(heap)
            if ev.cancelled:
                continue
            self._now = time
            ev.action()
            self._processed += 1
            count += 1
            if count > max_events:
                raise RuntimeError(f"event budget exceeded ({max_events}); likely a scheduling loop")
        return count

    def run_until(self, deadline: float, *, max_events: int = 1_000_000) -> int:
        """Run events with time <= deadline; advance clock to deadline."""
        heap = self._heap
        pop = heapq.heappop
        count = 0
        while heap:
            time, _, ev = heap[0]
            if ev.cancelled:
                pop(heap)
                continue
            if time > deadline:
                break
            pop(heap)
            self._now = time
            ev.action()
            self._processed += 1
            count += 1
            if count > max_events:
                raise RuntimeError(f"event budget exceeded ({max_events})")
        self._now = max(self._now, deadline)
        return count
