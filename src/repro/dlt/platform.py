"""System models for divisible-load scheduling on bus networks.

The paper (Section 2) considers a distributed system of ``m`` processors
``P_1 .. P_m`` interconnected by a bus.  Processor ``P_i`` is characterized
by ``w_i``, the time it needs to process one unit of load; the bus is
characterized by ``z``, the time to communicate one unit of load between
any two processors (the distance between any pair of processors on a bus
is constant).  Costs are linear: processing ``alpha_i`` units costs
``alpha_i * w_i``.

Three system classes are distinguished:

``CP``
    Bus network *with* a control processor ``P_0`` that owns the load,
    has no processing capacity of its own, and communicates with one
    processor at a time (one-port model).  Workers are ``P_1 .. P_m``.

``NCP_FE``
    No control processor.  The load-originating processor is ``P_1`` and
    it has a *front end*, so it can compute its own fraction while
    simultaneously transmitting the other fractions.

``NCP_NFE``
    No control processor.  The load-originating processor is ``P_m`` and
    it has *no front end*: it must finish transmitting every other
    fraction before it can start computing its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "NetworkKind",
    "Processor",
    "BusNetwork",
    "validate_positive",
    "random_network",
]


class NetworkKind(Enum):
    """The three bus-network system models of the paper (Figures 1-3)."""

    CP = "cp"
    NCP_FE = "ncp-fe"
    NCP_NFE = "ncp-nfe"

    @property
    def has_control_processor(self) -> bool:
        """Whether an independent (non-computing) load originator exists."""
        return self is NetworkKind.CP

    @property
    def originator_has_front_end(self) -> bool:
        """Whether the load-originating processor overlaps comm and compute.

        For ``CP`` the originator does not compute at all, which we treat
        as vacuously front-ended (its transmissions never block compute).
        """
        return self is not NetworkKind.NCP_NFE

    def originator_index(self, m: int) -> int | None:
        """Index (0-based) of the load-originating *worker*, or ``None``.

        ``CP`` has a separate control processor that is not one of the
        ``m`` workers, hence ``None``.  ``NCP_FE`` originates at ``P_1``
        (index 0); ``NCP_NFE`` originates at ``P_m`` (index ``m - 1``).
        """
        if self is NetworkKind.CP:
            return None
        if self is NetworkKind.NCP_FE:
            return 0
        return m - 1


def validate_positive(values: Iterable[float], name: str) -> np.ndarray:
    """Coerce *values* to a 1-D float array and require strict positivity.

    Unit processing times and unit communication times are physical rates;
    zero or negative values make the closed forms meaningless (a zero
    ``w_i`` would absorb the entire load and divide by zero in the
    recursions), so they are rejected eagerly with a clear message.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr}")
    if (arr <= 0.0).any():
        raise ValueError(f"{name} must be strictly positive, got {arr}")
    return arr


@dataclass(frozen=True)
class Processor:
    """A worker processor.

    Parameters
    ----------
    name:
        Stable identity used by the protocol layer (signatures, fines).
    w:
        True time to process one unit of load (the agent's private type
        ``t_i = w_i`` in the mechanism-design formulation).
    """

    name: str
    w: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.w) or self.w <= 0.0:
            raise ValueError(f"processor {self.name!r}: w must be positive, got {self.w}")

    def processing_time(self, alpha: float) -> float:
        """Time (= linear cost) to process ``alpha`` units of load."""
        return alpha * self.w


@dataclass(frozen=True)
class BusNetwork:
    """An immutable description of a bus-network scheduling instance.

    The per-unit times stored here are the values the *scheduler* works
    with.  In the incentive-free DLT setting they are the true ``w_i``;
    in the mechanism setting they are the reported bids ``b_i``.

    Parameters
    ----------
    w:
        Per-unit processing times of the ``m`` workers, in allocation
        order (``P_1`` first).
    z:
        Per-unit communication time of the shared bus.
    kind:
        Which of the three system models applies.
    names:
        Optional worker names; default ``P1 .. Pm``.
    """

    w: tuple[float, ...]
    z: float
    kind: NetworkKind
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        w = validate_positive(self.w, "w")
        object.__setattr__(self, "w", tuple(float(x) for x in w))
        w.setflags(write=False)
        object.__setattr__(self, "_w_array", w)
        if not np.isfinite(self.z) or self.z <= 0.0:
            raise ValueError(f"z must be strictly positive, got {self.z}")
        if not isinstance(self.kind, NetworkKind):
            raise TypeError(f"kind must be a NetworkKind, got {type(self.kind)!r}")
        names = self.names or tuple(f"P{i + 1}" for i in range(len(self.w)))
        if len(names) != len(self.w):
            raise ValueError(
                f"got {len(names)} names for {len(self.w)} processors")
        if len(set(names)) != len(names):
            raise ValueError(f"processor names must be unique, got {names}")
        object.__setattr__(self, "names", tuple(names))

    @property
    def m(self) -> int:
        """Number of worker processors."""
        return len(self.w)

    @property
    def w_array(self) -> np.ndarray:
        """Per-unit processing times as a cached **read-only** array.

        Validated once in ``__post_init__`` and shared by every caller —
        the tuple-to-array conversion used to dominate the m=512
        allocation kernel.  Consumers that perturb values (dynamics,
        coalitions, sensitivity) already ``.copy()`` first; the write
        lock turns any future in-place mutation into a loud error
        instead of silent cross-caller corruption.
        """
        return self._w_array

    @property
    def processors(self) -> tuple[Processor, ...]:
        """Worker processors as :class:`Processor` objects."""
        return tuple(Processor(n, w) for n, w in zip(self.names, self.w))

    @property
    def originator_index(self) -> int | None:
        """Index of the load-originating worker (see :class:`NetworkKind`)."""
        return self.kind.originator_index(self.m)

    def with_w(self, w: Sequence[float]) -> "BusNetwork":
        """A copy with the per-unit processing times replaced.

        Used by the mechanism to evaluate allocations under bids versus
        under observed execution values on the *same* physical network.
        """
        if len(w) != self.m:
            raise ValueError(f"expected {self.m} values, got {len(w)}")
        return BusNetwork(tuple(float(x) for x in w), self.z, self.kind, self.names)

    def without(self, index: int) -> "BusNetwork":
        """The network with worker *index* removed (for the bonus term).

        The remaining processors keep their relative order, and the
        load-originator role is positional: ``P_1`` of the reduced
        network originates for ``NCP_FE``, the new last processor for
        ``NCP_NFE``.  Requires at least two workers.
        """
        if not 0 <= index < self.m:
            raise IndexError(f"index {index} out of range for m={self.m}")
        if self.m < 2:
            raise ValueError("cannot remove the only processor from the network")
        keep = [j for j in range(self.m) if j != index]
        return BusNetwork(
            tuple(self.w[j] for j in keep),
            self.z,
            self.kind,
            tuple(self.names[j] for j in keep),
        )

    def permuted(self, order: Sequence[int]) -> "BusNetwork":
        """The network with workers rearranged into *order*.

        *order* must be a permutation of ``range(m)``; used to verify
        Theorem 2.2 (any allocation order is optimal).
        """
        if sorted(order) != list(range(self.m)):
            raise ValueError(f"order {order!r} is not a permutation of range({self.m})")
        return BusNetwork(
            tuple(self.w[j] for j in order),
            self.z,
            self.kind,
            tuple(self.names[j] for j in order),
        )


def random_network(
    m: int,
    kind: NetworkKind,
    rng: np.random.Generator,
    *,
    w_low: float = 1.0,
    w_high: float = 10.0,
    z: float | None = None,
    z_low: float = 0.1,
    z_high: float = 2.0,
) -> BusNetwork:
    """Draw a random scheduling instance (the paper's theory is
    distribution-free, so uniform parameters exercise every code path).

    Parameters mirror the ranges used throughout the benchmark harness:
    ``w ~ U[w_low, w_high]`` per processor and, unless *z* is pinned,
    ``z ~ U[z_low, z_high]``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    w = rng.uniform(w_low, w_high, size=m)
    z_val = float(rng.uniform(z_low, z_high)) if z is None else float(z)
    return BusNetwork(tuple(w), z_val, kind)
