"""Hypothesis properties of the batch kernels themselves.

The differential suite pins the batch path to the scalar oracle
bit-for-bit; this module additionally checks that the batch path
satisfies the *paper's* invariants directly — mass conservation
(allocations are fractions of one load) and the simultaneous-finish
optimality condition — so a future bug that broke both paths in the
same way would still be caught.

Grids are built by stacking independently drawn networks of one shape,
which is exactly how the sweep layer forms its ``(S, m)`` arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as K
from repro.dlt.platform import BusNetwork
from tests.conftest import regime_network_strategy


def _stack(net: BusNetwork, rows: int, seed: int) -> np.ndarray:
    """(rows, m) grid: the drawn network plus jittered siblings."""
    rng = np.random.default_rng(seed)
    base = np.asarray(net.w, dtype=np.float64)
    W = base[None, :] * rng.uniform(0.5, 2.0, (rows, base.size))
    W[0] = base
    return W


@given(regime_network_strategy(min_m=1, max_m=10), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_mass_conservation(net, seed):
    W = _stack(net, 5, seed)
    A = K.allocate_batch(W, net.z, net.kind)
    assert A.shape == W.shape
    assert np.all(A > 0.0)
    np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@given(regime_network_strategy(min_m=2, max_m=10), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_simultaneous_finish(net, seed):
    # The closed form is optimal iff every processor finishes computing
    # at the same instant; on the batch path that is a row property of
    # finish_times_batch.
    W = _stack(net, 4, seed)
    A = K.allocate_batch(W, net.z, net.kind)
    F = K.finish_times_batch(A, W, net.z, net.kind)
    np.testing.assert_allclose(
        F, np.broadcast_to(F[:, :1], F.shape), rtol=1e-9)


@given(regime_network_strategy(min_m=2, max_m=10), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_excluded_makespans_dominate_inclusive(net, seed):
    # Removing a worker can never shrink the optimal makespan: the
    # leave-one-out splice must dominate the inclusive optimum row-wise.
    W = _stack(net, 3, seed)
    A = K.allocate_batch(W, net.z, net.kind)
    M = K.makespans_batch(A, W, net.z, net.kind)
    E = K.excluded_makespans_batch(W, net.z, net.kind)
    assert E.shape == W.shape
    assert np.all(E >= M[:, None] * (1.0 - 1e-12))


@given(regime_network_strategy(min_m=2, max_m=8), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_truthful_utilities_are_nonnegative(net, seed):
    # Strategyproofness floor: executing exactly as bid earns every
    # agent a nonnegative utility (compensation covers cost, bonus >= 0
    # by the exclusion-dominance property above).
    W = _stack(net, 3, seed)
    U = K.utilities_batch(W, net.z, net.kind, W)
    assert np.all(U >= -1e-12)
