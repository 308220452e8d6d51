"""Shared fixtures and instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.dlt.platform import BusNetwork, NetworkKind

# ---------------------------------------------------------------------------
# hypothesis profile
# ---------------------------------------------------------------------------
# One pinned, deterministic profile for the whole suite: ``derandomize``
# makes every property test draw the same example stream in every run
# (local and CI), so a red hypothesis test always reproduces;
# ``deadline=None`` because protocol-backed properties run a full DES
# engagement per example and per-example wall clock is machine noise,
# not a property.
settings.register_profile(
    "repro-deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile("repro-deterministic")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; per-test isolation via fixed seed."""
    return np.random.default_rng(0xD15B)


@pytest.fixture(params=list(NetworkKind), ids=lambda k: k.value)
def kind(request) -> NetworkKind:
    """Parametrize a test across all three system models."""
    return request.param


@pytest.fixture(params=[NetworkKind.NCP_FE, NetworkKind.NCP_NFE],
                ids=lambda k: k.value)
def ncp_kind(request) -> NetworkKind:
    """Parametrize across the two no-control-processor models."""
    return request.param


def make_network(kind: NetworkKind, w, z: float = 0.5) -> BusNetwork:
    return BusNetwork(tuple(float(x) for x in w), z, kind)


# ---------------------------------------------------------------------------
# shared protocol builders
# ---------------------------------------------------------------------------
# The canonical instances the protocol/integration suites exercise, and
# the one build-and-run helper they used to each re-implement.  W4 is
# the default workload; W3 is the smaller engine-suite instance.

PROTO_W3 = [2.0, 3.0, 5.0]
PROTO_W4 = [2.0, 3.0, 5.0, 4.0]
PROTO_Z = 0.4


def run_protocol(kind=NetworkKind.NCP_FE, behaviors=None, *,
                 w=PROTO_W4, z: float = PROTO_Z, **kw):
    """Build and run one DLS-BL-NCP engagement (shared test builder).

    Keyword options are folded into an :class:`EngineConfig` (the
    preferred convention); the legacy-kwarg shim keeps its own explicit
    coverage in ``tests/api/test_facade.py``.
    """
    from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig

    config = EngineConfig(behaviors=behaviors, **kw)
    return DLSBLNCP(list(w), kind, z, config=config).run()


def crash_plan(victim: str, progress: float = 0.5, phase=None):
    """FaultPlan crashing *victim* mid-phase (default mid-Processing)."""
    from repro.network.faults import CrashFault, FaultPlan
    from repro.protocol.phases import Phase

    return FaultPlan(crashes=(CrashFault(
        victim, phase=phase or Phase.PROCESSING_LOAD, progress=progress),))


def assert_ledger_conserved(outcome, tol: float = 1e-9) -> None:
    """Money neither minted nor burned: all balances sum to ~zero."""
    assert abs(sum(outcome.balances.values())) < tol


@pytest.fixture
def run_ncp():
    """Fixture handle on :func:`run_protocol` for new-style tests."""
    return run_protocol


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

def w_values(min_size: int = 1, max_size: int = 10):
    """Per-unit processing times: positive, moderately heterogeneous.

    The range [0.1, 50] spans 500x heterogeneity without driving the
    chain products into float underflow, matching the closed forms'
    documented domain.
    """
    return st.lists(
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False,
                  allow_infinity=False),
        min_size=min_size, max_size=max_size,
    )


def z_values():
    """Bus communication rates over three decades."""
    return st.floats(min_value=0.01, max_value=10.0, allow_nan=False,
                     allow_infinity=False)


def json_values():
    """Nested JSON values: dicts, lists, ints, finite floats and strings.

    The floats include values whose shortest ``repr`` is easy to get
    wrong (``1/3``, ``1e-05``, ``-0.0``).
    """
    floats = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([1 / 3, 1e-05, -0.0]))
    scalars = (st.none() | st.booleans() | st.integers() | floats
               | st.text(max_size=8))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=6), inner,
                                         max_size=4)),
        max_leaves=16)


def network_strategy(kinds=tuple(NetworkKind), min_m: int = 1, max_m: int = 10):
    """Random BusNetwork instances across kinds and sizes."""
    return st.builds(
        lambda w, z, kind: BusNetwork(tuple(w), z, kind),
        w_values(min_m, max_m),
        z_values(),
        st.sampled_from(list(kinds)),
    )


def regime_network_strategy(kinds=tuple(NetworkKind), min_m: int = 1, max_m: int = 10):
    """Instances in the classical DLT regime: communication faster than
    the slowest useful computation (``z < min(w)``).

    Theorem 2.1's "all processors participate" premise requires this for
    NCP-NFE: with ``z >= w_m`` the originator is better off keeping load
    than paying to ship it (see tests/dlt/test_optimality.py's regime
    boundary test and DESIGN.md).  The fraction 0.8 keeps a margin from
    the boundary so float noise cannot flip optimizer comparisons.
    """
    return st.builds(
        lambda w, frac, kind: BusNetwork(tuple(w), frac * min(w), kind),
        w_values(min_m, max_m),
        st.floats(min_value=0.05, max_value=0.8),
        st.sampled_from(list(kinds)),
    )
