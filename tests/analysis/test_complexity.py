"""Tests for the Theorem 5.4 communication-complexity machinery."""

import numpy as np
import pytest

from repro.analysis.complexity import (
    fit_loglog_slope,
    measure_communication,
)


class TestFitLoglogSlope:
    def test_exact_power_laws(self):
        xs = np.array([2, 4, 8, 16, 32])
        assert fit_loglog_slope(xs, xs**2) == pytest.approx(2.0)
        assert fit_loglog_slope(xs, 7 * xs) == pytest.approx(1.0)
        assert fit_loglog_slope(xs, np.full(5, 3.0)) == pytest.approx(0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [0, 1])


class TestMeasureCommunication:
    def test_samples_per_m(self, ncp_kind):
        samples = measure_communication([2, 4, 8], ncp_kind)
        assert [s.m for s in samples] == [2, 4, 8]
        assert all(s.control_bytes > 0 for s in samples)

    def test_payment_phase_dominates_at_scale(self, ncp_kind):
        s = measure_communication([32], ncp_kind)[0]
        assert s.payment_bytes > s.bid_bytes
        assert s.payment_bytes > 0.5 * s.control_bytes

    def test_theorem_54_quadratic_bytes(self):
        # Payment traffic is m vectors of size Theta(m): the byte count
        # must scale ~quadratically once the per-message constant is
        # amortized.
        samples = measure_communication([8, 16, 32, 64])
        slope = fit_loglog_slope([s.m for s in samples],
                                 [s.payment_bytes for s in samples])
        assert 1.6 < slope < 2.2

    def test_message_count_linear(self):
        samples = measure_communication([8, 16, 32, 64])
        slope = fit_loglog_slope([s.m for s in samples],
                                 [s.control_messages for s in samples])
        assert 0.8 < slope < 1.2

    def test_deterministic_for_seed(self):
        a = measure_communication([4, 8], seed=3)
        b = measure_communication([4, 8], seed=3)
        assert [(s.m, s.control_bytes) for s in a] == [
            (s.m, s.control_bytes) for s in b]
