"""Traffic measurement across bidding transports."""

from repro.analysis.complexity import fit_loglog_slope, measure_communication


class TestBiddingModeTraffic:
    def test_atomic_bid_traffic_linear(self):
        samples = measure_communication([8, 32], bidding_mode="atomic")
        slope = fit_loglog_slope([s.m for s in samples],
                                 [s.bid_bytes for s in samples])
        assert slope < 1.3

    def test_p2p_bid_traffic_quadratic(self):
        samples = measure_communication([8, 32], bidding_mode="commit")
        slope = fit_loglog_slope([s.m for s in samples],
                                 [s.bid_bytes for s in samples])
        assert slope > 1.6

    def test_total_quadratic_either_way(self):
        for mode in ("atomic", "naive"):
            samples = measure_communication([8, 32, 64], bidding_mode=mode)
            slope = fit_loglog_slope([s.m for s in samples],
                                     [s.control_bytes for s in samples])
            assert 1.4 < slope < 2.3, mode

    def test_same_payment_traffic_regardless_of_transport(self):
        a = measure_communication([16], bidding_mode="atomic")[0]
        b = measure_communication([16], bidding_mode="commit")[0]
        assert a.payment_bytes == b.payment_bytes
