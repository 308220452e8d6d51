"""Tests for welfare metrics and cross-system comparison."""

from repro.analysis.welfare import kind_comparison, truthful_profile
from repro.dlt.platform import NetworkKind

W = [2.0, 3.0, 5.0, 4.0]


class TestTruthfulProfile:
    def test_utilities_nonnegative(self, kind):
        r = truthful_profile(W, kind, 0.4)
        assert min(r.utilities) >= -1e-10

    def test_user_cost_exceeds_work_cost(self, kind):
        r = truthful_profile(W, kind, 0.4)
        assert r.user_cost >= sum(r.compensations) - 1e-10


class TestKindComparison:
    def test_contains_all_kinds(self):
        kc = kind_comparison(W, 0.4)
        assert set(kc.makespans) == set(NetworkKind)
        assert set(kc.user_costs) == set(NetworkKind)

    def test_cp_is_never_fastest(self):
        # Both NCP systems dominate CP (their originator computes).
        for z in (0.1, 0.5, 1.0):
            kc = kind_comparison(W, z)
            assert kc.ranking[-1] is NetworkKind.CP or (
                kc.makespans[NetworkKind.CP]
                >= max(kc.makespans[NetworkKind.NCP_FE],
                       kc.makespans[NetworkKind.NCP_NFE]) - 1e-12)

    def test_gap_widens_with_z(self):
        slow = kind_comparison(W, 1.5)
        fast = kind_comparison(W, 0.05)
        gap = lambda kc: (kc.makespans[NetworkKind.CP]
                          - kc.makespans[NetworkKind.NCP_FE])
        assert gap(slow) > gap(fast)

    def test_ranking_sorted(self):
        kc = kind_comparison(W, 0.4)
        values = [kc.makespans[k] for k in kc.ranking]
        assert values == sorted(values)
