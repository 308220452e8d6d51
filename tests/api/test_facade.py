"""Config objects and deprecation shims: old call sites warn, never break.

The kwargs collapse (EngineConfig / RunOptions) keeps every historical
calling convention working through DeprecationWarning shims that
produce *identical* results.  These tests are the pin: if a shim stops
warning, warns twice, or changes behaviour, this file goes red.
"""

import warnings

import pytest

from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.dlt.platform import NetworkKind
from repro.sweep import RunOptions, SweepPlan, run_plan

W = [2.0, 3.0, 5.0]
Z = 0.4


def _balances(outcome):
    return dict(outcome.balances)


class TestEngineConfig:
    def test_config_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome = DLSBLNCP(
                W, NetworkKind.NCP_FE, Z,
                config=EngineConfig(bidding_mode="commit")).run()
        assert outcome.completed

    def test_legacy_kwargs_warn_once_and_match_config_path(self):
        with pytest.warns(DeprecationWarning, match="EngineConfig") as rec:
            legacy = DLSBLNCP(W, NetworkKind.NCP_FE, Z,
                              bidding_mode="commit", pki_seed=7).run()
        assert len(rec) == 1
        config = EngineConfig(bidding_mode="commit", pki_seed=7)
        modern = DLSBLNCP(W, NetworkKind.NCP_FE, Z, config=config).run()
        assert _balances(legacy) == _balances(modern)
        assert legacy.bids == modern.bids

    def test_unknown_kwarg_is_a_type_error_listing_fields(self):
        with pytest.raises(TypeError, match="bogus"):
            DLSBLNCP(W, NetworkKind.NCP_FE, Z, bogus=1)

    def test_from_config_classmethod(self):
        config = EngineConfig(num_blocks=60)
        mech = DLSBLNCP.from_config(W, NetworkKind.NCP_FE, Z, config)
        assert mech.run().completed


class TestRunOptions:
    def plan(self, n=6):
        return SweepPlan.from_scenarios(
            "utility-point",
            [{"w": W, "z": Z, "kind": "ncp-fe", "i": 0,
              "bid_factor": 1.0 + 0.05 * i, "exec_factor": 1.0}
             for i in range(n)])

    def test_options_path_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_plan(self.plan(), RunOptions(workers=1))
        assert len(result.records) == 6

    def test_legacy_kwargs_warn_once_with_identical_digest(self):
        modern = run_plan(self.plan(), RunOptions(workers=2, chunk_size=2))
        with pytest.warns(DeprecationWarning, match="RunOptions") as rec:
            legacy = run_plan(self.plan(), workers=2, chunk_size=2)
        assert len(rec) == 1
        assert legacy.digest() == modern.digest()

    def test_unknown_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="pool_size"):
            run_plan(self.plan(), pool_size=4)

    def test_run_bench_workers_kwarg_warns(self, monkeypatch):
        from repro.perf import bench

        # The shim is about argument folding, not timing: stub the
        # timer so the kernels are built but never run.
        monkeypatch.setattr(bench, "_best_of", lambda fn, rounds: 0.0)
        with pytest.warns(DeprecationWarning, match="RunOptions"):
            timings = bench.run_bench(quick=True, workers=1)
        assert "protocol_m64" in timings


class TestTopLevelReexports:
    def test_facade_importable_from_repro(self):
        import repro

        for name in ("EngagementRequest", "SweepRequest", "BenchRequest",
                     "EngineConfig", "RunOptions", "execute", "ApiError"):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_quickstart_facade_snippet_runs(self):
        from repro import EngagementRequest, execute

        result = execute(EngagementRequest(w=(2.0, 3.0, 5.0), z=0.3))
        assert result.completed
