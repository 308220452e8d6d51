"""The request-type registry: one dispatch seam, completely populated.

The api_redesign contract: ``execute()``, ``request_from_dict`` and the
daemon's cache policy all dispatch through :mod:`repro.api.registry`.
These tests pin that the registry is *complete* (every wire kind has a
class and an executor), *stable* (a discriminator cannot be silently
rebound), and *faithful* (parsing through the registry is the same
function the legacy entry points delegate to, error messages included).
"""

import pytest

from repro.api import (
    ApiError,
    BenchRequest,
    EngagementRequest,
    MarketRequest,
    MultiEngagementRequest,
    SweepRequest,
    execute,
    register_request,
    request_entry,
)
from repro.api import registry
from repro.api import v1

REQUEST_KINDS = ("engagement", "multi-engagement", "sweep", "bench",
                 "market")
RESULT_KINDS = ("engagement-result", "multi-engagement-result",
                "sweep-result", "bench-result", "market-result",
                "stats-result", "fleet-stats-result")


class TestCompleteness:
    def test_every_request_kind_is_registered(self):
        assert set(registry.REQUEST_CLASSES) == set(REQUEST_KINDS)

    def test_every_result_kind_is_registered(self):
        assert set(registry.RESULT_CLASSES) == set(RESULT_KINDS)

    def test_every_request_kind_has_an_executor(self):
        import repro.api.execute  # noqa: F401 — attaches executors

        for kind in REQUEST_KINDS:
            entry = request_entry(kind)
            assert entry is not None, f"{kind} unregistered"
            assert callable(entry.executor), f"{kind} has no executor"

    def test_executors_share_one_signature(self):
        # execute() and the daemon's warm workers call every executor
        # with the request alone: no executor takes state that could
        # outlive one call.
        import inspect

        import repro.api.execute  # noqa: F401

        for kind in REQUEST_KINDS:
            sig = inspect.signature(request_entry(kind).executor)
            assert list(sig.parameters) == ["request"], (
                f"{kind} executor must take only the request")


class TestCachePolicy:
    def test_bench_is_the_only_uncacheable_kind(self):
        uncacheable = {kind for kind in REQUEST_KINDS
                       if not request_entry(kind).cacheable}
        assert uncacheable == {"bench"}

    def test_cacheable_helper_matches_entries(self):
        assert registry.cacheable(EngagementRequest(w=(2.0, 3.0), z=0.4))
        assert registry.cacheable(MarketRequest())
        assert not registry.cacheable(BenchRequest())
        assert not registry.cacheable(object())  # unregistered: never


class TestStability:
    def test_re_registration_is_an_idempotent_merge(self):
        entry = request_entry("market")
        before = (entry.cls, entry.executor, entry.cacheable)
        register_request(MarketRequest)  # None args keep what's there
        entry = request_entry("market")
        assert (entry.cls, entry.executor, entry.cacheable) == before

    def test_rebinding_a_kind_to_a_new_class_is_refused(self):
        class Impostor:
            TYPE = "market"

        with pytest.raises(ValueError, match="already registered"):
            register_request(Impostor)
        assert request_entry("market").cls is MarketRequest

    def test_registering_a_typeless_class_is_refused(self):
        class Nameless:
            pass

        with pytest.raises(ValueError, match="no TYPE"):
            register_request(Nameless)


class TestParsingDispatch:
    def test_parse_request_dispatches_every_kind(self):
        for req in (EngagementRequest(w=(2.0, 3.0), z=0.4),
                    BenchRequest(),
                    MarketRequest(rounds=3)):
            assert registry.parse_request(req.to_dict()) == req

    def test_legacy_entry_points_are_registry_views(self):
        # The old module-level dicts are the registry's live dict
        # objects (not copies), so a late registration is visible to
        # every consumer at once.
        assert v1.REQUEST_TYPES is registry.REQUEST_CLASSES
        assert v1.RESULT_TYPES is registry.RESULT_CLASSES

    def test_unknown_type_error_message_is_unchanged(self):
        with pytest.raises(ApiError,
                           match=r"unknown request type 'mystery'; "
                                 r"valid types: \['bench'"):
            v1.request_from_dict({"schema": v1.SCHEMA, "type": "mystery"})
        with pytest.raises(ApiError, match="unknown result type"):
            v1.result_from_dict({"schema": v1.SCHEMA, "type": "mystery"})

    def test_non_mapping_payloads_rejected(self):
        with pytest.raises(ApiError, match="JSON object"):
            registry.parse_request([1, 2, 3])
        with pytest.raises(ApiError, match="JSON object"):
            registry.parse_result("nope")


class TestExecutorDispatch:
    def test_execute_is_registry_driven(self):
        # Registering a throwaway kind makes execute() handle it with
        # no edits to repro.api.execute — the whole point of the seam.
        class ProbeRequest:
            TYPE = "registry-probe"

            def __init__(self):
                self.handled = False

        try:
            register_request(ProbeRequest, lambda request: "probed")
            assert execute(ProbeRequest()) == "probed"
        finally:
            registry.REQUEST_CLASSES.pop("registry-probe", None)
            registry._ENTRIES.pop("registry-probe", None)

    def test_unexecutable_request_names_the_registered_kinds(self):
        with pytest.raises(ApiError, match="registered request types"):
            execute(object())

    def test_execute_still_runs_real_requests(self):
        req = EngagementRequest(w=(2.0, 3.0, 5.0), z=0.4)
        result = execute(req)
        assert result.digest() == execute(req).digest()

    def test_multi_engagement_dispatch(self):
        sub = EngagementRequest(w=(2.0, 3.0), z=0.4).to_dict()
        req = MultiEngagementRequest(engagements=(sub,))
        assert execute(req).digest()

    def test_sweep_executor_accepts_cache_kwargs(self):
        from repro.sweep import SweepPlan

        plan = SweepPlan.from_scenarios(
            "utility-point",
            [{"w": [2.0, 3.0], "z": 0.4, "kind": "ncp-fe", "i": 0,
              "bid_factor": 1.0, "exec_factor": 1.0}]).to_dict()
        req = SweepRequest(plan=plan)
        assert execute(req).digest()
