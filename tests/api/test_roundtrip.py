"""repro.api v1: validation, canonical round-trips, digest identity."""

import json

import pytest

from repro.api import (
    SCHEMA,
    ApiError,
    BenchRequest,
    BenchResult,
    EngagementRequest,
    EngagementResult,
    FleetStatsResult,
    MarketRequest,
    MarketResult,
    MultiEngagementRequest,
    ServiceStats,
    SweepRequest,
    execute,
    request_from_dict,
    result_from_dict,
    settlement_digest,
)
from repro.sweep import SweepPlan

W = (2.0, 3.0, 5.0)
Z = 0.4


def square_plan_dict(n=4):
    return SweepPlan.from_scenarios(
        "utility-point",
        [{"w": list(W), "z": Z, "kind": "ncp-fe", "i": 0,
          "bid_factor": 1.0 + 0.1 * i, "exec_factor": 1.0}
         for i in range(n)],
        root_seed=7).to_dict()


class TestEnvelope:
    def test_every_payload_is_schema_tagged(self):
        for payload in (EngagementRequest(w=W, z=Z),
                        SweepRequest(plan=square_plan_dict()),
                        BenchRequest(),
                        ServiceStats()):
            d = payload.to_dict()
            assert d["schema"] == SCHEMA
            assert d["type"] == type(payload).TYPE

    def test_wrong_schema_rejected_with_version_hint(self):
        d = EngagementRequest(w=W, z=Z).to_dict()
        d["schema"] = "repro/api/v2"
        with pytest.raises(ApiError, match="newer API version"):
            EngagementRequest.from_dict(d)

    def test_unknown_field_rejected_by_name(self):
        d = EngagementRequest(w=W, z=Z).to_dict()
        d["surprise"] = 1
        with pytest.raises(ApiError, match=r"\['surprise'\]"):
            EngagementRequest.from_dict(d)

    def test_type_dispatch(self):
        for req in (EngagementRequest(w=W, z=Z),
                    SweepRequest(plan=square_plan_dict()),
                    BenchRequest(quick=True)):
            assert request_from_dict(req.to_dict()) == req

    def test_unknown_request_type_lists_valid(self):
        with pytest.raises(ApiError, match="bench.*engagement.*sweep"):
            request_from_dict({"schema": SCHEMA, "type": "mystery"})


class TestEngagementRequestValidation:
    def test_defaults_materialized_in_to_dict(self):
        d = EngagementRequest(w=W, z=Z).to_dict()
        assert d["num_blocks"] == 120
        assert d["bidding_mode"] == "atomic"
        assert d["redundancy"] == "memoized"
        assert d["deviants"] == [] and d["crash"] == []

    def test_json_round_trip_is_exact(self):
        req = EngagementRequest(
            w=W, z=Z, kind="ncp-nfe", bidding_mode="commit",
            fine_factor=3.0, deviants=((1, "multiple-bids"),),
            crash=((0, 0.5),), drop_rate=0.1, seed=9, pki_seed=4)
        again = request_from_dict(json.loads(json.dumps(req.to_dict())))
        assert again == req
        assert again.digest() == req.digest()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(w=(2.0,), z=Z), "at least 2"),
        (dict(w=W, z=0.0), "z must be > 0"),
        (dict(w=(2.0, -1.0), z=Z), r"w\[1\] must be > 0"),
        (dict(w=W, z=Z, kind="cp"), "control processor"),
        (dict(w=W, z=Z, kind="mesh"), "kind must be one of"),
        (dict(w=W, z=Z, bidding_mode="gossip"), "bidding_mode"),
        (dict(w=W, z=Z, num_blocks=0), "num_blocks"),
        (dict(w=W, z=Z, deviants=((5, "multiple-bids"),)), "out of range"),
        (dict(w=W, z=Z, deviants=((0, "nope"),)), "unknown deviation"),
        (dict(w=W, z=Z, crash=((1, 1.5),)), "crash progress"),
        (dict(w=W, z=Z, drop_rate=1.0), "drop_rate"),
        (dict(w=W, z=Z, redundancy="psychic"), "redundancy"),
        (dict(w=W, z=Z, deviants=None), "deviants"),
        (dict(w=W, z=Z, crash=5), "crash"),
        (dict(w=W, z=Z, committee=4, byzantine={}), "byzantine"),
        (dict(w=(True, 2.0), z=Z), r"w\[0\]"),
        (dict(w=W, z="0.4"), "z"),
    ])
    def test_actionable_validation_errors(self, kwargs, match):
        with pytest.raises(ApiError, match=match):
            EngagementRequest(**kwargs)

    def test_digest_ignores_field_order(self):
        a = EngagementRequest(w=W, z=Z, seed=1)
        d = a.to_dict()
        shuffled = dict(reversed(list(d.items())))
        assert request_from_dict(shuffled).digest() == a.digest()


class TestSweepAndBenchRequests:
    def test_sweep_embeds_a_valid_plan(self):
        req = SweepRequest(plan=square_plan_dict(), workers=2)
        assert len(req.build_plan()) == 4
        assert request_from_dict(req.to_dict()) == req

    def test_sweep_rejects_malformed_plan_with_reason(self):
        with pytest.raises(ApiError, match="not a valid repro/sweep-plan"):
            SweepRequest(plan={"format": "nope"})

    def test_bench_round_trip(self):
        req = BenchRequest(quick=False, workers=2)
        assert request_from_dict(req.to_dict()) == req

    def test_bench_quick_must_be_bool(self):
        with pytest.raises(ApiError, match="quick"):
            BenchRequest(quick=1)


class TestMultiEngagementRequest:
    def _payloads(self, k=2):
        return tuple(EngagementRequest(
            w=tuple(x * (1.0 + 0.5 * j) for x in W), z=Z).to_dict()
            for j in range(k))

    def test_round_trip_is_exact(self):
        req = MultiEngagementRequest(engagements=self._payloads(3),
                                     policy="sjf")
        clone = request_from_dict(json.loads(json.dumps(req.to_dict())))
        assert clone == req
        assert clone.digest() == req.digest()

    def test_ids_are_deterministic(self):
        req = MultiEngagementRequest(engagements=self._payloads(3))
        assert req.engagement_ids == ("E1", "E2", "E3")

    def test_wrapping_a_solo_request_is_verbatim(self):
        solo = EngagementRequest(w=W, z=Z, committee=4)
        req = MultiEngagementRequest(engagements=(solo.to_dict(),))
        assert req.engagements == (solo,)
        assert req.to_dict()["engagements"] == [solo.to_dict()]

    def test_loose_sub_payload_digests_like_its_canonical_form(self):
        # One identity rule for solo and wrapped engagements: a loosely
        # written sub-payload (integer w, defaults left out) is parsed
        # and re-encoded canonically, exactly as it is when sent alone.
        loose = {"schema": SCHEMA, "type": "engagement",
                 "w": [2, 3], "z": 0.4}
        canonical = EngagementRequest(w=(2.0, 3.0), z=0.4).to_dict()
        assert (request_from_dict(loose).digest()
                == request_from_dict(canonical).digest())
        wrapped_loose, wrapped_canonical = (
            MultiEngagementRequest(engagements=(sub,))
            for sub in (loose, canonical))
        assert wrapped_loose.to_dict() == wrapped_canonical.to_dict()
        assert wrapped_loose.digest() == wrapped_canonical.digest()

    def test_needs_at_least_one_engagement(self):
        with pytest.raises(ApiError, match="at least 1"):
            MultiEngagementRequest(engagements=())

    def test_policy_choice_validated(self):
        with pytest.raises(ApiError, match="policy"):
            MultiEngagementRequest(engagements=self._payloads(),
                                   policy="lifo")

    def test_mismatched_z_rejected_with_position(self):
        bad = (EngagementRequest(w=W, z=Z).to_dict(),
               EngagementRequest(w=W, z=0.7).to_dict())
        with pytest.raises(ApiError, match=r"engagements\[1\]\.z"):
            MultiEngagementRequest(engagements=bad)

    def test_sub_payload_errors_carry_position(self):
        bad = dict(EngagementRequest(w=W, z=Z).to_dict())
        bad["fine_factor"] = -1.0
        with pytest.raises(ApiError, match=r"engagements\[1\]"):
            MultiEngagementRequest(
                engagements=(EngagementRequest(w=W, z=Z).to_dict(), bad))

    def test_result_digest_detects_corruption(self):
        from repro.api import run_multi_engagement

        res = run_multi_engagement(
            MultiEngagementRequest(engagements=self._payloads()))
        doc = res.to_dict()
        doc["digest_value"] = "0" * 64
        with pytest.raises(ApiError, match="corrupted"):
            result_from_dict(doc)


class TestMarketRequest:
    def test_defaults_materialized_in_to_dict(self):
        d = MarketRequest().to_dict()
        assert d["rounds"] == 100
        assert d["policy"] == "fifo"
        assert d["deviants"] == []
        assert d["reputation_decay"] == 0.8
        assert d["admission_floor"] == 0.2

    def test_json_round_trip_is_exact(self):
        req = MarketRequest(
            rounds=50, seed=9, z=0.5, kind="ncp-nfe", num_blocks=24,
            processors=8, cohort=4, deviants=((0, "multiple-bids"),
                                              (2, "short-allocation")),
            arrival_rate=3.0, contention_window=0.25, max_contention=2,
            policy="sjf", join_rate=0.1, leave_rate=0.05,
            reputation_decay=0.7, admission_floor=0.3, window=10)
        again = request_from_dict(json.loads(json.dumps(req.to_dict())))
        assert again == req
        assert again.digest() == req.digest()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(rounds=0), "rounds"),
        (dict(z=0.0), "z must be > 0"),
        (dict(kind="cp"), "kind must be one of"),
        (dict(processors=1), "processors"),
        (dict(cohort=1), "cohort"),
        (dict(processors=3, cohort=4), "cohort must be <= processors"),
        (dict(w_low=0.0), "w_low"),
        (dict(w_low=3.0, w_high=2.0), "w_high"),
        (dict(arrival_rate=0.0), "arrival_rate"),
        (dict(contention_window=-1.0), "contention_window"),
        (dict(max_contention=0), "max_contention"),
        (dict(policy="lifo"), "policy"),
        (dict(join_rate=1.5), "join_rate"),
        (dict(leave_rate=-0.1), "leave_rate"),
        (dict(deviants=((9, "multiple-bids"),)), "out of range"),
        (dict(deviants=((0, "nope"),)), "unknown deviation"),
        (dict(processors=2, cohort=2,
              deviants=((0, "multiple-bids"), (1, "split-bids"))),
         "at least one honest"),
        (dict(reputation_decay=1.5), "reputation_decay"),
        (dict(admission_floor=1.0), "admission_floor"),
        (dict(window=0), "window"),
        (dict(deviants=5), "deviants"),
        (dict(arrival_rate=True), "arrival_rate"),
    ])
    def test_actionable_validation_errors(self, kwargs, match):
        with pytest.raises(ApiError, match=match):
            MarketRequest(**kwargs)

    def test_unknown_field_rejected_by_name(self):
        d = MarketRequest().to_dict()
        d["volatility"] = 0.5
        with pytest.raises(ApiError, match=r"\['volatility'\]"):
            MarketRequest.from_dict(d)


class TestMarketResult:
    def _result(self):
        return MarketResult(
            rounds=4, digest_value="ab" * 32,
            summary={"fines": 2, "welfare_total": 9.5},
            series={"welfare": [2.0, 2.5], "fines": [1, 1]},
            reputations={"M1": 0.512, "M2": 1.0})

    def test_round_trip_and_identity(self):
        res = self._result()
        again = result_from_dict(json.loads(json.dumps(res.to_dict())))
        assert again == res
        # The stream digest IS the identity; telemetry (cached) is not.
        assert again.digest() == "ab" * 32
        replayed = MarketResult(**{**vars(res), "cached": True})
        assert replayed.digest() == res.digest()

    def test_requires_a_stream_digest(self):
        with pytest.raises(ApiError, match="digest_value"):
            MarketResult(rounds=1)

    def test_rejects_malformed_series_and_reputations(self):
        with pytest.raises(ApiError, match=r"series\['welfare'\]"):
            MarketResult(digest_value="ff", series={"welfare": 3})
        with pytest.raises(ApiError, match="reputations"):
            MarketResult(digest_value="ff", reputations={"M1": 2.0})


class TestResults:
    def test_engagement_result_digest_excludes_telemetry(self):
        res = execute(EngagementRequest(w=W, z=Z))
        record = dict(res.outcome)
        assert "traffic" in record and "spans" in record
        mutated = dict(record)
        mutated["traffic"] = {"messages": 10**9}
        mutated["spans"] = []
        assert settlement_digest(mutated) == settlement_digest(record)
        tampered = dict(record)
        tampered["balances"] = {k: v + 1.0
                                for k, v in record["balances"].items()}
        assert settlement_digest(tampered) != settlement_digest(record)

    def test_engagement_result_round_trip(self):
        res = execute(EngagementRequest(w=W, z=Z))
        again = result_from_dict(json.loads(json.dumps(res.to_dict())))
        assert isinstance(again, EngagementResult)
        assert again.digest() == res.digest()
        assert again.completed == res.completed
        assert again.spans == res.spans

    def test_sweep_result_round_trip_checks_digest(self):
        res = execute(SweepRequest(plan=square_plan_dict()))
        payload = res.to_dict()
        again = result_from_dict(payload)
        assert again.digest() == res.digest()
        corrupted = dict(payload)
        corrupted["records"] = list(corrupted["records"])[:-1]
        with pytest.raises(ApiError, match="corrupted"):
            result_from_dict(corrupted)

    def test_bench_result_round_trip(self):
        res = BenchResult(timings={"kernel_a": 0.25}, quick=True)
        assert result_from_dict(res.to_dict()) == res

    def test_fleet_stats_result_round_trip(self):
        res = FleetStatsResult(
            daemons=({"endpoint": "127.0.0.1:7341", "healthy": True,
                      "stats": {"requests": 3}},
                     {"endpoint": "127.0.0.1:7342", "healthy": False,
                      "stats": None}),
            dispatcher={"requests": 3, "failovers": 1})
        again = result_from_dict(json.loads(json.dumps(res.to_dict())))
        assert isinstance(again, FleetStatsResult)
        assert again == res
        assert again.healthy == 1

    def test_fleet_stats_result_rejects_malformed_daemons(self):
        with pytest.raises(ApiError, match="endpoint"):
            FleetStatsResult(daemons=({"healthy": True},))
        with pytest.raises(ApiError, match="daemons"):
            FleetStatsResult(daemons=7)
        with pytest.raises(ApiError, match="dispatcher"):
            FleetStatsResult(dispatcher=[1, 2])


class TestExecuteDigestIdentity:
    def test_engagement_digest_matches_direct_engine_run(self):
        from repro.api import build_mechanism, result_from_outcome

        req = EngagementRequest(w=W, z=Z, deviants=((2, "split-bids"),))
        assert (execute(req).digest()
                == result_from_outcome(build_mechanism(req).run()).digest())

    def test_sweep_digest_matches_run_plan(self):
        from repro.sweep import run_plan

        req = SweepRequest(plan=square_plan_dict())
        assert execute(req).digest() == run_plan(req.build_plan()).digest()
