"""Tests for multi-job (queue) scheduling."""

import pytest

from repro.dlt.multijob import (
    EXHAUSTIVE_CAP,
    flow_time_by_order,
    local_search_order,
    schedule_jobs,
    sjf_order,
)
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.dlt.timing import optimal_makespan

NET = BusNetwork((2.0, 3.0, 5.0, 4.0), 0.4, NetworkKind.CP)


class TestScheduleJobs:
    def test_single_unit_job_matches_single_round(self, kind):
        net = BusNetwork((2.0, 3.0, 5.0, 4.0), 0.4, kind)
        sched = schedule_jobs(net, [1.0])
        assert sched.makespan == pytest.approx(optimal_makespan(net))

    def test_load_scaling_is_linear_for_one_job(self):
        t1 = schedule_jobs(NET, [1.0]).makespan
        t3 = schedule_jobs(NET, [3.0]).makespan
        assert t3 == pytest.approx(3 * t1)

    def test_completions_are_nondecreasing(self):
        sched = schedule_jobs(NET, [1.0, 0.5, 2.0])
        assert list(sched.completions) == sorted(sched.completions)

    def test_pipelining_beats_sequential(self):
        # Running two jobs through the pipeline is faster than adding
        # two isolated makespans: job 2's comm hides under job 1's
        # compute tail.
        t1 = schedule_jobs(NET, [1.0]).makespan
        both = schedule_jobs(NET, [1.0, 1.0]).makespan
        assert both < 2 * t1 - 1e-9

    def test_validates_loads(self):
        with pytest.raises(ValueError):
            schedule_jobs(NET, [])
        with pytest.raises(ValueError):
            schedule_jobs(NET, [1.0, -2.0])


class TestOrderingEffects:
    LOADS = [3.0, 0.5, 1.5]

    def test_makespan_spread_is_modest(self):
        # Order changes how well the pipeline is primed, but the bulk of
        # the work is order-independent: the makespan spread stays
        # within ~10% while mean flow time varies by ~70%.
        rows = flow_time_by_order(NET, self.LOADS)
        makespans = [r[2] for r in rows]
        flows = [r[1] for r in rows]
        assert max(makespans) / min(makespans) < 1.15
        assert max(flows) / min(flows) > 1.5

    def test_sjf_minimizes_mean_flow_time(self):
        rows = flow_time_by_order(NET, self.LOADS)
        best_order = min(rows, key=lambda r: r[1])[0]
        assert list(best_order) == sjf_order(self.LOADS)

    def test_ljf_maximizes_mean_flow_time(self):
        rows = flow_time_by_order(NET, self.LOADS)
        worst_order = max(rows, key=lambda r: r[1])[0]
        assert list(worst_order) == list(reversed(sjf_order(self.LOADS)))

    def test_large_batches_sample_representatives(self):
        # Ascending input: FIFO == SJF, so dedup keeps 2 orders.
        rows = flow_time_by_order(NET, [1.0 * (i + 1) for i in range(9)])
        assert len(rows) == 2
        # Shuffled input: FIFO, SJF and LJF are all distinct.
        rows = flow_time_by_order(NET, [3.0, 1.0, 7.0, 2.0, 5.0, 4.0, 6.0,
                                        9.0, 8.0])
        assert len(rows) == 3


class TestSjfOrder:
    def test_orders_ascending(self):
        assert sjf_order([3.0, 0.5, 1.5]) == [1, 2, 0]


class TestLocalSearchOrder:
    def _flow(self, loads, order):
        return schedule_jobs(NET, [loads[i] for i in order]).mean_flow_time

    @pytest.mark.parametrize("loads", [
        [3.0, 0.5, 1.5],
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 0.3, 4.0, 1.1, 0.7],
        [5.0, 0.2, 0.9, 3.3, 1.7, 2.4],
    ])
    def test_matches_exhaustive_optimum_at_small_n(self, loads):
        # The adjacent-swap descent must land on the true optimum for
        # every batch small enough to enumerate — the regime where we
        # can check it at all.
        rows = flow_time_by_order(NET, loads)
        import math

        assert len(rows) == math.factorial(len(loads))
        best = min(r[1] for r in rows)
        local = local_search_order(NET, loads)
        assert self._flow(loads, local) == pytest.approx(best)

    def test_never_worse_than_sjf(self):
        loads = [3.0, 1.0, 7.0, 2.0, 5.0, 4.0, 6.0, 9.0, 8.0, 0.5]
        local = local_search_order(NET, loads)
        assert self._flow(loads, local) <= self._flow(
            loads, sjf_order(loads)) + 1e-12
        assert sorted(local) == list(range(len(loads)))

    def test_exhaustive_cap_clamps_enumeration(self):
        # 9 jobs with exhaustive_limit=20: the cap (8) must win, so the
        # fallback heuristics run instead of 9! = 362880 schedules.
        loads = [1.0 * (i + 1) for i in range(EXHAUSTIVE_CAP + 1)]
        rows = flow_time_by_order(NET, loads, exhaustive_limit=20)
        assert len(rows) <= 4


class TestConsistencyWithInstallments:
    def test_unit_batch_equals_installments(self, kind):
        # A batch summing to 1 run through the job pipeline is the same
        # physical schedule as the multiround installment simulator
        # with those gammas: the last completion must coincide.
        from repro.dlt.multiround import simulate_installments

        net = BusNetwork((2.0, 3.0, 5.0), 0.4, kind)
        gammas = [0.5, 0.3, 0.2]
        t_jobs = schedule_jobs(net, gammas).makespan
        t_rounds = simulate_installments(net, gammas)
        assert t_jobs == pytest.approx(t_rounds)
