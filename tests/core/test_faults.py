"""Tests for the deterministic chaos-injection subsystem."""

import pickle

import pytest

from repro.core.faults import (
    DEFAULT_RESILIENCE,
    FaultKind,
    FaultPlan,
    FaultPoint,
    FaultRule,
    RECOVERABLE_KINDS,
    Resilience,
    plan_from_seed,
)
from repro.core.workers import WorkerPool


class TestFaultRule:
    def test_matches_window(self):
        rule = FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=2, count=3)
        assert not rule.matches(FaultPoint.WORKER_BATCH, 1, None)
        assert rule.matches(FaultPoint.WORKER_BATCH, 2, None)
        assert rule.matches(FaultPoint.WORKER_BATCH, 4, None)
        assert not rule.matches(FaultPoint.WORKER_BATCH, 5, None)

    def test_matches_point(self):
        rule = FaultRule(FaultPoint.QUEUE_PUT, FaultKind.STALL)
        assert rule.matches(FaultPoint.QUEUE_PUT, 0, None)
        assert not rule.matches(FaultPoint.KFIFO_PUT, 0, None)

    def test_worker_filter(self):
        rule = FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, worker=1)
        assert rule.matches(FaultPoint.WORKER_BATCH, 0, 1)
        assert not rule.matches(FaultPoint.WORKER_BATCH, 0, 0)
        assert not rule.matches(FaultPoint.WORKER_BATCH, 0, None)

    def test_worker_none_matches_any(self):
        rule = FaultRule(FaultPoint.WORKER_BATCH, FaultKind.SLOW)
        assert rule.matches(FaultPoint.WORKER_BATCH, 0, 0)
        assert rule.matches(FaultPoint.WORKER_BATCH, 0, 7)
        assert rule.matches(FaultPoint.WORKER_BATCH, 0, None)


class TestFaultPlan:
    def test_fire_counts_hits_per_point_and_worker(self):
        plan = FaultPlan(
            rules=[FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=1)]
        )
        # Hit 0 does not match; hit 1 does.  Counters are per worker.
        assert plan.fire(FaultPoint.WORKER_BATCH, worker=0) is None
        assert plan.fire(FaultPoint.WORKER_BATCH, worker=1) is None
        rule = plan.fire(FaultPoint.WORKER_BATCH, worker=0)
        assert rule is not None and rule.kind is FaultKind.CRASH
        rule = plan.fire(FaultPoint.WORKER_BATCH, worker=1)
        assert rule is not None and rule.kind is FaultKind.CRASH

    def test_fire_unrelated_point_is_silent(self):
        plan = FaultPlan(rules=[FaultRule(FaultPoint.SPAWN, FaultKind.FAIL)])
        assert plan.fire(FaultPoint.QUEUE_PUT) is None

    def test_reset_forgets_hits(self):
        plan = FaultPlan(rules=[FaultRule(FaultPoint.SPAWN, FaultKind.FAIL)])
        assert plan.fire(FaultPoint.SPAWN) is not None
        assert plan.fire(FaultPoint.SPAWN) is None  # window passed
        plan.reset()
        assert plan.fire(FaultPoint.SPAWN) is not None

    def test_sleep_if_told_only_sleeps_for_delay_kinds(self):
        plan = FaultPlan(
            rules=[
                FaultRule(FaultPoint.KFIFO_PUT, FaultKind.STALL, delay=0.0),
                FaultRule(FaultPoint.QUEUE_PUT, FaultKind.FAIL, at=0),
            ]
        )
        # Neither raises nor hangs: STALL sleeps its (zero) delay, and a
        # non-delay kind is ignored by the convenience helper.
        plan.sleep_if_told(FaultPoint.KFIFO_PUT)
        plan.sleep_if_told(FaultPoint.QUEUE_PUT)

    def test_plan_is_picklable_with_hits(self):
        plan = FaultPlan(
            rules=[FaultRule(FaultPoint.WORKER_BATCH, FaultKind.CRASH, at=1)]
        )
        plan.fire(FaultPoint.WORKER_BATCH, worker=0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.rules == plan.rules
        # The clone carries the counters, so it continues the schedule.
        rule = clone.fire(FaultPoint.WORKER_BATCH, worker=0)
        assert rule is not None


class TestSeedDerivedPlans:
    def test_none_seed_is_no_plan(self):
        assert plan_from_seed(None) is None

    def test_same_seed_same_schedule(self):
        assert plan_from_seed(42).rules == plan_from_seed(42).rules

    def test_seed_recorded_on_plan(self):
        assert plan_from_seed(7).seed == 7

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 12345])
    def test_seed_plans_are_recoverable_only(self, seed):
        plan = plan_from_seed(seed)
        assert plan.rules
        for rule in plan.rules:
            assert rule.kind in RECOVERABLE_KINDS
            assert rule.point in FaultPoint.ALL

    def test_seed_plan_includes_worker_crash(self):
        # The chaos CI profile always exercises the respawn path.
        kinds = {rule.kind for rule in plan_from_seed(3).rules}
        assert FaultKind.CRASH in kinds

    def test_unknown_point_names_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            plan_from_seed(3, points=["worker.batch", "nope.nothing"])
        message = str(excinfo.value)
        assert "nope.nothing" in message
        # the error teaches the valid vocabulary
        for point in FaultPoint.ALL:
            assert point in message

    def test_unknown_points_rejected_even_without_seed(self):
        with pytest.raises(ValueError):
            plan_from_seed(None, points=["bogus"])

    def test_explicit_all_points_accepted(self):
        plan = plan_from_seed(9, points=list(FaultPoint.ALL))
        assert {rule.point for rule in plan.rules} == set(FaultPoint.ALL)

    def test_point_selection_restricts_plan(self):
        plan = plan_from_seed(9, points=["daemon.shed"])
        assert plan.rules
        assert {rule.point for rule in plan.rules} == {"daemon.shed"}

    def test_point_schedule_independent_of_other_points(self):
        # A point's rules depend only on (seed, point), not on which
        # other points ride along in the same plan.
        alone = plan_from_seed(5, points=["daemon.session_decode"]).rules
        together = [
            rule
            for rule in plan_from_seed(5, points=list(FaultPoint.ALL)).rules
            if rule.point == "daemon.session_decode"
        ]
        assert alone == together

    def test_daemon_points_in_registry(self):
        assert "daemon.accept" in FaultPoint.ALL
        assert "daemon.session_decode" in FaultPoint.ALL
        assert "daemon.shed" in FaultPoint.ALL

    def test_default_points_unchanged_by_allowlist_feature(self):
        # points=None must keep the exact legacy schedule: chaos CI
        # seeds are pinned to it.
        assert plan_from_seed(3, points=None).rules == plan_from_seed(3).rules
        legacy_points = {rule.point for rule in plan_from_seed(3).rules}
        assert "daemon.accept" not in legacy_points


class TestResilience:
    def test_default_policy(self):
        assert DEFAULT_RESILIENCE.check_timeout is None
        assert DEFAULT_RESILIENCE.max_retries == 2
        assert DEFAULT_RESILIENCE.fallback
        assert DEFAULT_RESILIENCE.supervised

    def test_unsupervised_when_everything_off(self):
        policy = Resilience(check_timeout=None, max_retries=0, fallback=False)
        assert not policy.supervised

    def test_watchdog_alone_is_supervised(self):
        policy = Resilience(check_timeout=1.0, max_retries=0, fallback=False)
        assert policy.supervised

    @pytest.mark.parametrize("timeout", [0, 0.0, -1, float("nan")])
    def test_nonpositive_check_timeout_rejected(self, timeout):
        """A watchdog that fires on the first poll of every drain is
        refused where every caller builds the policy."""
        with pytest.raises(ValueError, match="check_timeout must be > 0"):
            Resilience(check_timeout=timeout)
        with pytest.raises(ValueError, match="check_timeout must be > 0"):
            WorkerPool(num_workers=0, check_timeout=timeout)
