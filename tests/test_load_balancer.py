"""Tests of repro.core.load_balancer (Algorithm 3.2)."""

import pytest

from repro.core import CostPolicy, LoadBalancer, LoadBalancerOptions, balance_schedule
from repro.errors import ConfigurationError
from repro.scheduling import check_schedule
from repro.scheduling.heuristic import PlacementPolicy, SchedulerOptions
from repro.workloads import GraphShape, WorkloadSpec, scheduled_workload


class TestBasicBehaviour:
    def test_result_fields(self, paper_schedule):
        result = balance_schedule(paper_schedule)
        assert result.makespan_before == pytest.approx(15.0)
        assert result.makespan_after <= result.makespan_before
        assert len(result.decisions) == len(result.blocks) == 7
        assert result.evaluations == 7 * 3
        assert result.safety_level in {"paper", "conservative", "no-op"}

    def test_every_policy_produces_feasible_result(self, paper_schedule):
        for policy in CostPolicy:
            result = balance_schedule(paper_schedule, LoadBalancerOptions(policy=policy))
            report = check_schedule(result.balanced_schedule, check_memory=False)
            assert report.is_feasible, (policy, report.summary())

    def test_balanced_schedule_has_all_instances(self, paper_schedule):
        result = balance_schedule(paper_schedule)
        assert len(result.balanced_schedule) == len(paper_schedule)

    def test_empty_schedule_rejected(self, paper_schedule):
        empty = paper_schedule.with_instances([], ())
        with pytest.raises(ConfigurationError):
            LoadBalancer(empty)

    def test_total_gain_never_negative(self, paper_schedule):
        for policy in CostPolicy:
            result = balance_schedule(paper_schedule, LoadBalancerOptions(policy=policy))
            assert result.total_gain >= -1e-9

    def test_decisions_have_candidates_for_every_processor(self, paper_schedule):
        result = balance_schedule(paper_schedule)
        for decision in result.decisions:
            assert len(decision.candidates) == 3
            assert decision.candidate_for("P1") is not None
            assert decision.candidate_for("P9") is None

    def test_summary_and_describe(self, paper_schedule):
        result = balance_schedule(paper_schedule)
        assert "total execution time" in result.summary()
        assert "chosen" in result.decisions[0].describe()

    def test_decision_lookup_by_label(self, paper_schedule):
        result = balance_schedule(paper_schedule)
        assert result.decision_for("[a#0]") is not None
        assert result.decision_for("[nope]") is None


class TestOptions:
    def test_memory_only_policy_spreads_memory(self, paper_schedule):
        result = balance_schedule(
            paper_schedule, LoadBalancerOptions(policy=CostPolicy.MEMORY_ONLY)
        )
        assert result.max_memory_after <= result.max_memory_before

    def test_disable_lcm_condition(self, paper_schedule):
        result = balance_schedule(
            paper_schedule,
            LoadBalancerOptions(policy=CostPolicy.LEXICOGRAPHIC, enforce_lcm_condition=False),
        )
        # Without the LCM condition [d#0-e#0] may go to P1 instead of P3, but
        # the steady-state check still keeps the schedule repeatable.
        assert check_schedule(result.balanced_schedule, check_memory=False).is_feasible

    def test_conservative_mode_feasible(self, paper_schedule):
        result = balance_schedule(
            paper_schedule,
            LoadBalancerOptions(protect_unmoved=True, protect_downstream=True),
        )
        assert check_schedule(result.balanced_schedule, check_memory=False).is_feasible

    def test_verify_result_records_warnings(self, paper_schedule):
        result = balance_schedule(paper_schedule, LoadBalancerOptions(verify_result=True))
        assert isinstance(result.warnings, list)

    def test_no_attach_communications(self, paper_schedule):
        result = balance_schedule(
            paper_schedule, LoadBalancerOptions(attach_communications=False)
        )
        assert result.balanced_schedule.communications == ()


class TestOptionValidation:
    """Contradictory flag combinations are rejected at construction time."""

    def test_protect_unmoved_without_steady_state_rejected(self):
        # Original-slot protection is implemented through the steady-state
        # acceptance test; disabling the test would silently disable it.
        with pytest.raises(ConfigurationError, match="protect_unmoved"):
            LoadBalancerOptions(protect_unmoved=True, enforce_steady_state=False)

    def test_retry_without_verification_rejected(self):
        # The retry ladder triggers off the final feasibility check; without
        # verify_result it could never fire.
        with pytest.raises(ConfigurationError, match="retry_until_feasible"):
            LoadBalancerOptions(verify_result=False)

    def test_explicitly_unverified_single_pass_allowed(self):
        options = LoadBalancerOptions(verify_result=False, retry_until_feasible=False)
        assert not options.verify_result

    def test_protect_unmoved_with_steady_state_allowed(self):
        options = LoadBalancerOptions(protect_unmoved=True)
        assert options.enforce_steady_state

    def test_cross_check_stride_validated(self):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            LoadBalancerOptions(cross_check_stride=0)
        with pytest.raises(ConfigurationError, match="requires cross_check"):
            LoadBalancerOptions(cross_check=False, cross_check_stride=7)
        LoadBalancerOptions(cross_check=True, cross_check_stride=7)

    def test_cross_check_matches_default_run(self, paper_schedule):
        plain = balance_schedule(paper_schedule)
        checked = balance_schedule(paper_schedule, LoadBalancerOptions(cross_check=True))
        assert [d.chosen_processor for d in checked.decisions] == [
            d.chosen_processor for d in plain.decisions
        ]
        assert checked.makespan_after == plain.makespan_after


class TestOnGeneratedWorkloads:
    @pytest.mark.parametrize("shape", [GraphShape.PIPELINE, GraphShape.SENSOR_FUSION])
    def test_balancing_preserves_feasibility(self, shape):
        spec = WorkloadSpec(
            task_count=24, processor_count=3, utilization=0.3, shape=shape, seed=11
        )
        _workload, schedule = scheduled_workload(
            spec, SchedulerOptions(policy=PlacementPolicy.LEAST_LOADED)
        )
        assert check_schedule(schedule).is_feasible
        result = balance_schedule(schedule)
        report = check_schedule(result.balanced_schedule, check_memory=False)
        assert report.is_feasible, report.summary()
        assert result.total_gain >= -1e-9

    def test_retry_ladder_reports_safety_level(self):
        spec = WorkloadSpec(
            task_count=30, processor_count=4, utilization=0.3, shape=GraphShape.LAYERED, seed=7
        )
        _workload, schedule = scheduled_workload(spec)
        result = balance_schedule(schedule)
        assert result.safety_level in {"paper", "conservative", "no-op"}
        assert check_schedule(result.balanced_schedule, check_memory=False).is_feasible

    def test_retry_disabled_keeps_paper_behaviour(self):
        spec = WorkloadSpec(
            task_count=30, processor_count=4, utilization=0.3, shape=GraphShape.LAYERED, seed=7
        )
        _workload, schedule = scheduled_workload(spec)
        result = balance_schedule(schedule, LoadBalancerOptions(retry_until_feasible=False))
        assert result.safety_level == "paper"
