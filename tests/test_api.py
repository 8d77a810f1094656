"""Tests of the unified ``repro.api`` surface.

Covers the satellite checklist of the API-redesign PR:

* every registered balancer runs end-to-end on the paper example and on a
  small random workload, returning a uniform :class:`BalanceOutcome`;
* ``PipelineConfig`` dict round trip (property-tested with hypothesis);
* the CLI ``run --config`` golden test — a serialised ``paper_example``
  config reproduces ``repro-lb example`` byte-identically;
* E6 consumers read the verdict straight off the outcome (no re-running of
  ``check_schedule``), and the baselines report infeasibility through the
  same ``feasible``/``violations`` fields the heuristic uses;
* campaign manifests store the ``RunResult`` artifact verbatim.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BalanceOutcome,
    Balancer,
    Pipeline,
    PipelineConfig,
    RunResult,
    available_balancers,
    balance,
    balancer_info,
    get_balancer,
)
from repro.api.config import (
    BalanceStage,
    ReportStage,
    ScheduleStage,
    VerifyStage,
    WorkloadStage,
)
from repro.baselines import lpt_assignment, no_balancing, optimal_memory_assignment
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import run_pipeline_campaign
from repro.metrics.report import ScheduleReport
from repro.scheduling import check_schedule
from repro.scheduling.heuristic import PlacementPolicy
from repro.workloads import GraphShape, WorkloadSpec, scheduled_workload

EXPECTED_BALANCERS = {
    "paper",
    "no_balancing",
    "greedy_load",
    "bin_packing",
    "memory_balancer",
    "genetic",
    "branch_and_bound",
}


@pytest.fixture(scope="module")
def random_schedule():
    """A small synthetic workload with a feasible initial schedule."""
    spec = WorkloadSpec(
        task_count=12,
        processor_count=3,
        utilization=0.3,
        shape=GraphShape.PIPELINE,
        seed=5,
        label="api-random",
    )
    _workload, schedule = scheduled_workload(spec)
    return schedule


class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(available_balancers()) == EXPECTED_BALANCERS

    def test_entries_implement_the_protocol(self):
        for name in available_balancers():
            assert isinstance(get_balancer(name), Balancer)

    def test_unknown_balancer_rejected(self, paper_schedule):
        with pytest.raises(ConfigurationError, match="Unknown balancer"):
            balance(paper_schedule, "simulated_annealing")

    def test_unknown_parameter_rejected(self, paper_schedule):
        for unknown in ({"temperature": 3}, {"engine": "array"}):
            with pytest.raises(ConfigurationError, match="does not accept"):
                balance(paper_schedule, "paper", **unknown)

    def test_unknown_cost_policy_rejected(self, paper_schedule):
        with pytest.raises(ConfigurationError, match="Unknown cost policy"):
            balance(paper_schedule, "paper", policy="median")

    def test_config_mapping_form(self, paper_schedule):
        outcome = balance(
            paper_schedule,
            {"balancer": "paper", "params": {"policy": "lexicographic"}},
        )
        assert outcome.makespan_after == 14.0
        with pytest.raises(ConfigurationError, match="not both"):
            balance(paper_schedule, {"balancer": "paper"}, policy="ratio")

    def test_registry_descriptions_exposed(self):
        spec = balancer_info("paper")
        assert "Algorithm 3.2" in spec.description
        assert "policy" in spec.params


class TestEveryBalancerEndToEnd:
    @pytest.mark.parametrize("name", sorted(EXPECTED_BALANCERS))
    def test_on_paper_example(self, paper_schedule, name):
        outcome = balance(paper_schedule, name)
        self._check_outcome(outcome, paper_schedule, name)

    @pytest.mark.parametrize("name", sorted(EXPECTED_BALANCERS))
    def test_on_random_workload(self, random_schedule, name):
        outcome = balance(random_schedule, name)
        self._check_outcome(outcome, random_schedule, name)

    @staticmethod
    def _check_outcome(outcome: BalanceOutcome, initial, name: str) -> None:
        assert outcome.balancer == name
        assert outcome.initial_schedule is initial
        # Uniform verdict: what the outcome reports must agree with an
        # independent run of the checker.
        assert outcome.feasible == check_schedule(
            outcome.schedule, check_memory=False
        ).is_feasible
        assert outcome.feasible == (not outcome.violations)
        # The schedule keeps every instance and every processor of the input.
        assert len(outcome.schedule) == len(initial)
        processors = set(initial.architecture.processor_names)
        assert set(outcome.memory_by_processor) == processors
        # One trace entry per block, uniform shape.
        assert outcome.trace
        for entry in outcome.trace:
            assert {"block", "from", "to", "moved"} <= set(entry)
            assert entry["to"] in processors
        assert outcome.moves == sum(1 for e in outcome.trace if e["moved"])
        json.dumps(outcome.to_dict())  # must be JSON-serialisable as written

    def test_no_balancing_is_identity(self, paper_schedule):
        outcome = balance(paper_schedule, "no_balancing")
        assert outcome.schedule is paper_schedule
        assert outcome.moves == 0
        assert outcome.feasible

    def test_paper_reaches_every_cost_policy(self, paper_schedule):
        lex = balance(paper_schedule, "paper", policy="lexicographic")
        ratio = balance(paper_schedule, "paper", policy="ratio")
        strict = balance(paper_schedule, "paper", policy="ratio_strict")
        assert lex.makespan_after == 14.0
        assert lex.max_memory == 10.0
        assert ratio.makespan_after == 15.0
        assert strict.feasible in (True, False)


class TestAssignmentVerdicts:
    """Satellite: baselines report infeasibility through the same fields."""

    def test_baselines_carry_the_verdict(self, paper_schedule):
        assert no_balancing(paper_schedule).feasible is True
        lpt = lpt_assignment(paper_schedule)
        assert lpt.feasible == check_schedule(
            lpt.schedule, check_memory=False
        ).is_feasible
        assert lpt.feasible == (not lpt.violations)

    def test_branch_and_bound_assignment(self, paper_schedule):
        result = optimal_memory_assignment(paper_schedule)
        assert result.info["exact"] == 1.0
        # The exact partition reaches the optimal maximum memory: 24 units
        # over 3 processors cannot do better than 8.
        assert result.max_memory == 8.0


# ----------------------------------------------------------------------
# PipelineConfig round trip (property test)
# ----------------------------------------------------------------------
def _spec_strategy() -> st.SearchStrategy[WorkloadSpec]:
    return st.builds(
        WorkloadSpec,
        task_count=st.integers(min_value=1, max_value=500),
        processor_count=st.integers(min_value=1, max_value=16),
        utilization=st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
        base_period=st.sampled_from([10, 20, 40]),
        shape=st.sampled_from(list(GraphShape)),
        memory_range=st.tuples(
            st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
            st.floats(min_value=5.0, max_value=20.0, allow_nan=False),
        ),
        memory_capacity=st.sampled_from([float("inf"), 40.0, 100.0]),
        seed=st.integers(min_value=0, max_value=2**31),
        label=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz-0123456789", max_size=12
        ),
    )


def _config_strategy() -> st.SearchStrategy[PipelineConfig]:
    workload = st.one_of(
        st.builds(WorkloadStage, kind=st.just("spec"), spec=_spec_strategy()),
        st.just(WorkloadStage(kind="paper_example")),
        st.just(WorkloadStage(kind="provided")),
    )
    params = st.one_of(
        st.just({}),
        st.just({"policy": "lexicographic"}),
        st.just({"policy": "ratio", "protect_unmoved": True}),
        st.just({"population_size": 10, "generations": 5}),
        st.just({"node_limit": 1000}),
    )
    return st.builds(
        PipelineConfig,
        workload=workload,
        schedule=st.builds(
            ScheduleStage, policy=st.sampled_from([p.value for p in PlacementPolicy])
        ),
        balance=st.builds(
            BalanceStage,
            balancer=st.sampled_from(sorted(EXPECTED_BALANCERS)),
            params=params,
        ),
        verify=st.builds(
            VerifyStage, enabled=st.booleans(), check_memory=st.booleans()
        ),
        report=st.builds(
            ReportStage,
            enabled=st.booleans(),
            describe_workload=st.booleans(),
            show_schedules=st.booleans(),
            steps=st.booleans(),
            compare=st.booleans(),
            simulate=st.booleans(),
            simulate_hyper_periods=st.integers(min_value=1, max_value=4),
        ),
        label=st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", max_size=10),
    )


class TestPipelineConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config=_config_strategy())
    def test_dict_round_trip(self, config):
        assert PipelineConfig.from_dict(config.to_dict()) == config

    @settings(max_examples=30, deadline=None)
    @given(config=_config_strategy())
    def test_json_round_trip(self, config):
        # Through an actual JSON string, as `repro-lb run --config` reads it.
        text = json.dumps(config.to_dict())
        assert PipelineConfig.from_dict(json.loads(text)) == config

    def test_schema_mismatch_rejected(self):
        data = PipelineConfig.paper_example().to_dict()
        data["schema"] = "repro-pipeline/99"
        with pytest.raises(ConfigurationError, match="schema"):
            PipelineConfig.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = PipelineConfig.paper_example().to_dict()
        data["extra"] = 1
        with pytest.raises(ConfigurationError, match="Unknown"):
            PipelineConfig.from_dict(data)
        with pytest.raises(ConfigurationError, match="workload"):
            PipelineConfig.from_dict({"schema": "repro-pipeline/1"})

    def test_spec_required_for_spec_kind(self):
        with pytest.raises(ConfigurationError, match="requires a workload spec"):
            WorkloadStage(kind="spec")
        with pytest.raises(ConfigurationError, match="Unknown workload kind"):
            WorkloadStage(kind="mystery")


# ----------------------------------------------------------------------
# Pipeline + RunResult
# ----------------------------------------------------------------------
class TestPipeline:
    def test_paper_example_run(self):
        result = Pipeline(PipelineConfig.paper_example()).run()
        assert result.feasible is True
        assert result.balancer == "paper"
        assert result.metrics["makespan_after"] == 14.0
        assert result.metrics["memory_after"] == {"P1": 10.0, "P2": 6.0, "P3": 8.0}
        assert result.workload_description == ""
        assert "Balanced schedule (Figure 4):" in result.report
        assert {"workload", "schedule", "balance", "verify", "report"} <= set(
            result.timings
        )
        # The trace records the paper's three cross-processor moves.
        assert sum(1 for e in result.trace if e["moved"]) == 3

    def test_synthetic_run_any_balancer(self):
        spec = WorkloadSpec(
            task_count=10, processor_count=2, utilization=0.3,
            shape=GraphShape.PIPELINE, seed=2, label="api-pipe",
        )
        config = PipelineConfig.synthetic(spec, balancer="bin_packing")
        result = Pipeline(config).run()
        assert result.balancer == "bin_packing"
        assert result.workload_description.startswith("api-pipe:")
        assert result.config == config.to_dict()

    def test_provided_workload_requires_objects(self, small_graph, small_arch):
        config = PipelineConfig(workload=WorkloadStage(kind="provided"))
        with pytest.raises(ConfigurationError, match="provided"):
            Pipeline(config)
        result = Pipeline(config, graph=small_graph, architecture=small_arch).run()
        assert result.feasible is True

    def test_declarative_kinds_reject_objects(self, small_graph, small_arch):
        with pytest.raises(ConfigurationError, match="declarative"):
            Pipeline(
                PipelineConfig.paper_example(),
                graph=small_graph,
                architecture=small_arch,
            )

    def test_verify_disabled_reports_none(self):
        config = PipelineConfig(
            workload=WorkloadStage(kind="paper_example"),
            verify=VerifyStage(enabled=False),
        )
        result = Pipeline(config).run()
        assert result.feasible is None
        assert result.metrics["balancer_feasible"] is True

    def test_run_result_round_trip(self):
        result = Pipeline(PipelineConfig.paper_example(steps=True)).run()
        data = result.to_dict()
        json.dumps(data)
        again = RunResult.from_dict(data)
        assert again.to_dict() == data
        with pytest.raises(ConfigurationError, match="schema"):
            RunResult.from_dict({**data, "schema": "repro-run/99"})


# ----------------------------------------------------------------------
# CLI golden tests
# ----------------------------------------------------------------------
class TestCliRunConfig:
    def test_run_config_reproduces_example_byte_identically(self, tmp_path, capsys):
        """Acceptance criterion: `run --config` == `example` byte for byte."""
        config_path = tmp_path / "example.json"
        config_path.write_text(
            json.dumps(PipelineConfig.paper_example(steps=True).to_dict())
        )
        assert main(["run", "--config", str(config_path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["example", "--steps"]) == 0
        from_example = capsys.readouterr().out
        assert from_config == from_example
        assert "step 7" in from_config

    def test_run_config_json_flag(self, tmp_path, capsys):
        config_path = tmp_path / "example.json"
        config_path.write_text(json.dumps(PipelineConfig.paper_example().to_dict()))
        assert main(["run", "--config", str(config_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-run/1"
        assert payload["feasible"] is True
        assert payload["metrics"]["makespan_after"] == 14.0

    def test_run_config_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "Cannot read pipeline config" in err
        assert str(missing) in err

    def test_run_config_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_config_bad_schema_is_reported(self, tmp_path, capsys):
        path = tmp_path / "stale.json"
        data = PipelineConfig.paper_example().to_dict()
        data["schema"] = "repro-pipeline/0"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 2
        assert "schema" in capsys.readouterr().err


class TestCliJsonFlags:
    def test_example_json(self, capsys):
        assert main(["example", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["balancer"] == "paper"
        assert payload["metrics"]["memory_after"] == {
            "P1": 10.0, "P2": 6.0, "P3": 8.0,
        }

    def test_random_json(self, capsys):
        code = main([
            "random", "--tasks", "10", "--processors", "2",
            "--shape", "pipeline", "--seed", "3", "--json",
        ])
        assert code in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-run/1"
        assert payload["workload_description"].startswith("cli-pipeline-3")

    def test_random_other_balancer(self, capsys):
        code = main([
            "random", "--tasks", "10", "--processors", "2",
            "--shape", "pipeline", "--seed", "3", "--balancer", "greedy_load",
            "--json",
        ])
        assert code in (0, 1)
        payload = json.loads(capsys.readouterr().out)
        assert payload["balancer"] == "greedy_load"

    def test_experiment_json(self, capsys):
        assert main(["experiment", "E1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment"] == "E1"
        assert payload[0]["passed"] is True

    def test_exit_code_reflects_feasibility_in_both_modes(self, tmp_path, capsys):
        """`example`, `random` and `run` share one exit-code rule: 1 when the
        verified schedule is infeasible, regardless of output format."""
        config = PipelineConfig(
            workload=WorkloadStage(kind="paper_example"),
            balance=BalanceStage(balancer="bin_packing"),
        )
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(config.to_dict()))
        assert main(["run", "--config", str(path)]) == 1
        capsys.readouterr()
        assert main(["run", "--config", str(path), "--json"]) == 1

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPECTED_BALANCERS:
            assert name in output
        assert "E1" in output and "E8" in output
        for preset in ("tiny", "quick", "full"):
            assert preset in output
        assert "lexicographic" in output
        assert "churn scenarios" in output

    def test_list_command_json_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert "balancers" in catalog
        assert {"paper"} <= {entry["name"] for entry in catalog["balancers"]}
        # Every section is the same shape: a list of {name, summary} rows.
        for section, entries in catalog.items():
            assert isinstance(section, str) and entries
            for entry in entries:
                assert set(entry) == {"name", "summary"}


# ----------------------------------------------------------------------
# Rewired consumers stay golden
# ----------------------------------------------------------------------
class TestRewiredConsumers:
    def test_e6_verdicts_match_independent_checks(self):
        """E6 reads outcome.feasible; it must equal a from-scratch check."""
        from repro.experiments.runner import _strategy_outcomes

        spec = WorkloadSpec(
            task_count=12, processor_count=3, utilization=0.3,
            shape=GraphShape.PIPELINE, seed=1, label="e6-verdict",
        )
        _workload, schedule = scheduled_workload(spec)
        outcomes = _strategy_outcomes(schedule)
        assert set(outcomes) == {
            "initial (no balancing)",
            "proposed (ratio)",
            "proposed (lexicographic)",
            "load-only (memory-blind)",
            "memory-only (Theorem 2)",
            "proposed (conservative)",
            "LPT assignment",
            "FFD memory packing",
            "genetic assignment",
        }
        for outcome in outcomes.values():
            assert outcome.feasible == check_schedule(
                outcome.schedule, check_memory=False
            ).is_feasible

    def test_campaign_run_ids_are_filesystem_safe(self, tmp_path):
        from repro.experiments import plan_pipeline_campaign

        config = PipelineConfig(
            workload=WorkloadStage(kind="paper_example"), label="sweep/run 1"
        )
        (run,) = plan_pipeline_campaign([config])
        assert "/" not in run.run_id and " " not in run.run_id
        summary = run_pipeline_campaign([config], output_dir=tmp_path, jobs=1)
        assert summary.ok

    def test_pipeline_campaign_stores_run_result_verbatim(self, tmp_path):
        configs = [
            PipelineConfig.paper_example(),
            PipelineConfig.paper_example(policy="ratio"),
        ]
        summary = run_pipeline_campaign(configs, output_dir=tmp_path, jobs=1)
        assert summary.ok
        assert len(summary.records) == 2
        manifest = json.loads(
            (tmp_path / "runs" / f"{summary.records[0]['run_id']}.json").read_text()
        )
        stored = RunResult.from_dict(manifest["run_result"])
        assert stored.to_dict() == manifest["run_result"]  # verbatim
        assert stored.metrics["makespan_after"] == 14.0
        # Re-running resumes from the cached manifests.
        resumed = run_pipeline_campaign(
            configs, output_dir=tmp_path, jobs=1, resume=True
        )
        assert [record["status"] for record in resumed.records] == ["cached", "cached"]


class TestScheduleReportToDict:
    def test_machine_readable_report(self, paper_schedule):
        data = ScheduleReport.of("initial", paper_schedule).to_dict()
        json.dumps(data)
        assert data["label"] == "initial"
        assert data["makespan"]["makespan"] == 15.0
        assert data["memory"]["by_processor"] == {"P1": 16.0, "P2": 4.0, "P3": 4.0}
        assert 0.0 <= data["load"]["idle_fraction"] <= 1.0
