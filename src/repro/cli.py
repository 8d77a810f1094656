"""Command-line interface (installed as ``repro-lb``).

Every workflow is a thin front-end over the unified :mod:`repro.api`
pipeline — the CLI builds a :class:`~repro.api.PipelineConfig`, runs it and
prints the :class:`~repro.api.RunResult` report (or its JSON form):

``repro-lb example``
    Reproduce the paper's worked example (Figures 2–4) and print the
    before/after schedules and the step-by-step decisions.

``repro-lb run --config file.json``
    Execute any serialised pipeline config (schema ``repro-pipeline/1``).

``repro-lb random --tasks N --processors M [--balancer NAME] [...]``
    Generate a synthetic workload and run any registered balancer on it.

``repro-lb experiment E1 [E2 ...]``
    Run one or more of the experiments E1–E8 and print their tables (the same
    code the benchmarks call).

``repro-lb campaign E3 E6 [--preset ...] [--jobs N] [--output DIR] [--resume]``
    Fan one or more experiment sweeps out over a process pool, writing
    per-run JSON manifests and a campaign summary artifact (resumable).

``repro-lb bench list | run | compare | service | rebalance``
    The unified benchmark harness: list the registered benchmarks, run them
    under a bench preset (``tiny``/``paper``/``stress``) emitting a
    ``repro-bench/1`` artifact, compare two artifacts against a slowdown
    tolerance (non-zero exit on regression — the CI perf gate), load-test
    the service, or pin the incremental-rebalance speedup.

``repro-lb rebalance --config file.json --delta delta.json | --grid``
    Incremental rebalancing under churn: repair a prior run against a
    ``repro-delta/1`` delta (emitting a ``repro-run/2`` result), or replay
    the churn scenario grid under the differential and conformance oracles
    (``repro-churn/1`` artifact, non-zero exit on any finding — the CI
    churn gate).

``repro-lb sweep [--preset ...] [--scenarios ...] [--balancers ...]``
    The differential sweep: run every registered balancer over the scenario
    x seed grid, cross-check invariants on every run, and emit a
    ``repro-sweep/1`` artifact (non-zero exit on any finding — the CI
    scenario gate).

``repro-lb conform [--paper | --config file.json | grid flags]``
    The simulation-conformance oracle: replay schedules in the
    discrete-event simulator and structurally diff the traces against the
    analytical model (``repro-conformance/1`` reports).  Single-run mode
    (``--paper``/``--config``) exits non-zero when the replay diverges from
    the schedule; grid mode replays every cell of the scenario grid and
    exits non-zero on any simulator/model contradiction (the CI
    conformance gate).

``repro-lb hunt --objective NAME [--budget tiny|quick|full] [--seed N]``
    Adversarial scenario search: mutate workload-spec parameters (simulated
    annealing + a genetic refinement loop) to maximise a registered badness
    objective, shrink every find with the delta-debugging minimiser, and
    emit a ``repro-search/1`` artifact; ``--freeze`` merges the survivors
    into the frozen ``regression/*`` scenario registry the sweep and
    conformance gates replay.

``repro-lb lint PATH [PATH ...] [--rules a,b] [--output DIR] [--json]``
    The invariant linter: run the registered AST rules (strict JSON via
    jsonio, atomic writes, canonical EPSILON, seeded randomness, central
    schema table, never-raises manifest shells, no wall-clock timing,
    registry completeness) over Python sources and emit a ``repro-lint/1``
    findings artifact (non-zero exit on any finding — the CI invariant
    gate; the repo itself must stay clean).

``repro-lb list [--json]``
    Print every user-facing registry — balancers, cost/placement policies,
    scenario and churn families, hunt objectives, experiments, campaign and
    bench presets, benchmarks, lint rules, artifact schemas — through one
    uniform catalog (``--json`` emits it machine-readable).

``example``, ``random``, ``run`` and ``experiment`` accept ``--json`` to emit
machine-readable output instead of the ASCII report.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro import jsonio
from repro._version import __version__
from repro.api import (
    CostPolicy,
    Pipeline,
    PipelineConfig,
    PlacementPolicy,
    available_balancers,
    balancer_info,
)
from repro.bench import (
    BENCH_PRESETS,
    BenchArtifact,
    available_benchmarks,
    benchmark_info,
    compare as compare_artifacts,
    run_benchmarks,
)
from repro.errors import ConfigurationError, ReproError
from repro.experiments import ALL_EXPERIMENTS, PRESET_NAMES, run_campaign
from repro.experiments.campaign import experiment_result_dict
from repro.lint import available_rules as available_lint_rules
from repro.lint import lint_paths
from repro.lint import rule_info as lint_rule_info
from repro.scenarios import (
    SCENARIO_PRESETS,
    available_churn_scenarios,
    available_scenarios,
    churn_scenario_info,
    run_churn_grid,
    run_sweep,
    scenario_info,
)
from repro.schemas import SCHEMA_TABLE
from repro.search import (
    BUDGETS,
    SearchOptions,
    available_objectives,
    freeze_counterexamples,
    objective_info,
    run_hunt,
)
from repro.workloads.spec import GraphShape, WorkloadSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-lb`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description="Load balancing and efficient memory usage for homogeneous distributed "
        "real-time embedded systems (Kermia & Sorel, 2008) — reproduction toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    example = subparsers.add_parser("example", help="reproduce the paper's worked example")
    example.add_argument(
        "--policy",
        choices=[policy.value for policy in CostPolicy],
        default=CostPolicy.LEXICOGRAPHIC.value,
        help="cost-function policy (default: lexicographic, which matches the paper's trace)",
    )
    example.add_argument(
        "--steps", action="store_true", help="print the per-block decision trace"
    )
    example.add_argument(
        "--json", action="store_true", help="emit the structured RunResult as JSON"
    )

    run_cmd = subparsers.add_parser(
        "run", help="execute a serialised pipeline config (repro-pipeline/1)"
    )
    run_cmd.add_argument(
        "--config", required=True, help="path of the pipeline-config JSON file"
    )
    run_cmd.add_argument(
        "--json", action="store_true", help="emit the structured RunResult as JSON"
    )

    experiment = subparsers.add_parser("experiment", help="run experiments E1..E8")
    experiment.add_argument(
        "names",
        nargs="+",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="experiment identifiers (or 'all')",
    )
    experiment.add_argument(
        "--json", action="store_true", help="emit the experiment results as JSON"
    )

    campaign = subparsers.add_parser(
        "campaign", help="run a parallel, resumable experiment campaign"
    )
    campaign.add_argument(
        "names",
        nargs="+",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="experiment identifiers (or 'all')",
    )
    campaign.add_argument(
        "--preset",
        choices=PRESET_NAMES,
        default="quick",
        help="config preset of every run (default: quick)",
    )
    campaign.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width (default: one worker per CPU; 1 runs inline)",
    )
    campaign.add_argument(
        "--output",
        default="campaign-results",
        help="directory receiving run manifests and campaign.json",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="skip runs whose manifest already records a successful outcome",
    )
    campaign.add_argument(
        "--no-split-seeds",
        action="store_true",
        help="keep each experiment's seed sweep in a single run",
    )

    random_cmd = subparsers.add_parser("random", help="balance a synthetic workload")
    random_cmd.add_argument("--tasks", type=int, default=40)
    random_cmd.add_argument("--processors", type=int, default=4)
    random_cmd.add_argument("--utilization", type=float, default=0.3)
    random_cmd.add_argument(
        "--shape", choices=[shape.value for shape in GraphShape], default=GraphShape.PIPELINE.value
    )
    random_cmd.add_argument("--seed", type=int, default=2008)
    random_cmd.add_argument(
        "--initial-policy",
        choices=[policy.value for policy in PlacementPolicy],
        default=PlacementPolicy.LEAST_LOADED.value,
    )
    random_cmd.add_argument(
        "--balancer",
        choices=list(available_balancers()),
        default="paper",
        help="registered balancing strategy (default: the paper heuristic)",
    )
    random_cmd.add_argument(
        "--policy",
        choices=[policy.value for policy in CostPolicy],
        default=CostPolicy.RATIO.value,
        help="cost policy of the paper heuristic (ignored by the other balancers)",
    )
    random_cmd.add_argument(
        "--simulate", action="store_true", help="replay both schedules in the simulator"
    )
    random_cmd.add_argument(
        "--json", action="store_true", help="emit the structured RunResult as JSON"
    )

    bench = subparsers.add_parser(
        "bench", help="unified benchmark harness (repro-bench/1 artifacts)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_sub.add_parser("list", help="list the registered benchmarks")

    bench_run = bench_sub.add_parser(
        "run", help="run benchmarks and emit a BENCH_*.json artifact"
    )
    bench_run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="benchmark names (default: all registered benchmarks)",
    )
    bench_run.add_argument(
        "--preset",
        choices=sorted(BENCH_PRESETS),
        default="tiny",
        help="bench preset (default: tiny; paper ~ EXPERIMENTS.md scale, stress ~ full)",
    )
    bench_run.add_argument(
        "--warmup", type=int, default=1, help="unmeasured calls per benchmark (default: 1)"
    )
    bench_run.add_argument(
        "--repeats", type=int, default=3, help="measured calls per benchmark (default: 3)"
    )
    bench_run.add_argument(
        "--output",
        metavar="PATH",
        help="write the artifact here (a directory gets BENCH_<timestamp>.json)",
    )
    bench_run.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    bench_compare = bench_sub.add_parser(
        "compare", help="compare a current artifact against a baseline"
    )
    bench_compare.add_argument("baseline", help="path of the baseline BENCH_*.json")
    bench_compare.add_argument("current", help="path of the current BENCH_*.json")
    bench_compare.add_argument(
        "--tolerance",
        type=float,
        default=2.5,
        help="slowdown ratio above which a benchmark fails (default: 2.5)",
    )
    bench_compare.add_argument(
        "--min-delta",
        type=float,
        default=0.05,
        help="absolute noise floor in seconds (default: 0.05; 0 disables it)",
    )
    bench_compare.add_argument(
        "--exponent-margin",
        type=float,
        default=0.25,
        help="allowed fit_exponent growth over the baseline for scaling-curve "
        "records (default: 0.25)",
    )
    bench_compare.add_argument(
        "--json", action="store_true", help="print the comparison report as JSON"
    )

    bench_service = bench_sub.add_parser(
        "service",
        help="load-test the balancing service (concurrent clients over sockets)",
    )
    bench_service.add_argument(
        "--clients", type=int, default=8, help="concurrent client threads (default: 8)"
    )
    bench_service.add_argument(
        "--requests",
        type=int,
        default=10,
        help="requests per client (default: 10)",
    )
    bench_service.add_argument(
        "--unique",
        type=int,
        default=4,
        help="unique configs in the workload mix (default: 4)",
    )
    bench_service.add_argument(
        "--workload-preset",
        default="tiny",
        help="scenario-sweep preset the mix draws from (default: tiny)",
    )
    bench_service.add_argument(
        "--jobs", type=int, default=None, help="worker-pool width (default: auto)"
    )
    bench_service.add_argument(
        "--pool",
        choices=("process", "thread"),
        default="process",
        help="worker-pool kind (default: process)",
    )
    bench_service.add_argument(
        "--max-batch", type=int, default=16, help="micro-batch size limit (default: 16)"
    )
    bench_service.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        help="micro-batch collection window in ms (default: 5)",
    )
    bench_service.add_argument(
        "--output",
        metavar="PATH",
        help="write the artifact here (a directory gets BENCH_<timestamp>.json)",
    )
    bench_service.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    bench_rebalance = bench_sub.add_parser(
        "rebalance",
        help="pin the incremental-rebalance-vs-from-scratch speedup",
    )
    bench_rebalance.add_argument(
        "--tasks", type=int, default=400, help="prior workload size (default: 400)"
    )
    bench_rebalance.add_argument(
        "--processors", type=int, default=8, help="processor count (default: 8)"
    )
    bench_rebalance.add_argument(
        "--deltas",
        type=int,
        default=8,
        help="independent single-task arrivals timed per repeat (default: 8)",
    )
    bench_rebalance.add_argument(
        "--repeats", type=int, default=2, help="measured repeats (default: 2)"
    )
    bench_rebalance.add_argument(
        "--seed", type=int, default=2008, help="workload seed (default: 2008)"
    )
    bench_rebalance.add_argument(
        "--output",
        metavar="PATH",
        help="write the artifact here (a directory gets BENCH_<timestamp>.json)",
    )
    bench_rebalance.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    bench_xl = bench_sub.add_parser(
        "stress-xl",
        help="time-vs-N scaling curve of the balancer",
    )
    bench_xl.add_argument(
        "--preset",
        choices=("smoke", "xl"),
        default="smoke",
        help="tier sizes: smoke = N in (200, 400, 800) (CI-sized), "
        "xl = N in (1000, 5000, 20000) (default: smoke)",
    )
    bench_xl.add_argument(
        "--repeats", type=int, default=2, help="balance repeats per N (default: 2)"
    )
    bench_xl.add_argument(
        "--seed", type=int, default=2008, help="workload seed (default: 2008)"
    )
    bench_xl.add_argument(
        "--output",
        metavar="PATH",
        help="write the artifact here (a directory gets BENCH_<timestamp>.json)",
    )
    bench_xl.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    rebalance = subparsers.add_parser(
        "rebalance",
        help="incremental rebalance under churn (repro-run/2 / repro-churn/1)",
        description="Repair a balanced schedule against a workload delta "
        "instead of recomputing it.  With --config and --delta, runs the "
        "prior pipeline, applies the delta incrementally and prints the "
        "repro-run/2 result.  With --grid, replays the whole churn scenario "
        "grid under the differential (rebalance vs from-scratch) and "
        "conformance oracles, exiting non-zero on any finding (the CI "
        "churn gate).",
    )
    rebalance.add_argument(
        "--config",
        metavar="PATH",
        help="prior pipeline config (repro-pipeline/1) the delta applies to",
    )
    rebalance.add_argument(
        "--delta",
        metavar="PATH",
        help="repro-delta/1 file: one delta (a dict with a 'kind') or a timeline",
    )
    rebalance.add_argument(
        "--grid",
        action="store_true",
        help="replay the churn scenario grid instead of a single config+delta",
    )
    rebalance.add_argument(
        "--preset",
        choices=sorted(SCENARIO_PRESETS),
        default="tiny",
        help="churn grid scale (default: tiny)",
    )
    rebalance.add_argument(
        "--scenarios",
        nargs="+",
        metavar="NAME",
        choices=list(available_churn_scenarios()),
        help="churn families to replay (default: every registered family)",
    )
    rebalance.add_argument(
        "--balancer",
        choices=list(available_balancers()),
        default="paper",
        help="balancer of the prior pipeline (default: paper)",
    )
    rebalance.add_argument(
        "--hyper-periods",
        type=int,
        default=2,
        help="hyper-periods each conformance replay covers (default: 2)",
    )
    rebalance.add_argument(
        "--output",
        metavar="PATH",
        help="grid mode: write the artifact here "
        "(a directory gets CHURN_<timestamp>.json)",
    )
    rebalance.add_argument(
        "--json", action="store_true", help="emit machine-readable output"
    )

    sweep = subparsers.add_parser(
        "sweep", help="differential scenario sweep (repro-sweep/1 artifacts)"
    )
    sweep.add_argument(
        "--preset",
        choices=sorted(SCENARIO_PRESETS),
        default="tiny",
        help="scenario grid scale (default: tiny)",
    )
    sweep.add_argument(
        "--scenarios",
        nargs="+",
        metavar="NAME",
        choices=list(available_scenarios()),
        help="scenario families to sweep (default: every registered family)",
    )
    sweep.add_argument(
        "--balancers",
        nargs="+",
        metavar="NAME",
        choices=list(available_balancers()),
        help="balancers to run (default: every registered balancer)",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width (default: one worker per CPU; 1 runs inline)",
    )
    sweep.add_argument(
        "--oracle-stride",
        type=int,
        default=3,
        help="run every Nth paper cell in conflict-engine oracle mode "
        "(default: 3; 0 disables)",
    )
    sweep.add_argument(
        "--conformance-stride",
        type=int,
        default=0,
        help="replay every Nth cell in the simulation-conformance oracle "
        "(default: 0 = off; see 'repro-lb conform' for the full-grid gate)",
    )
    sweep.add_argument(
        "--output",
        metavar="PATH",
        help="write the artifact here (a directory gets SWEEP_<timestamp>.json)",
    )
    sweep.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    conform = subparsers.add_parser(
        "conform",
        help="simulation-conformance oracle (repro-conformance/1 reports)",
        description="Replay schedules in the discrete-event simulator and "
        "cross-check the traces against the analytical model.  With --config "
        "or --paper, one pipeline run is conformance-checked and the exit "
        "code reflects its 'conforms' verdict; otherwise the whole scenario "
        "grid is swept with the deep tier on every cell and any "
        "simulator/model contradiction exits non-zero.",
    )
    conform.add_argument(
        "--config",
        metavar="PATH",
        help="conformance-check one serialised pipeline config (repro-pipeline/1)",
    )
    conform.add_argument(
        "--paper",
        action="store_true",
        help="conformance-check the paper's worked example",
    )
    conform.add_argument(
        "--preset",
        choices=sorted(SCENARIO_PRESETS),
        default="tiny",
        help="scenario grid scale for grid mode (default: tiny)",
    )
    conform.add_argument(
        "--scenarios",
        nargs="+",
        metavar="NAME",
        choices=list(available_scenarios()),
        help="scenario families to check (default: every registered family)",
    )
    conform.add_argument(
        "--balancers",
        nargs="+",
        metavar="NAME",
        choices=list(available_balancers()),
        help="balancers to run (default: every registered balancer)",
    )
    conform.add_argument(
        "--hyper-periods",
        type=int,
        default=2,
        help="hyper-periods each conformance replay covers (default: 2)",
    )
    conform.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="process-pool width for grid mode (default: one worker per CPU; "
        "1 runs inline)",
    )
    conform.add_argument(
        "--output",
        metavar="PATH",
        help="write the grid-mode sweep artifact here "
        "(a directory gets SWEEP_<timestamp>.json)",
    )
    conform.add_argument(
        "--json", action="store_true", help="emit machine-readable output"
    )

    hunt = subparsers.add_parser(
        "hunt",
        help="adversarial scenario search (repro-search/1 artifacts)",
        description="Mutate workload-spec parameters to maximise a badness "
        "objective, minimise every counterexample found, and optionally "
        "freeze the survivors as permanent regression/* scenarios.",
    )
    hunt.add_argument(
        "--objective",
        required=True,
        choices=list(available_objectives()),
        help="registered badness objective to maximise",
    )
    hunt.add_argument(
        "--budget",
        choices=sorted(BUDGETS),
        default="tiny",
        help="named evaluation budget (default: tiny)",
    )
    hunt.add_argument(
        "--evaluations",
        type=int,
        default=None,
        metavar="N",
        help="explicit evaluation budget (overrides --budget)",
    )
    hunt.add_argument(
        "--seed", type=int, default=0, help="root seed of the hunt (default: 0)"
    )
    hunt.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="firing threshold (default: the objective's registered default)",
    )
    hunt.add_argument(
        "--max-survivors",
        type=int,
        default=5,
        help="counterexamples kept after minimisation and dedup (default: 5)",
    )
    hunt.add_argument(
        "--no-minimize",
        action="store_true",
        help="freeze survivors as found, skipping the delta-debugging minimiser",
    )
    hunt.add_argument(
        "--freeze",
        action="store_true",
        help="merge the survivors into the frozen regression-scenario registry",
    )
    hunt.add_argument(
        "--registry",
        metavar="PATH",
        help="regression registry file --freeze writes "
        "(default: the packaged regression.json)",
    )
    hunt.add_argument(
        "--output",
        metavar="PATH",
        help="write the artifact here (a directory gets HUNT_<timestamp>.json)",
    )
    hunt.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    serve = subparsers.add_parser(
        "serve", help="run the balancing service (HTTP, see DESIGN.md §11)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="listen address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8420, help="listen port, 0 picks one (default: 8420)"
    )
    serve.add_argument(
        "--jobs", type=int, default=None, help="worker-pool width (default: auto)"
    )
    serve.add_argument(
        "--pool",
        choices=("process", "thread"),
        default="process",
        help="worker-pool kind (default: process)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=16, help="micro-batch size limit (default: 16)"
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        help="micro-batch collection window in ms (default: 5)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="result-cache capacity in entries (default: 256)",
    )

    lint = subparsers.add_parser(
        "lint", help="check project invariants with the registered AST rules"
    )
    lint.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="Python files or directories to lint (e.g. src)",
    )
    lint.add_argument(
        "--rules",
        metavar="RULE[,RULE...]",
        help="comma-separated subset of rules to run (default: all registered; "
        "see 'repro-lb list')",
    )
    lint.add_argument(
        "--output",
        metavar="PATH",
        help="write the repro-lint/1 artifact here (a directory gets "
        "LINT_<timestamp>.json)",
    )
    lint.add_argument(
        "--json", action="store_true", help="print the artifact JSON to stdout"
    )

    list_cmd = subparsers.add_parser(
        "list",
        help="list registered balancers, policies, scenarios, churn families, "
        "objectives, experiments, benchmarks and presets",
    )
    list_cmd.add_argument(
        "--json", action="store_true", help="emit the registry catalog as JSON"
    )
    return parser


def _load_pipeline_config(path: Path, verb: str) -> PipelineConfig | int:
    """Load a serialised pipeline config, or return the error exit code.

    Every failure mode — unreadable file, malformed JSON, a payload that is
    not an object, schema/validation rejection — exits cleanly (code 2) with
    the offending path named, instead of surfacing a traceback.  The read and
    object checks live in :func:`repro.jsonio.load_json_path`, shared with
    every artifact loader.
    """
    try:
        data = jsonio.load_json_path(path, kind="pipeline config")
    except ConfigurationError as error:
        print(f"repro-lb {verb}: error: {error}", file=sys.stderr)
        return 2
    try:
        return PipelineConfig.from_dict(data)
    except ReproError as error:
        print(
            f"repro-lb {verb}: error: invalid pipeline config {path}: {error}",
            file=sys.stderr,
        )
        return 2


def _emit(result, as_json: bool) -> int:
    """Print a pipeline run (report or JSON); exit code reflects feasibility."""
    if as_json:
        print(jsonio.dumps(result.to_dict()))
    else:
        print(result.report)
    return 0 if result.feasible is not False else 1


def _run_example(args: argparse.Namespace) -> int:
    config = PipelineConfig.paper_example(policy=args.policy, steps=args.steps)
    return _emit(Pipeline(config).run(), args.json)


def _run_config(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(Path(args.config), "run")
    if isinstance(config, int):
        return config
    result = Pipeline(config).run()
    return _emit(result, args.json)


def _run_experiments(args: argparse.Namespace) -> int:
    names = sorted(ALL_EXPERIMENTS) if "all" in args.names else args.names
    failures = 0
    payloads = []
    for name in names:
        result = ALL_EXPERIMENTS[name]()
        if args.json:
            payloads.append(experiment_result_dict(result))
        else:
            print(result.render())
            print()
        if result.passed is False:
            failures += 1
    if args.json:
        print(jsonio.dumps(payloads))
    return 1 if failures else 0


def _run_campaign(args: argparse.Namespace) -> int:
    names = sorted(ALL_EXPERIMENTS) if "all" in args.names else args.names
    try:
        summary = run_campaign(
            names,
            args.preset,
            output_dir=args.output,
            jobs=args.jobs,
            resume=args.resume,
            split_seeds=not args.no_split_seeds,
        )
    except ConfigurationError as error:
        print(f"repro-lb campaign: error: {error}", file=sys.stderr)
        return 2
    print(summary.render())
    print()
    print(
        f"campaign: {len(summary.records)} runs in {summary.seconds:.1f}s, "
        f"{len(summary.failures)} failure(s); summary written to {summary.summary_path}"
    )
    return 0 if summary.ok else 1


def _run_random(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        task_count=args.tasks,
        processor_count=args.processors,
        utilization=args.utilization,
        shape=GraphShape(args.shape),
        seed=args.seed,
        label=f"cli-{args.shape}-{args.seed}",
    )
    params = {"policy": args.policy} if args.balancer == "paper" else {}
    config = PipelineConfig.synthetic(
        spec,
        initial_policy=args.initial_policy,
        balancer=args.balancer,
        params=params,
        simulate=args.simulate,
    )
    return _emit(Pipeline(config).run(), args.json)


def _run_bench(args: argparse.Namespace) -> int:
    if args.bench_command == "list":
        print("benchmarks:")
        for name in available_benchmarks():
            spec = benchmark_info(name)
            print(f"  {name:<4} {spec.title}")
        print()
        print("bench presets (bench -> experiment preset):")
        for bench_preset, experiment_preset in BENCH_PRESETS.items():
            print(f"  {bench_preset:<8} {experiment_preset}")
        return 0

    if args.bench_command == "run":
        artifact = run_benchmarks(
            args.names or None,
            preset=args.preset,
            warmup=args.warmup,
            repeats=args.repeats,
        )
        written = None
        if args.output:
            written = artifact.save(args.output)
        if args.json:
            print(jsonio.dumps(artifact.to_dict()))
        else:
            rows = []
            for record in artifact.records:
                verdict = "-" if record.passed is None else ("PASS" if record.passed else "FAIL")
                rows.append(
                    f"  {record.name:<4} best {record.best:8.4f}s  "
                    f"mean {record.mean:8.4f}s  ({len(record.wall_times)} repeat(s))  {verdict}"
                )
            print(f"bench run: preset {artifact.preset} ({artifact.created})")
            print("\n".join(rows))
            if written is not None:
                print(f"artifact written to {written}")
        failed = [record.name for record in artifact.records if record.passed is False]
        if failed:
            print(f"repro-lb bench: FAIL verdict in {failed}", file=sys.stderr)
            return 1
        return 0

    if args.bench_command == "service":
        from repro.bench.service import run_service_bench

        artifact = run_service_bench(
            clients=args.clients,
            requests_per_client=args.requests,
            unique=args.unique,
            preset=args.workload_preset,
            jobs=args.jobs,
            pool=args.pool,
            max_batch=args.max_batch,
            batch_window_ms=args.batch_window_ms,
        )
        written = artifact.save(args.output) if args.output else None
        if args.json:
            print(jsonio.dumps(artifact.to_dict()))
        else:
            record = artifact.records[0]
            metrics = record.metrics
            print(f"bench service: preset {artifact.preset} ({artifact.created})")
            print(f"  {record.title}")
            print(
                f"  {metrics['requests']:.0f} requests in {record.best:.3f}s "
                f"({metrics['requests_per_sec']:.1f} req/s), "
                f"{metrics['errors']:.0f} error(s)"
            )
            print(
                f"  latency p50 {metrics['p50_ms']:.2f}ms  p99 {metrics['p99_ms']:.2f}ms  "
                f"max {metrics['max_ms']:.2f}ms"
            )
            print(
                f"  cache hit rate {metrics['cache_hit_rate']:.3f}  "
                f"batches {metrics['batches']:.0f} (max {metrics['max_batch']:.0f}, "
                f"mean {metrics['mean_batch']:.2f})  coalesced {metrics['coalesced']:.0f}"
            )
            print(f"  byte_identical {metrics['byte_identical']:.3f}")
            if written is not None:
                print(f"artifact written to {written}")
        if artifact.records[0].passed is False:
            print("repro-lb bench service: FAIL verdict", file=sys.stderr)
            return 1
        return 0

    if args.bench_command == "rebalance":
        from repro.bench.rebalance import run_rebalance_bench

        artifact = run_rebalance_bench(
            task_count=args.tasks,
            processor_count=args.processors,
            deltas=args.deltas,
            repeats=args.repeats,
            seed=args.seed,
        )
        written = artifact.save(args.output) if args.output else None
        if args.json:
            print(jsonio.dumps(artifact.to_dict()))
        else:
            record = artifact.records[0]
            metrics = record.metrics
            print(f"bench rebalance: preset {artifact.preset} ({artifact.created})")
            print(f"  {record.title}")
            print(
                f"  repair {metrics['rebalance_seconds_best']:.3f}s vs scratch "
                f"{metrics['scratch_seconds_best']:.3f}s over {metrics['deltas']:.0f} "
                f"delta(s) — speedup {metrics['speedup']:.1f}x "
                f"({metrics['rebalance_ms_per_delta']:.1f}ms vs "
                f"{metrics['scratch_ms_per_delta']:.1f}ms per delta)"
            )
            print(f"  verdict agreement {metrics['verdict_agreement']:.3f}")
            if written is not None:
                print(f"artifact written to {written}")
        if artifact.records[0].passed is False:
            print("repro-lb bench rebalance: FAIL verdict", file=sys.stderr)
            return 1
        return 0

    if args.bench_command == "stress-xl":
        from repro.bench.stress_xl import XL_CURVE_NAME, run_stress_xl_bench

        artifact = run_stress_xl_bench(
            preset=args.preset, repeats=args.repeats, seed=args.seed
        )
        written = artifact.save(args.output) if args.output else None
        if args.json:
            print(jsonio.dumps(artifact.to_dict()))
        else:
            print(f"bench stress-xl: preset {artifact.preset} ({artifact.created})")
            for record in artifact.records:
                if record.name == XL_CURVE_NAME:
                    continue
                metrics = record.metrics
                print(
                    f"  N={metrics['task_count']:>6.0f}  "
                    f"schedule {metrics['schedule_seconds']:8.3f}s  "
                    f"balance best {metrics['balance_seconds_best']:8.3f}s  "
                    f"({metrics['block_count']:.0f} blocks, "
                    f"{metrics['moved_blocks']:.0f} moved)"
                )
            curve = artifact.record(XL_CURVE_NAME)
            assert curve is not None
            print(
                f"  curve: time ∝ N^{curve.metrics['fit_exponent']:.3f} "
                f"(r²={curve.metrics['r_squared']:.3f}, "
                f"ceiling {curve.metrics['exponent_ceiling']:g}) "
                f"{'PASS' if curve.passed else 'FAIL'}"
            )
            if written is not None:
                print(f"artifact written to {written}")
        if any(record.passed is False for record in artifact.records):
            print("repro-lb bench stress-xl: FAIL verdict", file=sys.stderr)
            return 1
        return 0

    # compare
    report = compare_artifacts(
        BenchArtifact.load(args.baseline),
        BenchArtifact.load(args.current),
        args.tolerance,
        min_delta=args.min_delta,
        exponent_margin=args.exponent_margin,
    )
    if args.json:
        print(jsonio.dumps(report.to_dict()))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _run_conform(args: argparse.Namespace) -> int:
    if args.config and args.paper:
        print(
            "repro-lb conform: error: --config and --paper are mutually exclusive",
            file=sys.stderr,
        )
        return 2

    if args.config or args.paper:
        # Single-run mode: the exit code reflects the strict 'conforms'
        # verdict — did the replay match the schedule's own promises?
        from repro.conformance import ConformanceReport

        if args.paper:
            config = PipelineConfig.paper_example()
        else:
            config = _load_pipeline_config(Path(args.config), "conform")
            if isinstance(config, int):
                return config
        config = config.with_conformance(hyper_periods=args.hyper_periods)
        result = Pipeline(config).run()
        report = ConformanceReport.from_dict(result.conformance)
        if args.json:
            print(jsonio.dumps(result.conformance))
        else:
            print(report.render())
        if not report.conforms:
            print(
                f"repro-lb conform: {report.divergences} divergence(s) between the "
                "schedule and its replay",
                file=sys.stderr,
            )
            return 1
        return 0

    # Grid mode: every cell of the scenario grid runs the deep tier; the
    # exit code reflects simulator/model agreement across the whole grid.
    artifact = run_sweep(
        args.preset,
        tuple(args.scenarios) if args.scenarios else None,
        tuple(args.balancers) if args.balancers else None,
        jobs=args.jobs,
        oracle_stride=0,
        conformance_stride=1,
        conformance_hyper_periods=args.hyper_periods,
    )
    written = artifact.save(args.output) if args.output else None
    if args.json:
        print(jsonio.dumps(artifact.to_dict()))
    else:
        counts = artifact.counts
        # Only ok cells carry a report dict; unschedulable/errored ones keep
        # the boolean request flag and were never replayed.
        checked = sum(
            1 for cell in artifact.cells if isinstance(cell.get("conformance"), dict)
        )
        print(f"conform: preset {artifact.preset} ({artifact.created})")
        print(artifact.render())
        print()
        print(
            f"{counts['cells']} cell(s): {counts['ok']} ok, "
            f"{counts['unschedulable']} unschedulable, {counts['error']} error(s); "
            f"{checked} conformance replay(s), {counts['findings']} finding(s)"
        )
        if written is not None:
            print(f"artifact written to {written}")
    if not artifact.ok:
        print(
            f"repro-lb conform: {len(artifact.findings)} finding(s)", file=sys.stderr
        )
        return 1
    return 0


def _run_rebalance(args: argparse.Namespace) -> int:
    if args.grid:
        if args.config or args.delta:
            print(
                "repro-lb rebalance: error: --grid is mutually exclusive with "
                "--config/--delta",
                file=sys.stderr,
            )
            return 2
        artifact = run_churn_grid(
            args.preset,
            tuple(args.scenarios) if args.scenarios else None,
            balancer=args.balancer,
            conformance_hyper_periods=args.hyper_periods,
        )
        written = artifact.save(args.output) if args.output else None
        if args.json:
            print(jsonio.dumps(artifact.to_dict()))
        else:
            print(artifact.render())
            if written is not None:
                print(f"artifact written to {written}")
        if not artifact.ok:
            print(
                f"repro-lb rebalance: {len(artifact.findings)} churn finding(s)",
                file=sys.stderr,
            )
            return 1
        return 0

    if not args.config or not args.delta:
        print(
            "repro-lb rebalance: error: needs --config and --delta (or --grid)",
            file=sys.stderr,
        )
        return 2
    from repro.churn import timeline_from_payload

    config = _load_pipeline_config(Path(args.config), "rebalance")
    if isinstance(config, int):
        return config
    try:
        delta_data = jsonio.load_json_path(Path(args.delta), kind="delta")
        timeline = timeline_from_payload(delta_data)
    except ConfigurationError as error:
        print(f"repro-lb rebalance: error: {error}", file=sys.stderr)
        return 2
    pipeline = Pipeline(config)
    prior = pipeline.run()
    if not prior.feasible:
        print(
            "repro-lb rebalance: error: the prior pipeline run is infeasible; "
            "nothing to repair",
            file=sys.stderr,
        )
        return 1
    return _emit(pipeline.rebalance(prior, timeline), args.json)


def _run_sweep(args: argparse.Namespace) -> int:
    artifact = run_sweep(
        args.preset,
        tuple(args.scenarios) if args.scenarios else None,
        tuple(args.balancers) if args.balancers else None,
        jobs=args.jobs,
        oracle_stride=args.oracle_stride,
        conformance_stride=args.conformance_stride,
    )
    written = None
    if args.output:
        written = artifact.save(args.output)
    if args.json:
        print(jsonio.dumps(artifact.to_dict()))
    else:
        counts = artifact.counts
        print(f"sweep: preset {artifact.preset} ({artifact.created})")
        print(artifact.render())
        print()
        print(
            f"{counts['cells']} cell(s): {counts['ok']} ok, "
            f"{counts['unschedulable']} unschedulable, {counts['error']} error(s), "
            f"{counts['findings']} finding(s)"
        )
        if written is not None:
            print(f"artifact written to {written}")
    if not artifact.ok:
        print(
            f"repro-lb sweep: {len(artifact.findings)} invariant finding(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_hunt(args: argparse.Namespace) -> int:
    options = SearchOptions(
        objective=args.objective,
        budget=args.budget,
        evaluations=args.evaluations,
        seed=args.seed,
        threshold=args.threshold,
        max_survivors=args.max_survivors,
        minimize=not args.no_minimize,
    )
    artifact = run_hunt(options)
    written = artifact.save(args.output) if args.output else None
    frozen = ()
    if args.freeze and artifact.counterexamples:
        frozen = freeze_counterexamples(artifact, args.registry)
    if args.json:
        print(jsonio.dumps(artifact.to_dict()))
    else:
        print(artifact.render())
        if written is not None:
            print(f"artifact written to {written}")
        for entry in frozen:
            print(f"frozen: {entry.name}")
        if args.freeze and artifact.counterexamples and not frozen:
            print("nothing frozen: every survivor is already in the registry")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    rules = None
    if args.rules:
        rules = tuple(name.strip() for name in args.rules.split(",") if name.strip())
    artifact = lint_paths(args.paths, rules=rules)
    if args.output:
        target = artifact.save(args.output)
        print(f"lint artifact written to {target}", file=sys.stderr)
    if args.json:
        print(artifact.dumps(), end="")
    else:
        print(artifact.render())
    return 0 if artifact.ok else 1


def _registry_catalog() -> dict[str, list[dict[str, str]]]:
    """Every user-facing registry as one uniform ``section -> entries`` map.

    Each entry is ``{"name": ..., "summary": ...}`` — the single source both
    renderings of ``repro-lb list`` (text and ``--json``) walk, so a registry
    added anywhere shows up in both by editing exactly one place.
    """

    def entries(names, summary) -> list[dict[str, str]]:
        return [{"name": str(name), "summary": summary(name)} for name in names]

    def experiment_summary(name: str) -> str:
        doc = (ALL_EXPERIMENTS[name].__doc__ or "").strip().splitlines()
        return doc[0] if doc else ""

    return {
        "balancers": entries(
            available_balancers(),
            lambda name: balancer_info(name).description
            + (
                f" (params: {', '.join(balancer_info(name).params)})"
                if balancer_info(name).params
                else ""
            ),
        ),
        "cost policies (paper balancer)": entries(
            (policy.value for policy in CostPolicy), lambda _name: ""
        ),
        "initial placement policies": entries(
            (policy.value for policy in PlacementPolicy), lambda _name: ""
        ),
        "scenarios (see 'repro-lb sweep')": entries(
            available_scenarios(), lambda name: scenario_info(name).title
        ),
        "churn scenarios (see 'repro-lb rebalance --grid')": entries(
            available_churn_scenarios(), lambda name: churn_scenario_info(name).title
        ),
        "hunt objectives (see 'repro-lb hunt')": entries(
            available_objectives(), lambda name: objective_info(name).title
        ),
        "experiments": entries(sorted(ALL_EXPERIMENTS), experiment_summary),
        "campaign presets": entries(PRESET_NAMES, lambda _name: ""),
        "benchmarks (see 'repro-lb bench list')": entries(
            available_benchmarks(), lambda name: benchmark_info(name).title
        ),
        "bench presets": entries(
            sorted(BENCH_PRESETS),
            lambda name: f"maps to experiment preset {BENCH_PRESETS[name]!r}",
        ),
        "lint rules (see 'repro-lb lint')": entries(
            available_lint_rules(), lambda name: lint_rule_info(name).title
        ),
        "artifact schemas": [
            {"name": tag, "summary": f"owned by {module}"}
            for tag, module in SCHEMA_TABLE.items()
        ],
    }


def _run_list(args: argparse.Namespace) -> int:
    catalog = _registry_catalog()
    if getattr(args, "json", False):
        print(jsonio.dumps(catalog))
        return 0
    blocks = []
    for section, items in catalog.items():
        width = max((len(entry["name"]) for entry in items), default=0)
        lines = [f"{section}:"]
        lines.extend(
            f"  {entry['name']:<{width}}  {entry['summary']}".rstrip() for entry in items
        )
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.service.server import BalancingService, run_service

    service = BalancingService(
        args.host,
        args.port,
        jobs=args.jobs,
        pool=args.pool,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
        cache_entries=args.cache_entries,
    )
    return run_service(service)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-lb`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "example": _run_example,
        "run": _run_config,
        "experiment": _run_experiments,
        "campaign": _run_campaign,
        "random": _run_random,
        "bench": _run_bench,
        "rebalance": _run_rebalance,
        "sweep": _run_sweep,
        "conform": _run_conform,
        "hunt": _run_hunt,
        "serve": _run_serve,
        "lint": _run_lint,
        "list": _run_list,
    }
    handler = handlers.get(args.command)
    if handler is None:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return handler(args)
    except ReproError as error:
        print(f"repro-lb {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
