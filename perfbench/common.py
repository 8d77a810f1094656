"""Declared metrics, statistics and layer probes shared by the workloads."""

from __future__ import annotations

import json
import math
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tracer import Tracer

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units ``BENCHMARK.json`` declares for this kind of run:
    ``per_layer`` for a traced run, ``end_to_end`` otherwise (name -> unit).

    Per-layer seconds and counts are per operation (one application solve,
    one request, one delta) unless the README says otherwise; a layer a
    workload never enters reads 0.
    """
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in json.loads(MANIFEST.read_text())[key]}


#: Span names whose self time and call count map straight onto a metric pair.
_SPAN_METRICS = {
    "unrolling.expand": ("unrolling.expand_s", None),
    "unrolling.instance_expand": ("unrolling.instance_expand_s", "unrolling.instance_expansions"),
    "heuristic.schedule": ("heuristic.schedule_s", "heuristic.schedules"),
    "kernels.probe": ("kernels.probe_s", "kernels.probes"),
    "blocks.build": ("blocks.build_s", None),
    "load_balancer.run": ("load_balancer.pass_s", None),
    "cost.prepare": ("cost.prepare_s", "cost.prepare_calls"),
    "cost.evaluate": ("cost.evaluate_s", "cost.evaluate_calls"),
    "kernels.query": ("kernels.query_s", "kernels.queries"),
    "kernels.update": ("kernels.update_s", "kernels.updates"),
    "occupancy.query": ("occupancy.query_s", "occupancy.queries"),
    "occupancy.update": ("occupancy.update_s", "occupancy.updates"),
    "feasibility.check": ("feasibility.check_s", "feasibility.checks"),
    "communications.synthesize": ("communications.synthesize_s", None),
    "deltas.apply": ("deltas.apply_s", None),
    "repair.repair": ("repair.repair_s", None),
    "op": ("trace.unattributed_s", None),
}

#: Counters filled by the probes' result hooks, reported per operation.
_COUNT_METRICS = (
    "unrolling.instance_edges",
    "unrolling.instances",
    "blocks.count",
    "load_balancer.evaluations",
    "load_balancer.moved_blocks",
    "load_balancer.rung_paper",
    "load_balancer.rung_conservative",
    "load_balancer.rung_noop",
    "communications.ops",
    "repair.displaced",
    "repair.survivors",
)


def nearest_rank(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set size in MB of this process (or its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def op_metrics(
    latencies_s: list[float],
    *,
    tail_percentile: float,
    busy_s: float,
    cold_latencies_s: list[float] | None = None,
) -> dict[str, float]:
    """The latency/throughput end-to-end metrics of one operation sample."""
    cold = latencies_s if cold_latencies_s is None else cold_latencies_s
    return {
        "op_mean_ms": statistics.fmean(latencies_s) * 1e3,
        "op_p50_ms": statistics.median(latencies_s) * 1e3,
        "op_tail_ms": nearest_rank(latencies_s, tail_percentile) * 1e3,
        "op_rate": len(latencies_s) / busy_s,
        "cold_p50_ms": statistics.median(cold) * 1e3,
    }


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def fail(self, message: str) -> None:
        """Count one failed or incorrect operation."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap every in-process layer boundary the program crosses.

    Each callable is replaced at the name its caller resolves, so only the
    program's own calls through that name are traced.
    """
    import repro.api.balancers as balancers_module
    import repro.api.pipeline as pipeline_module
    import repro.churn.deltas as deltas_module
    import repro.churn.repair as repair_module
    import repro.core.cost as cost_module
    import repro.core.kernels as kernels_module
    import repro.core.load_balancer as balancer_module
    import repro.core.occupancy as occupancy_module
    import repro.scheduling.heuristic as heuristic_module
    from repro.scheduling.unrolling import instance_count, instance_edges

    counts = tracer.counts

    # The edge expansion is cached per graph: expanding it on the fresh graph
    # right before the scheduler charges that cost to unrolling, not to the
    # first layer that happens to ask for it.
    schedule = tracer.wrap(pipeline_module.schedule_application, "heuristic.schedule")

    def expand_then_schedule(graph: Any, architecture: Any, *args: Any, **kwargs: Any) -> Any:
        counts["unrolling.instances"] += sum(instance_count(graph, n) for n in graph.task_names)
        with tracer.span("unrolling.expand"):
            edges = instance_edges(graph)
        counts["unrolling.instance_edges"] += len(edges)
        return schedule(graph, architecture, *args, **kwargs)

    tracer.install(pipeline_module, "schedule_application", expand_then_schedule)
    tracer.patch(heuristic_module, "clearing_shift_batch", "kernels.probe")
    for module in (heuristic_module, cost_module, repair_module):
        tracer.patch(module, "predecessors_of_instance", "unrolling.instance_expand")

    def on_balance(result: Any) -> None:
        rung = {"paper": "paper", "conservative": "conservative", "no-op": "noop"}
        counts[f"load_balancer.rung_{rung[result.safety_level]}"] += 1
        counts["load_balancer.evaluations"] += result.evaluations
        counts["load_balancer.moved_blocks"] += sum(
            1 for decision in result.decisions if decision.moved_away
        )

    tracer.patch(balancer_module.LoadBalancer, "run", "load_balancer.run", on_balance)
    tracer.patch(
        balancer_module,
        "build_blocks",
        "blocks.build",
        lambda blocks: counts.update({"blocks.count": len(blocks)}),
    )
    tracer.patch(balancer_module, "prepare_move_context", "cost.prepare")
    tracer.patch(balancer_module, "evaluate_move", "cost.evaluate")

    for engine, layer in (
        (kernels_module.ArrayConflictEngine, "kernels"),
        (occupancy_module.ConflictEngine, "occupancy"),
    ):
        for method in ("compatible", "compatible_batch"):
            tracer.patch(engine, method, f"{layer}.query")
        for method in ("occupy", "reside", "reside_bulk", "release", "shift"):
            tracer.patch(engine, method, f"{layer}.update")

    for module in (balancers_module, pipeline_module, balancer_module, repair_module):
        tracer.patch(module, "check_schedule", "feasibility.check")
    for module in (balancer_module, heuristic_module, repair_module):
        tracer.patch(
            module,
            "synthesize_communications",
            "communications.synthesize",
            lambda ops: counts.update({"communications.ops": len(ops)}),
        )

    tracer.patch(deltas_module.ChurnTimeline, "apply", "deltas.apply")

    def on_repair(result: Any) -> None:
        _schedule, stats = result
        counts["repair.displaced"] += stats.displaced
        counts["repair.survivors"] += stats.survivors

    tracer.patch(repair_module, "repair_schedule", "repair.repair", on_repair)


def layer_metrics(tracer: Tracer, operations: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-operation per-layer metrics from the traced pass, plus ``extra``."""
    metrics = {name: 0.0 for name in declared_metrics(trace=True)}
    per_op = 1.0 / max(operations, 1)
    self_seconds = tracer.self_seconds()
    for span, (seconds_metric, count_metric) in _SPAN_METRICS.items():
        metrics[seconds_metric] = self_seconds.get(span, 0.0) * per_op
        if count_metric is not None:
            metrics[count_metric] = tracer.counts.get(span, 0) * per_op
    for name in _COUNT_METRICS:
        metrics[name] = tracer.counts.get(name, 0) * per_op
    metrics["load_balancer.passes"] = (
        tracer.child_count("blocks.build", "load_balancer.run") * per_op
    )
    metrics.update(extra)
    return metrics
