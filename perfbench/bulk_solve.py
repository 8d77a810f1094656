"""``bulk-solve``: the offline user's path on large layered applications.

A fixed, seeded set of N=2000 / M=16 / u=0.30 layered applications runs
through ``Pipeline.run`` with the default synthetic config (paper balancer,
verify with the retry ladder, attached communications, rendered report, no
conformance), one after the other in a closed loop.  Every application of
the set is solved at least once, so the decision digest always covers the
whole set.

Set-up generates the application set several times and keeps the last
set.  Each solve receives a generated graph nobody has solved yet, as a
``provided`` workload: the program caches a graph's instance-edge expansion,
so a graph solved twice would make the second solve cheaper than the first.
Once the kept set is used up, each solve's workload is generated just before
it, outside every timer.  A solved workload is dropped at once, so at most
one set is held in memory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
import time

from common import Outcome, install_layer_probes, layer_metrics, op_metrics, peak_rss_mb
from repro.api import Pipeline, PipelineConfig
from repro.api.config import WorkloadStage
from repro.scheduling.feasibility import check_schedule
from repro.service.protocol import canonical_result_bytes, deterministic_result_dict
from repro.workloads.generator import generate_workload
from repro.workloads.spec import Workload, WorkloadSpec
from tracer import Tracer

APPLICATIONS = 4
TASKS = 2000
PROCESSORS = 16
UTILIZATION = 0.30
BASE_PERIOD = 200
SETUP_REPEATS = 5


def _applications(seed: int) -> list[tuple[WorkloadSpec, PipelineConfig]]:
    """Every application's spec and its default synthetic config, with the
    workload stage switched to ``provided``."""
    rng = random.Random(f"bulk-solve:{seed}")
    applications = []
    for index in range(APPLICATIONS):
        spec = WorkloadSpec(
            task_count=TASKS,
            processor_count=PROCESSORS,
            utilization=UTILIZATION,
            base_period=BASE_PERIOD,
            seed=rng.randrange(2**31),
            label=f"bulk-{seed}-{index}",
        )
        config = PipelineConfig.synthetic(spec)
        provided = dataclasses.replace(config, workload=WorkloadStage(kind="provided"))
        applications.append((spec, provided))
    return applications


class _Supply:
    """Generated workloads of the applications, each handed out once."""

    def __init__(self, seed: int) -> None:
        applications = _applications(seed)
        self.specs = [spec for spec, _config in applications]
        self.configs = [config for _spec, config in applications]
        self.kept: list[Workload | None] = []
        self.generate_seconds: list[float] = []

    def generate_set(self) -> None:
        """Generate the whole set (timed) and keep it in place of the last."""
        self.kept = []
        started = time.perf_counter()
        self.kept = [generate_workload(spec) for spec in self.specs]
        self.generate_seconds.append(time.perf_counter() - started)

    def take(self, index: int) -> Workload:
        workload = self.kept[index] if index < len(self.kept) else None
        if workload is None:
            return generate_workload(self.specs[index])
        self.kept[index] = None
        return workload


class _Solver:
    """Runs and checks solves; remembers each application's decision digest."""

    def __init__(self, supply: _Supply, outcome: Outcome) -> None:
        self.supply = supply
        self.configs = supply.configs
        self.outcome = outcome
        self.digests: dict[int, str] = {}
        self.latencies: list[float] = []
        self.makespan_ratios: list[float] = []
        self.memory_ratios: list[float] = []
        self.report_seconds: list[float] = []

    def solve(self, step: int, tracer: Tracer | None = None) -> None:
        index = step % len(self.configs)
        workload = self.supply.take(index)
        pipeline = Pipeline(
            self.configs[index], graph=workload.graph, architecture=workload.architecture
        )
        self.outcome.attempted += 1
        started = time.perf_counter()
        if tracer is None:
            result = pipeline.run()
        else:
            with tracer.span("op"):
                result = pipeline.run()
        self.latencies.append(time.perf_counter() - started)
        self.report_seconds.append(result.timings.get("report", 0.0))
        self._check(index, result)

    def _check(self, index: int, result) -> None:
        label = self.configs[index].label
        verdict = check_schedule(result.balanced_schedule, check_memory=False)
        if result.feasible is not verdict.is_feasible:
            self.outcome.fail(f"{label}: verdict {result.feasible} != check_schedule")
            return
        metrics = result.metrics
        before, after = metrics["makespan_before"], metrics["makespan_after"]
        if after > before + 1e-9:
            self.outcome.fail(f"{label}: makespan grew {before} -> {after}")
            return
        digest = hashlib.sha256(
            canonical_result_bytes(deterministic_result_dict(result.to_dict()))
        ).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            self.outcome.fail(f"{label}: a repeated solve changed its decisions")
            return
        self.makespan_ratios.append(after / before)
        self.memory_ratios.append(
            metrics["max_memory_after"] / max(metrics["memory_before"].values())
        )

    def digest(self) -> str:
        joined = "".join(self.digests[index] for index in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def _closed_loop(solver: _Solver, seconds: float) -> int:
    """Solve until the budget is spent and every application ran once."""
    started = time.perf_counter()
    step = 0
    while step < APPLICATIONS or time.perf_counter() - started < seconds:
        solver.solve(step)
        step += 1
    return step


def run(seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    outcome = Outcome()
    supply = _Supply(seed)
    for _ in range(SETUP_REPEATS):
        supply.generate_set()
    setup_s = statistics.median(supply.generate_seconds)
    solver = _Solver(supply, outcome)
    if not trace:
        _closed_loop(solver, seconds)
        outcome.metrics = {
            "setup_s": setup_s,
            **op_metrics(solver.latencies, tail_percentile=100.0, busy_s=sum(solver.latencies)),
            "peak_rss_mb": peak_rss_mb(),
            "makespan_ratio": statistics.fmean(solver.makespan_ratios or [0.0]),
            "memory_ratio": statistics.fmean(solver.memory_ratios or [0.0]),
        }
        outcome.digest = solver.digest()
        return outcome, None

    # Traced run: an untraced pass, then the same solves again, on fresh
    # graphs of the same applications, under the probes.
    steps = _closed_loop(solver, seconds / 2)
    untraced = sum(solver.latencies)
    traced_solver = _Solver(supply, outcome)
    tracer = Tracer()
    install_layer_probes(tracer)
    try:
        for step in range(steps):
            traced_solver.solve(step, tracer)
    finally:
        tracer.restore()
    if traced_solver.digests != solver.digests:
        outcome.fail("traced solves made different decisions than untraced ones")
    outcome.metrics = layer_metrics(
        tracer,
        steps,
        {
            "workloads.generate_s": setup_s,
            "report.render_s": statistics.fmean(traced_solver.report_seconds),
            "trace.overhead_s": (sum(traced_solver.latencies) - untraced) / steps,
        },
    )
    outcome.digest = solver.digest()
    return outcome, tracer
