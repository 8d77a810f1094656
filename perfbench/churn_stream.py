"""``churn-stream``: online repair of a balanced schedule under workload deltas.

Set-up balances four priors of a few hundred tasks on M=8.  A pass then
applies a seeded sequential stream of 100 deltas through
``Pipeline.rebalance``, round robin over the priors, each delta to its
stream's previous result, with verify on and report off: arrivals (half of
them wired below an existing task), departures, WCET drift and a rare
processor loss.  Four streams average out how much one seeded graph's shape
sets the repair cost.

The first pass draws the deltas and checks every result.  While another
whole pass fits in the time budget, the same deltas are applied again from
the same priors, and each delta's latency is its median over the passes.
Every run thus times the same 100 deltas, however fast the machine.

A delta whose post-delta workload the program reports unschedulable is
rejected and the stream continues from the previous result; that answer is
checked against the from-scratch pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import statistics
import time

from common import Outcome, install_layer_probes, layer_metrics, op_metrics, peak_rss_mb
from repro.api import Pipeline, PipelineConfig, RunResult
from repro.api.config import ReportStage, VerifyStage, WorkloadStage
from repro.churn.deltas import AddTask, ProcessorLoss, RemoveTask, WcetDrift
from repro.errors import InfeasibleError
from repro.scheduling.feasibility import check_schedule
from repro.service.protocol import canonical_result_bytes, deterministic_result_dict
from repro.workloads.spec import WorkloadSpec
from tracer import Tracer

PRIOR_TASKS = 300
PROCESSORS = 8
UTILIZATION = 0.20
STREAMS = 4
SETUP_REPEATS = 3
DELTAS = 100
#: Deltas of one stream between two comparisons against the from-scratch pipeline.
CHECKPOINT_EVERY = 10
_GOLDEN = (5**0.5 - 1) / 2


def _config(seed: int, stream: int) -> PipelineConfig:
    spec = WorkloadSpec(
        task_count=PRIOR_TASKS,
        processor_count=PROCESSORS,
        utilization=UTILIZATION,
        seed=random.Random(f"churn-stream:{seed}:prior{stream}").randrange(2**31),
        label=f"churn-{seed}-{stream}",
    )
    config = PipelineConfig.synthetic(spec)
    return dataclasses.replace(config, report=ReportStage(enabled=False))


def _setup(seed: int) -> tuple[list[tuple[PipelineConfig, RunResult]], float, float]:
    """Generate and balance every prior, SETUP_REPEATS times, keeping the last
    round: (priors, median s per prior, median generate s per prior).

    A round's time is spread evenly over its priors, so every prior's graph
    shape weighs in; the generate seconds are the pipeline's own
    ``workload`` stage timer.
    """
    configs = [_config(seed, stream) for stream in range(STREAMS)]
    seconds, generate = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        priors = [(config, Pipeline(config).run()) for config in configs]
        seconds.append((time.perf_counter() - started) / STREAMS)
        generate.append(statistics.fmean(prior.timings["workload"] for _c, prior in priors))
    return priors, statistics.median(seconds), statistics.median(generate)


class _DeltaStream:
    """Seeded deltas drawn against the current workload.

    Kinds come in shuffled blocks of fixed make-up (three arrivals, three
    departures, four drifts), with one processor loss at a fixed step.
    Targets walk the task order by golden-ratio steps from a seeded offset,
    so every stream touches early tasks (large descendant closures) and late
    ones (small closures) in the same proportions, whatever the seed.
    """

    BLOCK = ("arrival",) * 3 + ("departure",) * 3 + ("drift",) * 4
    LOSS_AT = 20

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = random.Random(f"churn-stream:{seed}:deltas{stream}")
        self.offset = self.rng.random()
        self.picks = 0
        self.kinds: list[str] = []
        self.step = 0
        self.arrivals = 0

    def _pick(self, names: list[str]) -> str:
        self.picks += 1
        return names[int((self.offset + self.picks * _GOLDEN) % 1.0 * len(names))]

    def next(self, graph, architecture):
        rng = self.rng
        self.step += 1
        if self.step == self.LOSS_AT:
            return ProcessorLoss(self._pick(list(architecture.processor_names)))
        if not self.kinds:
            self.kinds = list(self.BLOCK)
            rng.shuffle(self.kinds)
        kind = self.kinds.pop()
        names = list(graph.task_names)
        if kind == "arrival":
            self.arrivals += 1
            period = int(rng.choice(graph.distinct_periods()))
            predecessors: tuple[str, ...] = ()
            if self.arrivals % 2:
                predecessors = (self._pick([n for n in names if graph.task(n).period == period]),)
            return AddTask(
                name=f"arrival{self.step}",
                period=period,
                wcet=round(max(0.01, rng.uniform(0.005, 0.03) * period), 3),
                memory=round(rng.uniform(1.0, 10.0), 2),
                predecessors=predecessors,
            )
        task = graph.task(self._pick(names))
        if kind == "departure":
            return RemoveTask(task.name)
        wcet = min(max(0.01, task.wcet * rng.uniform(0.7, 1.15)), float(task.period))
        return WcetDrift(task.name, round(wcet, 3))


def _scratch(config: PipelineConfig, graph, architecture) -> RunResult:
    scratch = PipelineConfig(
        workload=WorkloadStage(kind="provided"),
        schedule=config.schedule,
        balance=config.balance,
        verify=VerifyStage(enabled=True),
        report=ReportStage(enabled=False),
        label=f"{config.label}-scratch",
    )
    return Pipeline(scratch, graph=graph, architecture=architecture).run()


class _Replay:
    """Applies deltas one by one and checks every repaired schedule."""

    def __init__(self, config: PipelineConfig, prior: RunResult, outcome: Outcome) -> None:
        self.config = config
        self.pipeline = Pipeline(config)
        self.current = prior
        self.outcome = outcome
        self.latencies: list[float] = []
        self.fallback_seconds = 0.0
        self.fallbacks = 0
        self.digest = hashlib.sha256()
        self.makespan_ratios: list[float] = []
        self.memory_ratios: list[float] = []

    def apply(self, delta, *, tracer: Tracer | None = None, check: bool = True) -> None:
        self.outcome.attempted += 1
        started = time.perf_counter()
        if tracer is None:
            result = self.pipeline.rebalance(self.current, delta)
        else:
            with tracer.span("op"):
                result = self.pipeline.rebalance(self.current, delta)
        self.latencies.append(time.perf_counter() - started)
        stats = result.rebalance["stats"]
        if stats["fallback"]:
            self.fallbacks += 1
            self.fallback_seconds += result.timings.get("repair", 0.0)
        self.digest.update(canonical_result_bytes(deterministic_result_dict(result.to_dict())))
        if result.feasible:
            if check and not check_schedule(result.balanced_schedule).is_feasible:
                self.outcome.fail(f"{delta}: repaired schedule fails check_schedule")
                return
            self.current = result
        elif check:
            schedule = self.current.balanced_schedule
            graph, architecture = delta.apply(schedule.graph, schedule.architecture)
            try:
                scratch_feasible = _scratch(self.config, graph, architecture).feasible
            except InfeasibleError:
                scratch_feasible = False
            if scratch_feasible:
                self.outcome.fail(f"{delta}: rebalance infeasible, from scratch feasible")

    def compare_with_scratch(self) -> None:
        """Cost ratios of the current schedule against a from-scratch solve.

        The current schedule is always feasible (only feasible repairs
        replace it), so the verdict agreement with the from-scratch pipeline
        is checked where it can fail: on every rejected delta, in ``apply``.
        """
        schedule = self.current.balanced_schedule
        try:
            scratch = _scratch(self.config, schedule.graph, schedule.architecture)
        except InfeasibleError:
            return
        self.makespan_ratios.append(schedule.makespan / scratch.metrics["makespan_after"])
        self.memory_ratios.append(
            max(schedule.memory_by_processor().values()) / scratch.metrics["max_memory_after"]
        )


def _stream(replays: list[_Replay], seed: int) -> list[tuple[int, object]]:
    """Draw and apply DELTAS deltas round robin, with checkpoints; returns
    them as (stream, delta)."""
    streams = [_DeltaStream(seed, k) for k in range(len(replays))]
    deltas = []
    for step in range(DELTAS):
        k = step % len(replays)
        replay, stream = replays[k], streams[k]
        schedule = replay.current.balanced_schedule
        delta = stream.next(schedule.graph, schedule.architecture)
        deltas.append((k, delta))
        replay.apply(delta)
        if stream.step % CHECKPOINT_EVERY == 0:
            replay.compare_with_scratch()
    for replay, stream in zip(replays, streams):
        if stream.step % CHECKPOINT_EVERY:
            replay.compare_with_scratch()
    return deltas


def _replay(
    priors: list[tuple[PipelineConfig, RunResult]],
    deltas: list[tuple[int, object]],
    outcome: Outcome,
    tracer: Tracer | None = None,
) -> list[_Replay]:
    """Apply recorded deltas again from the priors, without the checks."""
    replays = [_Replay(config, prior, outcome) for config, prior in priors]
    for k, delta in deltas:
        replays[k].apply(delta, tracer=tracer, check=False)
    return replays


def _joined(replays: list[_Replay], attr: str) -> list[float]:
    return [value for replay in replays for value in getattr(replay, attr)]


def _digest(replays: list[_Replay]) -> str:
    return hashlib.sha256(b"".join(r.digest.digest() for r in replays)).hexdigest()


def run(seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    outcome = Outcome()
    priors, setup_s, generate_s = _setup(seed)
    if not all(prior.feasible for _config, prior in priors):
        outcome.fail("a balanced prior is infeasible")
    started = time.perf_counter()
    replays = [_Replay(config, prior, outcome) for config, prior in priors]
    deltas = _stream(replays, seed)
    outcome.digest = _digest(replays)
    if not trace:
        passes = [_joined(replays, "latencies")]
        pass_s = time.perf_counter() - started
        while time.perf_counter() - started + pass_s <= seconds:
            again = _replay(priors, deltas, outcome)
            if _digest(again) != outcome.digest:
                outcome.fail("a repeated pass made different decisions")
            passes.append(_joined(again, "latencies"))
        latencies = [statistics.median(values) for values in zip(*passes)]
        outcome.metrics = {
            "setup_s": setup_s,
            **op_metrics(latencies, tail_percentile=90.0, busy_s=sum(latencies)),
            "peak_rss_mb": peak_rss_mb(),
            "makespan_ratio": statistics.fmean(_joined(replays, "makespan_ratios")),
            "memory_ratio": statistics.fmean(_joined(replays, "memory_ratios")),
        }
        return outcome, None

    # Traced run: the same deltas again under the probes.
    tracer = Tracer()
    install_layer_probes(tracer)
    try:
        traced = _replay(priors, deltas, outcome, tracer)
    finally:
        tracer.restore()
    if _digest(traced) != outcome.digest:
        outcome.fail("traced replay made different decisions than the untraced stream")
    count = len(deltas)
    untraced_s = sum(_joined(replays, "latencies"))
    outcome.metrics = layer_metrics(
        tracer,
        count,
        {
            "workloads.generate_s": generate_s,
            "repair.fallbacks": sum(r.fallbacks for r in traced) / count,
            "repair.fallback_s": sum(r.fallback_seconds for r in traced) / count,
            "trace.overhead_s": (sum(_joined(traced, "latencies")) - untraced_s) / count,
        },
    )
    return outcome, tracer
