"""``service-mix``: ``repro-lb serve`` under two closed-loop keep-alive clients.

The server runs in its own process on an ephemeral port with a process pool
as wide as the machine's CPU count (at most 2).  Each client sends its next
``POST /v1/submit`` only after the previous reply.  Configs come from the
scenario families at small sizes with seeds derived from the workload seed,
with varied shapes and period ladders and about a quarter of them with the
conformance oracle on.  Five in nine of each client's requests are configs
it has not sent before; the rest repeat its earlier configs with a skew
towards the first ones.  The result cache holds every config a run can send,
so every repeat is a cache hit; the run checks that against ``/v1/stats``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import Outcome, layer_metrics, op_metrics, peak_rss_mb
from repro.api import Pipeline, PipelineConfig
from repro.errors import ReproError
from repro.scenarios.registry import ScenarioScale, available_scenarios, scenario_info
from repro.scheduling.heuristic import PlacementPolicy, SchedulerOptions, schedule_application
from repro.service.protocol import canonical_result_bytes, deterministic_result_dict
from repro.workloads.generator import generate_workload
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SERVER_LOG = Path(__file__).resolve().parent / "out" / "serve-stderr.log"
CLIENTS = 2
WORKERS = max(1, min(2, os.cpu_count() or 1))
#: First-seen configs prepared per client: a plan of about 2900 requests,
#: half as many again as a client sends in 20 s on a 2-CPU machine.  A
#: client that runs out before the deadline counts a failure.
COLD_POOL = 1600
#: Result-cache capacity: room for every config of both clients, so no
#: repeat is ever evicted before it is sent again.
CACHE_ENTRIES = 4096
#: One first-seen config in this many has the conformance oracle on.
CONFORMANCE_EVERY = 4
#: Tail percentile of the request latencies.  The p99 sits among the few
#: hyper-period-strain runs with conformance on and moves about twice as far
#: as the mean when the host slows down; the p95 has over 100 requests
#: beyond it.
TAIL_PERCENTILE = 95.0
SCALES = (
    ScenarioScale(task_count=12, processor_count=2, seeds=1),
    ScenarioScale(task_count=20, processor_count=3, seeds=1),
)
#: First-seen replies at these pool positions of each client are compared
#: with a direct run and make up the decision digest; every run reaches them.
IDENTITY_SAMPLES = range(0, 250, 25)
SERVER_STARTS = 3
HEALTH_PINGS = 50
TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class _Config:
    config: PipelineConfig
    body: bytes


def _draw_block(families: list[str], rng: random.Random) -> list[tuple[str, ScenarioScale, bool]]:
    """One shuffled block of draws: each family at each scale four times,
    conformance on for one of the four."""
    block = [
        (family, scale, draw == 0)
        for family in families
        for scale in SCALES
        for draw in range(CONFORMANCE_EVERY)
    ]
    rng.shuffle(block)
    return block


def _cold_pool(seed: int, client: int, tracer: Tracer) -> list[_Config]:
    """Schedulable first-seen configs of one client.

    The mix of families, scales and conformance is fixed by ``_draw_block``;
    the seed picks the order and the workload seeds.  Draws the initial
    scheduler refuses are skipped (the service would fail them).
    """
    families = [name for name in available_scenarios() if not scenario_info(name).frozen]
    rng = random.Random(f"service-mix:{seed}:client{client}")
    pool: list[_Config] = []
    block: list[tuple[str, ScenarioScale, bool]] = []
    while len(pool) < COLD_POOL:
        if not block:
            block = _draw_block(families, rng)
        name, scale, conformance = block.pop()
        spec = scenario_info(name).builder(scale).with_updates(
            seed=rng.randrange(2**31), label=f"{name}-c{client}-{len(pool)}"
        )
        config = PipelineConfig.synthetic(spec)
        if conformance:
            config = config.with_conformance()
        with tracer.span("workloads.generate"):
            workload = generate_workload(spec)
        try:
            schedule_application(
                workload.graph,
                workload.architecture,
                SchedulerOptions(policy=PlacementPolicy(config.schedule.policy)),
            )
        except ReproError:
            continue
        body = json.dumps(
            {"config": config.to_dict(), "wait": True}, allow_nan=False, separators=(",", ":")
        ).encode()
        pool.append(_Config(config, body))
    return pool


def _plan(seed: int, client: int, pool_size: int) -> list[int]:
    """Indices into the client's pool: in every shuffled block of nine, five
    first-seen configs and four repeats of configs it already sent, skewed
    towards the first ones.  With slightly more first-seen than repeated
    requests, the median falls inside the first-seen group."""
    rng = random.Random(f"service-mix:{seed}:plan{client}")
    plan: list[int] = [0]
    sent = 1
    block: list[bool] = []
    while sent < pool_size:
        if not block:
            block = [True] * 5 + [False] * 4
            rng.shuffle(block)
        if block.pop():
            plan.append(sent)
            sent += 1
        else:
            plan.append(int(sent * rng.random() ** 3))
    return plan


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class _Server:
    """``repro-lb serve`` as a child process on an ephemeral port."""

    def __init__(self) -> None:
        SERVER_LOG.parent.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        with SERVER_LOG.open("ab") as log:
            # Its own session, so a server that will not drain can be killed
            # together with its pool workers.
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--jobs", str(WORKERS), "--pool", "process",
                    "--cache-entries", str(CACHE_ENTRIES),
                ],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                stderr=log,
                start_new_session=True,
            )
        try:
            self.host, self.port = self._banner()
            self._wait_ready()
        except BaseException:
            self._kill()
            raise
        self.start_s = time.perf_counter() - started

    def _kill(self) -> None:
        os.killpg(self.process.pid, signal.SIGKILL)
        self.process.communicate()

    def _banner(self) -> tuple[str, int]:
        deadline = time.monotonic() + TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if ready:
                line = stdout.readline().decode()
                match = re.search(r"http://([\d.]+):(\d+)", line)
                if match:
                    return match.group(1), int(match.group(2))
                if not line:
                    break
        raise RuntimeError("repro-lb serve did not report its port")

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                self.health()
                return
            except OSError:
                time.sleep(0.02)
        raise RuntimeError("repro-lb serve never answered /v1/health")

    def get(self, path: str) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT_S)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise OSError(f"GET {path}: HTTP {response.status}")
        return json.loads(body)

    def health(self) -> float:
        """One ``/v1/health`` round trip in ms."""
        started = time.perf_counter()
        self.get("/v1/health")
        return (time.perf_counter() - started) * 1e3

    def drain(self) -> str | None:
        """SIGTERM, then wait for the graceful drain; the problem, if any."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._kill()
            return "server did not drain within the timeout"
        if self.process.returncode != 0:
            return f"server exited {self.process.returncode} after SIGTERM (see {SERVER_LOG})"
        return None


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
@dataclass
class _ClientLog:
    latencies: list[float] = field(default_factory=list)
    cold_latencies: list[float] = field(default_factory=list)
    cold_overheads: list[float] = field(default_factory=list)
    makespan_ratios: list[float] = field(default_factory=list)
    memory_ratios: list[float] = field(default_factory=list)
    samples: dict[int, tuple[PipelineConfig, dict]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    sent: int = 0
    repeats: int = 0


def _drive(
    server: _Server,
    pool: list[_Config],
    plan: list[int],
    log: _ClientLog,
    start: threading.Barrier,
    seconds: float,
) -> None:
    """One closed-loop client: send, wait for the reply, send the next."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT_S)
    seen: set[int] = set()
    start.wait()
    deadline = time.perf_counter() + seconds
    try:
        for index in plan:
            if time.perf_counter() >= deadline:
                break
            cold = index not in seen
            seen.add(index)
            log.sent += 1
            started = time.perf_counter()
            try:
                connection.request(
                    "POST", "/v1/submit", body=pool[index].body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            except (OSError, http.client.HTTPException, ValueError) as error:
                log.failures.append(f"request failed: {error}")
                connection.close()
                continue
            latency = time.perf_counter() - started
            log.latencies.append(latency)
            if response.status != 200 or payload.get("status") != "done":
                log.failures.append(f"HTTP {response.status} status {payload.get('status')}")
                continue
            if not cold:
                log.repeats += 1
                continue
            log.cold_latencies.append(latency)
            if "seconds" in payload:
                log.cold_overheads.append(latency - payload["seconds"])
            metrics = payload["result"]["metrics"]
            log.makespan_ratios.append(metrics["makespan_after"] / metrics["makespan_before"])
            log.memory_ratios.append(
                metrics["max_memory_after"] / max(metrics["memory_before"].values())
            )
            if index in IDENTITY_SAMPLES:
                log.samples[index] = (pool[index].config, payload["result"])
        else:
            log.failures.append("the client ran out of prepared configs before the deadline")
    finally:
        connection.close()


@dataclass
class _Pass:
    logs: list[_ClientLog]
    wall_s: float
    stats: dict
    health_ms: float


def _serve_pass(
    server: _Server, pools: list[list[_Config]], plans: list[list[int]], seconds: float
) -> _Pass:
    logs = [_ClientLog() for _ in range(CLIENTS)]
    start = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(
            target=_drive, args=(server, pools[c], plans[c], logs[c], start, seconds)
        )
        for c in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    start.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    stats = server.get("/v1/stats")
    health = statistics.median(server.health() for _ in range(HEALTH_PINGS))
    return _Pass(logs, wall_s, stats, health)


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def _check(outcome: Outcome, run: _Pass) -> str:
    """Count failed replies, check that every repeat hit the result cache,
    and compare sampled cold results with direct runs."""
    digest = hashlib.sha256()
    for log in run.logs:
        outcome.attempted += log.sent
        for failure in log.failures:
            outcome.fail(failure)
        for _index, (config, served) in sorted(log.samples.items()):
            direct = Pipeline(config).run().to_dict()
            served_bytes = canonical_result_bytes(deterministic_result_dict(served))
            digest.update(served_bytes)
            if served_bytes != canonical_result_bytes(deterministic_result_dict(direct)):
                outcome.fail(f"{config.label}: served result differs from a direct Pipeline.run")
    cache = run.stats["cache"]
    repeats = sum(log.repeats for log in run.logs)
    if cache["hits"] != repeats or cache["evictions"]:
        outcome.fail(
            f"{repeats} repeated requests but {cache['hits']} cache hits "
            f"and {cache['evictions']} evictions"
        )
    return digest.hexdigest()


def _stop(outcome: Outcome, server: _Server) -> None:
    outcome.attempted += 1
    problem = server.drain()
    if problem is not None:
        outcome.fail(problem)


def run(seed: int, seconds: float, trace: bool) -> tuple[Outcome, Tracer | None]:
    outcome = Outcome()
    tracer = Tracer()
    started = time.perf_counter()
    pools = [_cold_pool(seed, c, tracer) for c in range(CLIENTS)]
    plans = [_plan(seed, c, len(pools[c])) for c in range(CLIENTS)]
    generate_s = time.perf_counter() - started
    fingerprint_started = time.perf_counter()
    for pool in pools:
        for item in pool:
            PipelineConfig.from_dict(item.config.to_dict()).fingerprint()
    fingerprint_s = (time.perf_counter() - fingerprint_started) / sum(map(len, pools))

    starts = []
    for attempt in range(SERVER_STARTS):
        server = _Server()
        starts.append(server.start_s)
        if attempt < SERVER_STARTS - 1:
            _stop(outcome, server)
    setup_s = generate_s + statistics.median(starts)

    try:
        served = _serve_pass(server, pools, plans, seconds)
    finally:
        _stop(outcome, server)
    outcome.digest = _check(outcome, served)
    requests = sum(len(log.latencies) for log in served.logs)
    if requests == 0:
        outcome.fail("no request completed")
        return outcome, None

    def collect(attr: str) -> list[float]:
        return [value for log in served.logs for value in getattr(log, attr)]

    if not trace:
        outcome.metrics = {
            "setup_s": setup_s,
            **op_metrics(
                collect("latencies"),
                tail_percentile=TAIL_PERCENTILE,
                busy_s=served.wall_s,
                cold_latencies_s=collect("cold_latencies"),
            ),
            "peak_rss_mb": peak_rss_mb(children=True),
            "makespan_ratio": statistics.fmean(collect("makespan_ratios")),
            "memory_ratio": statistics.fmean(collect("memory_ratios")),
        }
        return outcome, None

    # Traced run: the server's layers run in its pool workers, out of reach
    # of in-process probes, so the per-layer metrics come from the server's
    # own counters and stage timers (/v1/stats) of the same pass.  Nothing
    # is traced while the clients run: the tracing overhead is 0.
    stats, batcher = served.stats, served.stats["batcher"]
    stage = served.stats["stage_seconds"]
    sent = sum(log.sent for log in served.logs)
    outcome.metrics = layer_metrics(
        tracer,
        sent,
        {
            "workloads.generate_s": tracer.self_seconds()["workloads.generate"],
            "heuristic.schedule_s": stage.get("schedule", 0.0) / sent,
            "report.render_s": stage.get("report", 0.0) / sent,
            "conformance.check_s": stage.get("conformance", 0.0) / sent,
            "service.stage_s": sum(stage.values()) / sent,
            "service.hit_rate": stats["cache"]["hits"] / max(stats["submits"], 1),
            "service.coalesced": batcher.get("coalesced", 0) / sent,
            "service.overhead_ms": statistics.median(collect("cold_overheads")) * 1e3,
            "service.health_rtt_ms": served.health_ms,
            "batcher.batches": batcher.get("batches", 0) / sent,
            "batcher.mean_batch": float(batcher.get("mean_batch", 0.0)),
            "api.fingerprint_s": fingerprint_s,
            "trace.overhead_s": 0.0,
        },
    )
    return outcome, tracer
