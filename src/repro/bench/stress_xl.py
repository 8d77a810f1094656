"""The ``stress-xl`` bench tier: order-of-magnitude scaling curves.

The ROADMAP north-star asks for balancing at N=5k–50k tasks; this tier
measures how the two hot stages — the initial scheduler and the paper
balancer — scale with N at **fixed M**, and records the result as a first-class, diffable
``repro-bench/1`` artifact rather than a one-off timing.

Each tier point runs the full stage pair on a synthetic workload
(``N`` tasks, ``M=16`` processors, utilisation 0.30, a ``base_period=200``
period ladder so the largest N stays schedulable) and is stored as a record
named ``XL-<N>`` whose wall times are the measured *balance* repeats (the
paper's algorithm — the curve the tentpole optimises).  A final synthetic
record named ``XL-curve`` carries the fitted log–log scaling exponent of
best balance time versus N (``time ∝ N^exponent``); its ``passed`` verdict
requires the exponent to stay at or below :data:`EXPONENT_CEILING`.
``repro-lb bench compare`` additionally gates the exponent against the
committed baseline (``BENCH_stress_xl_baseline.json``) through its
``exponent_margin`` — a run can therefore fail on *shape* (the curve bending
upward) even when every individual wall time still passes the tolerance.

The balancer runs with ``verify_result``/``attach_communications`` disabled:
the tier isolates the steady-state hot path, not the (separately benched)
communications synthesis and feasibility sweep.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bench.artifact import BenchArtifact, BenchmarkRecord
from repro.core.load_balancer import LoadBalancerOptions, balance_schedule
from repro.errors import ConfigurationError
from repro.scheduling.heuristic import SchedulerOptions, schedule_application
from repro.workloads.generator import generate_workload
from repro.workloads.seeding import derive_seed
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "XL_PRESETS",
    "XL_CURVE_NAME",
    "EXPONENT_CEILING",
    "run_stress_xl_bench",
    "fit_scaling_exponent",
]

#: Seed stream claimed by the stress-xl workload generator (see
#: :func:`repro.workloads.seeding.derive_seed`).
XL_SEED_STREAM = 0x584C5354  # "XLST"

#: Task counts of each tier, at fixed M: ``smoke`` is the CI-sized rung of
#: the same curve (sub-minute), ``xl`` the committed-baseline scale.
XL_PRESETS: dict[str, tuple[int, ...]] = {
    "smoke": (200, 400, 800),
    "xl": (1000, 5000, 20000),
}

#: Fixed platform of the whole tier (the curve varies N only).
PROCESSOR_COUNT = 16
UTILIZATION = 0.30
BASE_PERIOD = 200

#: Name of the synthetic curve record carrying the fitted exponent.
XL_CURVE_NAME = "XL-curve"

#: Acceptance ceiling on the fitted ``time ∝ N^exponent`` exponent of the
#: balance stage.  The per-block candidate loop is O(M·N_blocks) block
#: evaluations with near-logarithmic per-query cost on the occupancy timelines;
#: allowing up to quadratic growth keeps the gate robust to fit noise on the
#: smoke rung while still catching an O(n²) regression of the seeding or
#: query paths (which lands well above 2 once the linear factors return).
EXPONENT_CEILING = 2.0


def fit_scaling_exponent(
    task_counts: list[int], seconds: list[float]
) -> tuple[float, float]:
    """Least-squares slope of ``log t`` vs ``log N`` and its ``r²``.

    Returns ``(exponent, r_squared)``.  Requires at least two points and
    positive times; degenerate fits (zero variance) report ``r² = 0``.
    """
    if len(task_counts) != len(seconds) or len(task_counts) < 2:
        raise ConfigurationError(
            "Scaling fit needs two or more (task_count, seconds) points, got "
            f"{len(task_counts)} and {len(seconds)}"
        )
    if any(value <= 0 for value in seconds):
        raise ConfigurationError("Scaling fit needs positive wall times")
    log_n = np.log(np.asarray(task_counts, dtype=np.float64))
    log_t = np.log(np.asarray(seconds, dtype=np.float64))
    slope, intercept = np.polyfit(log_n, log_t, 1)
    predicted = slope * log_n + intercept
    residual = float(np.sum((log_t - predicted) ** 2))
    total = float(np.sum((log_t - log_t.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 0.0
    return float(slope), float(r_squared)


def run_stress_xl_bench(
    *,
    preset: str = "smoke",
    repeats: int = 2,
    seed: int = 2008,
) -> BenchArtifact:
    """Run the stress-xl scaling tier and return its artifact.

    One record per tier point (``XL-<N>``: balance wall times per repeat,
    schedule seconds and move statistics in the metrics) plus the
    ``XL-curve`` record whose ``fit_exponent``/``r_squared`` metrics carry
    the scaling fit over the best balance times.
    """
    if preset not in XL_PRESETS:
        raise ConfigurationError(
            f"Unknown stress-xl preset {preset!r}; expected one of {sorted(XL_PRESETS)}"
        )
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    task_counts = XL_PRESETS[preset]
    options = LoadBalancerOptions(
        attach_communications=False,
        verify_result=False,
        retry_until_feasible=False,
    )
    scheduler_options = SchedulerOptions(attach_communications=False)

    records: list[BenchmarkRecord] = []
    best_balance: list[float] = []
    curve_started = time.perf_counter()
    for index, task_count in enumerate(task_counts):
        spec = WorkloadSpec(
            task_count=task_count,
            processor_count=PROCESSOR_COUNT,
            utilization=UTILIZATION,
            base_period=BASE_PERIOD,
            seed=derive_seed(seed, index, stream=XL_SEED_STREAM),
            label=f"stress-xl-N{task_count}-M{PROCESSOR_COUNT}",
        )
        workload = generate_workload(spec)
        schedule_started = time.perf_counter()
        schedule = schedule_application(
            workload.graph, workload.architecture, scheduler_options
        )
        schedule_seconds = time.perf_counter() - schedule_started
        wall_times: list[float] = []
        result = None
        for _repeat in range(repeats):
            balance_started = time.perf_counter()
            result = balance_schedule(schedule, options)
            wall_times.append(time.perf_counter() - balance_started)
        assert result is not None
        moved = sum(
            1
            for decision in result.decisions
            if decision.chosen_processor != decision.block.processor
        )
        records.append(
            BenchmarkRecord(
                name=f"XL-{task_count}",
                title=f"balance N={task_count} on M={PROCESSOR_COUNT}",
                wall_times=wall_times,
                metrics={
                    "task_count": float(task_count),
                    "processor_count": float(PROCESSOR_COUNT),
                    "schedule_seconds": schedule_seconds,
                    "balance_seconds_best": min(wall_times),
                    "block_count": float(len(result.blocks)),
                    "moved_blocks": float(moved),
                    "evaluations": float(result.evaluations),
                },
                passed=True,
            )
        )
        best_balance.append(min(wall_times))

    exponent, r_squared = fit_scaling_exponent(list(task_counts), best_balance)
    records.append(
        BenchmarkRecord(
            name=XL_CURVE_NAME,
            title=(
                f"balance-time scaling over N={list(task_counts)} "
                f"(time ∝ N^{exponent:.2f})"
            ),
            wall_times=[time.perf_counter() - curve_started],
            metrics={
                "fit_exponent": exponent,
                "r_squared": r_squared,
                "exponent_ceiling": EXPONENT_CEILING,
                "points": float(len(task_counts)),
            },
            passed=bool(exponent <= EXPONENT_CEILING and math.isfinite(exponent)),
        )
    )

    return BenchArtifact.now(
        preset=f"stress-xl-{preset}",
        config={
            "tier": "stress-xl",
            "preset": preset,
            "task_counts": list(task_counts),
            "processor_count": PROCESSOR_COUNT,
            "utilization": UTILIZATION,
            "base_period": BASE_PERIOD,
            "repeats": repeats,
            "seed": seed,
            "exponent_ceiling": EXPONENT_CEILING,
        },
        records=records,
        notes=[
            f"stress-xl {preset}: best balance seconds {best_balance} over "
            f"N={list(task_counts)}, fitted exponent {exponent:.3f} "
            f"(r²={r_squared:.3f}, ceiling {EXPONENT_CEILING:g})",
        ],
    )
