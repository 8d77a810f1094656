"""Unified performance-measurement subsystem (``repro-lb bench``).

* :mod:`~repro.bench.registry` — string-keyed registry of the E1–E8
  benchmarks (same pattern as :mod:`repro.api.balancers`);
* :mod:`~repro.bench.harness` — presets (``tiny``/``paper``/``stress``),
  warmup + repeat control, artifact assembly;
* :mod:`~repro.bench.artifact` — the versioned ``BENCH_*.json`` artifact
  (schema ``repro-bench/1``);
* :mod:`~repro.bench.compare` — baseline comparison returning structured
  regressions (what the CI perf gate exits non-zero on);
* :mod:`~repro.bench.service` — the ``service`` tier
  (``repro-lb bench service``): load-test the balancing service end to end
  with concurrent clients over real sockets;
* :mod:`~repro.bench.rebalance` — the ``rebalance`` tier
  (``repro-lb bench rebalance``): pin the incremental-repair-vs-from-scratch
  speedup of ``Pipeline.rebalance`` for single-task deltas;
* :mod:`~repro.bench.stress_xl` — the ``stress-xl`` tier
  (``repro-lb bench stress-xl``): time-vs-N scaling curves of the balancer,
  gated on the fitted exponent.
"""

from repro.bench.artifact import (
    BENCH_SCHEMA,
    BenchArtifact,
    BenchmarkRecord,
    environment_fingerprint,
)
from repro.bench.compare import ComparisonReport, RegressionEntry, compare
from repro.bench.harness import BENCH_PRESETS, run_benchmarks
from repro.bench.registry import (
    BenchmarkSpec,
    available_benchmarks,
    bench_script,
    benchmark_info,
    register_benchmark,
)
from repro.bench.rebalance import run_rebalance_bench
from repro.bench.service import run_service_bench, service_workload_mix
from repro.bench.stress_xl import (
    XL_PRESETS,
    fit_scaling_exponent,
    run_stress_xl_bench,
)

__all__ = [
    "BENCH_PRESETS",
    "BENCH_SCHEMA",
    "BenchArtifact",
    "BenchmarkRecord",
    "BenchmarkSpec",
    "ComparisonReport",
    "RegressionEntry",
    "XL_PRESETS",
    "available_benchmarks",
    "bench_script",
    "benchmark_info",
    "compare",
    "environment_fingerprint",
    "fit_scaling_exponent",
    "register_benchmark",
    "run_benchmarks",
    "run_rebalance_bench",
    "run_service_bench",
    "run_stress_xl_bench",
    "service_workload_mix",
]
