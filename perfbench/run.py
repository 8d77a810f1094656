"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk-solve --seed 1 --seconds 25 --trace 0

Workloads: ``bulk-solve``, ``service-mix``, ``churn-stream`` (see
``perfbench/README.md``).  ``--trace 0`` measures and prints the end-to-end
metrics; ``--trace 1`` runs the traced pass and prints the per-layer metrics,
writing the spans to ``perfbench/out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Without the program's
sources next to it (``src/repro``) the command exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("bulk-solve", "service-mix", "churn-stream")


def _import_program() -> None:
    """Put the checkout's sources first on the path; refuse any other copy."""
    if not (SOURCES / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SOURCES}")
    sys.path.insert(0, str(SOURCES))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SOURCES), os.environ.get("PYTHONPATH")))
    )
    import repro

    if SOURCES not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SOURCES}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from common import MANIFEST, declared_metrics

    if not MANIFEST.is_file():
        sys.exit(f"perfbench: no {MANIFEST.name} next to perfbench/")
    declared = declared_metrics(bool(args.trace))
    if args.workload == "bulk-solve":
        import bulk_solve as workload
    elif args.workload == "service-mix":
        import service_mix as workload
    else:
        import churn_stream as workload

    outcome, tracer = workload.run(args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    if set(outcome.metrics) != set(declared):
        missing = sorted(set(declared) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(declared))
        sys.exit(f"perfbench: {args.workload} missing {missing}, undeclared {extra}")

    for problem in outcome.problems:
        print(f"problem: {problem}")
    print(f"digest {args.workload} seed={args.seed} {outcome.digest}")
    for name, unit in declared.items():
        print(f"{name} {outcome.metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
