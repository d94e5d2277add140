"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small_cg_warm --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics and writes its spans under ``.perfbench-out/``.  Every metric is
printed with its unit and sample count; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.  The
workloads, metrics and what each layer metric should move are described
in ``perfbench/README.md``; names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One thread per process for NumPy/SciPy's BLAS, so the bare SciPy
# reference is single-threaded and the workloads stay within nproc threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program():
    """Import ``repro`` from this checkout's ``src``; exit 2 if absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"run.py: {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    _import_program()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(
            f"run.py: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]()
    if args.trace:
        metrics, counts, checks, trace_path = harness.run_traced(
            workload, args.seed, args.seconds, ROOT / ".perfbench-out"
        )
        declared = spec["per_layer"]
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, counts, checks = harness.run_e2e(
            workload, args.seed, args.seconds
        )
        declared = spec["end_to_end"]

    print(f"# {workload.name}: {workload.why}")
    units = {entry["name"]: entry["unit"] for entry in declared}
    for name, value in metrics.items():
        unit = units.get(name, "ratio")
        print(f"{name:40s} {value:14.6g} {unit:8s} n={counts.get(name, 0)}")
    for name, value in counts.items():
        if name not in metrics:
            print(f"# {name} = {value}")
    for note in checks.notes:
        print(f"# FAILED: {note}")
    missing = [name for name in units if name not in metrics]
    for name in missing:
        print(f"# FAILED: metric {name} was not measured")
    correct = checks.failed == 0 and not missing
    result = {
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
