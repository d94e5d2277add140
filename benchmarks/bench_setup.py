"""Preconditioner set-up benchmark: wall clock of ISAI, block-Jacobi and PGM.

Set-up is where the simulated clock and the real clock disagree most: the
cost model charges a generate as microseconds, while a Python loop over
rows can take seconds at 65k rows.  This bench times, on 2D Poisson
grids of 16,384 and 65,536 rows:

* ``Isai`` generate (``sparsity_power=1``): one stacked dense solve per
  row-pattern size;
* block-``Jacobi`` generate with ``max_block_size=8``: stacked block
  inversion;
* ``multigrid.pairwise_aggregation``: the PGM matching, whose second
  pass tracks aggregate sizes instead of recounting them per node.

Each case records the median wall time of several runs and, for the two
generates, the simulated time the executor charged (the aggregation is a
plain helper with no simulated charge of its own).  Two gates guard the
scaling:

* ISAI generate at 65,536 rows stays under ``MAX_ISAI_WALL_S``;
* the aggregation's wall-time ratio, 65,536 over 16,384 rows, stays
  under ``MAX_AGGREGATION_RATIO``.  Linear code gives ~4 for 4x the
  rows; an O(n^2) pass gives ~10 or more.

Standalone::

    python benchmarks/bench_setup.py            # full run
    python benchmarks/bench_setup.py --smoke    # CI gate (fast)

Writes ``BENCH_setup.json`` next to the repo root.
"""

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.ginkgo.executor import CudaExecutor
from repro.ginkgo.matrix import Csr
from repro.ginkgo.multigrid import pairwise_aggregation
from repro.ginkgo.preconditioner import Isai, Jacobi
from repro.suitesparse.generators import poisson_2d

#: Grid sides: 128^2 = 16,384 and 256^2 = 65,536 rows.
GRIDS = (128, 256)

#: ISAI generate at the largest grid must take less wall time than this.
MAX_ISAI_WALL_S = 1.5

#: Aggregation wall-time ratio between the two grids must stay below this.
MAX_AGGREGATION_RATIO = 6.0


def _generate(factory):
    """A case timing ``factory(dev).generate(mtx)``; returns sim seconds."""

    def case(matrix):
        dev = CudaExecutor.create(noisy=False)
        mtx = Csr.from_scipy(dev, matrix)
        start = dev.clock.now
        factory(dev).generate(mtx)
        return dev.clock.now - start

    return case


def _aggregate(matrix):
    pairwise_aggregation(matrix)
    return None


CASES = {
    "isai": _generate(lambda dev: Isai(dev)),
    "block_jacobi8": _generate(lambda dev: Jacobi(dev, max_block_size=8)),
    "pgm_aggregation": _aggregate,
}


def time_case(case, matrix, repeats):
    """Median wall seconds over ``repeats`` runs, and the simulated time."""
    walls = []
    sim = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            sim = case(matrix)
            walls.append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return float(np.median(walls)), sim


def run(repeats, out_path="BENCH_setup.json"):
    cases = []
    wall = {}
    for nx in GRIDS:
        matrix = poisson_2d(nx).tocsr()
        for name, case in CASES.items():
            wall_s, sim_s = time_case(case, matrix, repeats)
            wall[name, nx] = wall_s
            cases.append(
                {
                    "case": name,
                    "rows": nx * nx,
                    "wall_s": wall_s,
                    "sim_s": sim_s,
                }
            )
            sim_text = "-" if sim_s is None else f"{sim_s:.3e} s"
            print(
                f"{name:16s} {nx * nx:6d} rows  wall {wall_s:8.4f} s  "
                f"sim {sim_text}"
            )

    small, large = GRIDS
    isai_wall = wall["isai", large]
    ratio = wall["pgm_aggregation", large] / wall["pgm_aggregation", small]
    failures = []
    if isai_wall >= MAX_ISAI_WALL_S:
        failures.append(
            f"ISAI generate at {large * large} rows took {isai_wall:.3f} s, "
            f"over the {MAX_ISAI_WALL_S:.1f} s bound"
        )
    if ratio >= MAX_AGGREGATION_RATIO:
        failures.append(
            f"aggregation wall ratio {ratio:.2f} ({large * large} over "
            f"{small * small} rows) is not below {MAX_AGGREGATION_RATIO:.1f}"
        )
    report = {
        "benchmark": "preconditioner_setup",
        "repeats": repeats,
        "setup_cases": cases,
        "isai_wall_s_at_max_rows": isai_wall,
        "max_isai_wall_s": MAX_ISAI_WALL_S,
        "aggregation_wall_ratio": ratio,
        "max_aggregation_ratio": MAX_AGGREGATION_RATIO,
        "failures": failures,
    }
    Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"ISAI at {large * large} rows {isai_wall:.3f} s "
        f"(bound {MAX_ISAI_WALL_S:.1f} s) | aggregation ratio {ratio:.2f} "
        f"(bound {MAX_AGGREGATION_RATIO:.1f})"
    )
    print(f"wrote {out_path}")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI gate: fewer repeats, assert the acceptance criteria",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_setup.json")
    args = parser.parse_args()
    repeats = args.repeats or (3 if args.smoke else 7)
    report = run(repeats=repeats, out_path=args.out)
    if report["failures"]:
        for failure in report["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("setup-smoke OK" if args.smoke else "setup bench OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
