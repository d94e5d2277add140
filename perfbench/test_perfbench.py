"""Self-test of the benchmark: ``python -m pytest perfbench -q``.

Runs every workload at a tiny size, untraced and traced, and checks that
each metric ``BENCHMARK.json`` declares is emitted with its unit; checks
that corrupted solutions are caught, that SpMVs are counted in the matrix
layer only, and that the benchmark fails without printing a result where
the program is absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._import_program()

import harness  # noqa: E402
import repro as pg  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Timer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
#: Problem sizes small enough for a quick self-test.
TINY = {
    "grid": 8,
    "small_n": 8,
    "large_n": 128,
    "round_jobs": 25,
    "ladder_jobs": 50,
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZE", TINY)


def test_spec_names_every_workload_with_its_why():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]


def run_tiny(workload: str, trace: int, capsys) -> tuple:
    """Exit code, result object and output lines of one tiny run."""
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, tiny,
                                               capsys):
    code, result, lines = run_tiny(workload, trace, capsys)
    assert code == (0 if result["correct"] else 1)
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert np.isfinite(emitted["value"])
        table = [line for line in lines if line.startswith(metric["name"] + " ")]
        assert table and f" {metric['unit']} " in table[0] and "n=" in table[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_answer_passes_the_checks(workload, tiny, capsys):
    code, result, lines = run_tiny(workload, 0, capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0, [
        line for line in lines if line.startswith("# FAILED")
    ]


@pytest.mark.xfail(
    strict=True,
    reason="GMRES is left-preconditioned: it stops on ||M^-1 r|| / ||b|| "
    "and returns solutions whose true relative residual misses the "
    "requested tolerance",
)
def test_isai_gmres_meets_the_true_residual(tiny):
    """The program finding that keeps GMRES out of ``precond_rebuild``."""
    workload = WORKLOADS["precond_rebuild"]()
    state = workload.setup(3)
    checks = harness.Checks()
    for index in range(3, 30, workload.cycle):
        a, rhs = workload.matrix(state, index)
        dev = state["dev"]
        mtx = pg.from_scipy(a, device=dev)
        handle = pg.solver.gmres(
            dev, mtx, pg.preconditioner.Isai(dev, mtx),
            max_iters=workloads.MAX_ITERS,
            reduction_factor=workloads.TOLERANCE,
        )
        b = pg.as_tensor(rhs, device=dev)
        x = pg.as_tensor(device=dev, dim=(rhs.shape[0], 1), fill=0.0)
        handle.apply(b, x)
        checks.answers(workloads.Request(
            wall=0.0, sims=[], kind="isai_gmres",
            answers=[workloads.Answer(
                a, rhs, x.numpy(), workloads.TOLERANCE, handle.converged
            )],
        ))
    assert checks.failed == 0, checks.notes


def test_corrupted_solution_fails_the_residual_check(tiny):
    workload = WORKLOADS["small_cg_warm"]()
    request = workload.request(workload.setup(4), 0, Timer())
    checks = harness.Checks()
    assert checks.answers(request) == 1 and checks.failed == 0
    request.answers[0].x = request.answers[0].x.copy()
    request.answers[0].x[0] += 1e-3
    checks.answers(request)
    assert checks.failed == 1 and "residual" in checks.notes[0]


def test_spmvs_are_counted_in_the_matrix_layer_only(tiny, monkeypatch):
    """ILU's triangular solves are preconditioner work, not SpMVs."""
    from repro.perfmodel.clock import SimClock

    spmv_kernels = []
    record = SimClock.record

    def counting(clock, cost):
        if cost.name.startswith("spmv_"):
            spmv_kernels.append(cost.name)
        return record(clock, cost)

    monkeypatch.setattr(SimClock, "record", counting)
    workload = WORKLOADS["precond_rebuild"]()
    state = workload.setup(6)
    spmv_kernels.clear()
    rec = layers.Recorder()
    patches = layers.install(rec)
    try:
        rec.begin(0)
        request = workload.request(state, 0, Timer())
        rec.end()
    finally:
        patches.restore()
    assert request.kind == "ilu"
    applies = ("apply", "apply_advanced")
    assert rec.calls("matrix", *applies) == len(spmv_kernels) > 0
    precond_applies = rec.calls("preconditioner", *applies)
    assert precond_applies > 0
    for trs in ("_LowerTrsSolver.apply", "_UpperTrsSolver.apply"):
        assert rec.calls("preconditioner", trs) == precond_applies
        assert rec.calls("solver", trs) == 0


def test_corrupted_service_solution_fails_the_identity_check(tiny):
    workload = WORKLOADS["service_mix"]()
    request = workload.request(workload.setup(4), 0, Timer())
    checks = harness.Checks()
    rng = np.random.default_rng(0)
    routes = harness.check_identity(checks, request, rng)
    assert routes >= 2 and checks.failed == 0
    # A last-bit change passes the residual check but not byte identity.
    for answer, result in zip(request.answers, request.details["results"]):
        result.x = answer.x = np.nextafter(result.x, np.inf)
    assert checks.answers(request) == len(request.answers)
    harness.check_identity(checks, request, rng)
    assert checks.failed == routes


def test_replay_mismatch_is_caught(tiny):
    workload = WORKLOADS["small_cg_warm"]()
    first = [workload.request(workload.setup(5), 0, Timer())]
    second = [workload.request(workload.setup(5), 0, Timer())]
    checks = harness.Checks()
    checks.same("replay", first, second)
    assert checks.failed == 0
    second[0].sims = [second[0].sims[0] * 2]
    checks.same("replay", first, second)
    assert checks.failed == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_cg_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
