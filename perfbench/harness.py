"""Measurement, correctness checks and metrics of the benchmark.

``run_e2e`` measures the end-to-end metrics with tracing off; ``run_traced``
is the separate traced run that gives the per-layer metrics.  Both check
every answer and return ``metrics`` (name -> value), ``counts`` (name ->
sample count, plus a few diagnostics) and the :class:`Checks` tally.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro as pg
from repro.ginkgo import cachestats

import layers
from workloads import (
    MAX_ITERS,
    REBUILD_KINDS,
    TOLERANCE,
    Request,
    Timer,
    solo_solution,
)

#: A solution passes when its relative residual ``||b - A x|| / ||b||``,
#: recomputed with SciPy, is within this factor of the tolerance: the
#: solvers stop on a recurrence of it, which rounding moves slightly.
RESIDUAL_SLACK = 1.05
#: Set-ups per run: two before the timed window (one for the same-seed
#: replay, one for the window), then more after it until there are at least
#: ``MIN_SETUPS`` and, while they total under ``SETUP_BUDGET_S``, up to
#: ``MAX_SETUPS``.  ``setup_s`` is their median; set-ups at both ends of
#: the run sample two moments of a shared host.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 1.0
#: Requests (service rounds) per run at least, so p90 has 10 samples
#: beyond it.
MIN_REQUESTS = 100
#: Rounds whose jobs are re-solved alone for the byte-identity check.
IDENTITY_ROUNDS = 2
#: Share of ``--seconds`` the traced run spends on its untraced pass, and
#: the most requests that pass may hold (the traced pass repeats them).
TRACED_SHARE = 0.25
TRACED_MAX_REQUESTS = 60
#: No run measures longer than this, whatever its minimum request count.
HARD_CAP_S = 120.0


def max_threads() -> int:
    return 1 + len(os.sched_getaffinity(0))


class Checks:
    """Counts attempted and failed requests and explains the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list = []
        #: Largest relative residual over the tolerance seen.
        self.worst = 0.0

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def threads(self) -> None:
        if threading.active_count() > max_threads():
            self.fail(
                f"{threading.active_count()} threads alive, limit "
                f"{max_threads()}"
            )

    def answers(self, request: Request) -> int:
        """Check every answer of ``request``.

        Returns how many the program completed (returned a converged
        solution), whether or not the solution then passed the check.
        """
        completed = 0
        for answer in request.answers:
            self.attempted += 1
            ratio = residual_ratio(answer)
            self.worst = max(self.worst, ratio)
            if not answer.ok:
                self.fail(f"{request.kind}: solver reported failure")
                continue
            completed += 1
            if not ratio <= RESIDUAL_SLACK:
                self.fail(f"{request.kind}: residual {ratio:.3g}x the tolerance")
        self.threads()
        return completed

    def same(self, label: str, first: list, second: list) -> None:
        """Identical simulated times and byte-identical solutions."""
        for index, (a, b) in enumerate(zip(first, second)):
            if a.sims != b.sims:
                self.fail(f"{label}: request {index} simulated times differ")
            for left, right in zip(a.answers, b.answers):
                if not _identical(left.x, right.x):
                    self.fail(f"{label}: request {index} solutions differ")


def _identical(left, right) -> bool:
    return (
        left is not None
        and right is not None
        and left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


def residual_ratio(answer) -> float:
    """``||b - A x|| / ||b||`` over the tolerance, recomputed with SciPy.

    A missing or non-finite solution gives ``inf``.
    """
    if answer.x is None:
        return float("inf")
    x = np.asarray(answer.x, dtype=np.float64).reshape(answer.rhs.shape)
    if not np.all(np.isfinite(x)):
        return float("inf")
    residual = answer.rhs - answer.a @ x
    return float(
        np.linalg.norm(residual)
        / (np.linalg.norm(answer.rhs) * answer.tolerance)
    )


def check_identity(checks: Checks, request: Request, rng) -> int:
    """Re-solve one seeded job per route alone; solutions must be equal."""
    by_route: dict = {}
    for job, result in zip(request.details["jobs"], request.details["results"]):
        by_route.setdefault(result.route, []).append((job, result))
    checked = 0
    for route in sorted(by_route):
        pairs = by_route[route]
        job, result = pairs[int(rng.integers(len(pairs)))]
        checked += 1
        if not _identical(result.x, solo_solution(job)):
            checks.fail(f"service_mix: {route} job {job.job_id} differs solo")
    return checked


def window(workload, state, seconds: float, checks: Checks, keep: int,
           max_requests: int | None = None, min_requests: int = 1):
    """Run requests for ``seconds`` (and at least ``min_requests``).

    Stops on a whole cycle of request kinds.  Returns light records
    ``(wall, sims, kind, completed)`` and the first ``keep`` full
    requests.
    """
    records, kept = [], []
    start = perf_counter()
    index = 0
    while True:
        elapsed = perf_counter() - start
        if index % workload.cycle == 0 and (
            elapsed >= HARD_CAP_S
            or (max_requests is not None and index >= max_requests)
            or (elapsed >= seconds and index >= min_requests)
        ):
            break
        request = workload.request(state, index, Timer())
        completed = checks.answers(request)
        records.append((request.wall, request.sims, request.kind, completed))
        if index < keep:
            kept.append(request)
        index += 1
    return records, kept


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_e2e(workload, seed: int, seconds: float):
    checks = Checks()
    setup_walls = []

    def setup():
        start = perf_counter()
        state = workload.setup(seed)
        setup_walls.append(perf_counter() - start)
        checks.threads()
        return state

    # Same seed, fresh set-up: compared with the timed window.
    replay = workload.replay
    _, replayed = window(
        workload, setup(), 0.0, checks, keep=replay,
        max_requests=replay, min_requests=replay,
    )
    state = setup()
    records, kept = window(
        workload, state, seconds, checks,
        keep=max(replay, IDENTITY_ROUNDS), min_requests=MIN_REQUESTS,
    )
    checks.same("same-seed replay", replayed, kept[:replay])

    walls = [wall for wall, _, _, _ in records]
    sims = [sim for _, request_sims, _, _ in records for sim in request_sims]
    completed = sum(done for _, _, _, done in records)
    metrics = {
        "wall_s.p50": float(np.percentile(walls, 50)),
        "wall_s.p90": float(np.percentile(walls, 90)),
        "requests_per_s": completed / sum(walls),
        "sim_s.p50": float(np.percentile(sims, 50)),
        "sim_s.p90": float(np.percentile(sims, 90)),
    }
    counts = {
        "wall_s.p50": len(walls),
        "wall_s.p90": len(walls),
        "requests_per_s": len(walls),
        "sim_s.p50": len(sims),
        "sim_s.p90": len(sims),
    }
    if workload.name == "service_mix":
        rng = np.random.default_rng([seed, 5])
        counts["identity_checked"] = sum(
            check_identity(checks, request, rng)
            for request in kept[:IDENTITY_ROUNDS]
        )
        start = perf_counter()
        metrics["sim_sustained_jobs_per_s"] = workload.sustained_rate(state)
        counts["sim_sustained_jobs_per_s"] = 1
        counts["ladder_wall_s"] = round(perf_counter() - start, 3)
    else:
        # One closed-loop caller sustains one request per simulated
        # request time.
        metrics["sim_sustained_jobs_per_s"] = completed / sum(sims)
        counts["sim_sustained_jobs_per_s"] = len(sims)
    checks.threads()
    metrics["peak_rss_mb"] = peak_rss_mb()
    counts["peak_rss_mb"] = 1
    while len(setup_walls) < MIN_SETUPS or (
        len(setup_walls) < MAX_SETUPS and sum(setup_walls) < SETUP_BUDGET_S
    ):
        setup()
    metrics["setup_s"] = statistics.median(setup_walls)
    counts["setup_s"] = len(setup_walls)
    metrics["failed_fraction"] = checks.failed / max(checks.attempted, 1)
    counts["failed_fraction"] = checks.attempted
    counts["worst_residual_over_tolerance"] = round(checks.worst, 3)
    return metrics, counts, checks


class TracedTimer(Timer):
    """Times a request as the recorder's root span, under ``pg.profile``.

    Adds the request's cache lookups, simulated-time attribution and
    solver iterations to ``totals``.
    """

    def __init__(self, rec: layers.Recorder, index: int, totals) -> None:
        super().__init__()
        self.rec = rec
        self.index = index
        self.totals = totals

    @contextmanager
    def timed(self):
        registry = pg.MetricsRegistry()
        with pg.profile(metrics=registry) as prof:
            before = cachestats.snapshot()
            self.rec.begin(self.index)
            try:
                yield
            finally:
                self.wall += self.rec.end()
                after = cachestats.snapshot()
        totals = self.totals
        for key, value in after.items():
            totals[key] += value - before.get(key, 0)
        table = prof.attribution()
        for bucket in ("kernel", "binding", "stall"):
            totals[f"sim.{bucket}_s"] += table.buckets[bucket]
        totals["comm_sim_s"] += table.categories.get("comm", 0.0)
        totals["iterations"] += registry.counter("iterations").value


def scipy_pcg_walls(workload, state, count: int, checks: Checks) -> list:
    """Bare single-threaded SciPy PCG + Jacobi on the same inputs."""
    a = state["a"]
    jacobi = sp.diags(1.0 / a.diagonal())
    walls = []
    for index in range(count):
        rhs = workload.rhs(state, index)[:, 0]
        start = perf_counter()
        x, info = spla.cg(a, rhs, rtol=TOLERANCE, maxiter=MAX_ITERS, M=jacobi)
        walls.append(perf_counter() - start)
        ratio = np.linalg.norm(rhs - a @ x) / np.linalg.norm(rhs) / TOLERANCE
        if info != 0 or not ratio <= RESIDUAL_SLACK:
            checks.fail("reference SciPy PCG missed the tolerance")
    return walls


def run_traced(workload, seed: int, seconds: float, out_dir: Path):
    """Untraced pass, then the same requests traced on a fresh set-up."""
    checks = Checks()
    state = workload.setup(seed)
    _, untraced = window(
        workload, state, seconds * TRACED_SHARE, checks,
        keep=TRACED_MAX_REQUESTS, max_requests=TRACED_MAX_REQUESTS,
        min_requests=workload.cycle,
    )
    count = len(untraced)
    state = workload.setup(seed)
    rec = layers.Recorder()
    totals = defaultdict(float)
    generate_walls = defaultdict(list)
    service = defaultdict(float)
    lanes, waits, traced = [], [], []
    patches = layers.install(rec)
    try:
        for index in range(count):
            before = rec.inclusive("preconditioner", "generate")
            request = workload.request(
                state, index, TracedTimer(rec, index, totals)
            )
            generate_walls[request.kind].append(
                rec.inclusive("preconditioner", "generate") - before
            )
            checks.answers(request)
            if request.details:
                _service_details(request.details, service, lanes, waits)
                request.details = {}
            traced.append(request)
    finally:
        patches.restore()
    checks.same("traced vs untraced", untraced, traced)

    metrics = _layer_metrics(
        rec, totals, count, generate_walls, service, lanes, waits
    )
    untraced_walls = [request.wall for request in untraced]
    metrics["trace.overhead_ratio"] = (
        sum(request.wall for request in traced) / sum(untraced_walls)
    )
    scipy_p50 = ratio = 0.0
    if workload.name == "small_cg_warm":
        scipy_p50 = statistics.median(
            scipy_pcg_walls(workload, state, count, checks)
        )
        ratio = statistics.median(untraced_walls) / scipy_p50
    metrics["reference.scipy_pcg_wall_s.p50"] = scipy_p50
    metrics["core.overhead_ratio_vs_scipy"] = ratio
    checks.threads()
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-seed{seed}.json.gz"
    rec.write(trace_path)
    counts = {name: count for name in metrics}
    counts["spans"] = len(rec.spans)
    counts["worst_residual_over_tolerance"] = round(checks.worst, 3)
    return metrics, counts, checks, trace_path


def _service_details(details, service, lanes, waits) -> None:
    slo = details["slo"]
    service["coalesce_ratio"] += slo["coalesce_ratio"]
    service["max_queue_depth"] = max(
        service["max_queue_depth"], slo["max_queue_depth"]
    )
    for route, jobs in slo["routes"].items():
        service[f"routes.{route}"] += jobs
    for result in details["results"]:
        waits.append(result.queue_wait)
        if result.lane_size:
            lanes.append(result.lane_size)
        if result.report is None:
            continue
        service["retries"] += result.report.retries
        for name, payload in result.report.events:
            if name == "distributed_solve":
                service["reductions"] += payload.get("reductions", 0)


def _hit_ratio(totals, kind: str) -> float:
    hits = totals[f"cache_{kind}_hit"]
    misses = totals[f"cache_{kind}_miss"]
    return hits / (hits + misses) if hits + misses else 0.0


def _layer_metrics(rec, totals, count, generate_walls, service, lanes,
                   waits) -> dict:
    """Per-layer metrics, per request (per round on ``service_mix``)."""
    per = 1.0 / count
    metrics = {
        f"{layer}.self_wall_s": rec.self_time[layer] * per
        for layer in layers.LAYERS
    }
    unattributed = rec.self_time[layers.ROOT]
    apply = ("apply", "apply_advanced")
    metrics.update({
        "unattributed_wall_s": unattributed * per,
        "trace.coverage": 1.0 - unattributed / rec.inclusive(
            layers.ROOT, layers.ROOT
        ),
        "perfmodel.record_wall_s": rec.exclusive("perfmodel", "record") * per,
        "perfmodel.kernel_records": rec.counters["kernel_records"] * per,
        "perfmodel.bytes_computed": rec.counters["bytes"] * per,
        "perfmodel.flops_computed": rec.counters["flops"] * per,
        "bindings.sim_s": totals["sim.binding_s"] * per,
        "bindings.dispatch_hit_ratio": _hit_ratio(totals, "dispatch"),
        "solver.iterations": totals["iterations"] * per,
        "solver.workspace_hit_ratio": _hit_ratio(totals, "workspace"),
        "preconditioner.apply_wall_s": (
            rec.inclusive("preconditioner", *apply) * per
        ),
        "preconditioner.apply_calls": rec.calls("preconditioner", *apply) * per,
        "matrix.spmv_calls": rec.calls("matrix", *apply) * per,
        "matrix.spmv_wall_s": rec.inclusive("matrix", *apply) * per,
        "matrix.stage_wall_s": rec.inclusive("matrix", "stage") * per,
        "matrix.format_hit_ratio": _hit_ratio(totals, "format"),
        "batch.solves": rec.calls("batch", "apply") * per,
        "batch.systems": rec.counters["batch_systems"] * per,
        "service.coalesce_ratio": service["coalesce_ratio"] * per,
        # Jobs per dispatched lane (a scalar or distributed job is a lane
        # of one).
        "service.mean_lane_size": (
            len(lanes) / sum(1.0 / size for size in lanes) if lanes else 0.0
        ),
        "service.queue_wait_sim_s.p50": (
            float(np.percentile(waits, 50)) if waits else 0.0
        ),
        "service.max_queue_depth": service["max_queue_depth"],
        "distributed.solves": rec.calls("distributed", "solve") * per,
        "distributed.reductions": service["reductions"] * per,
        "distributed.comm_sim_s": totals["comm_sim_s"] * per,
        "resilient.calls": rec.calls(
            "resilient", "resilient_solve", "resilient_batch_solve"
        ) * per,
        "resilient.retries": service["retries"] * per,
    })
    for route in ("scalar", "batch", "distributed"):
        metrics[f"service.routes.{route}"] = service[f"routes.{route}"] * per
    for kind in REBUILD_KINDS:
        walls = generate_walls.get(kind, [])
        metrics[f"preconditioner.generate_wall_s.{kind}"] = (
            statistics.median(walls) if walls else 0.0
        )
    for bucket in ("kernel", "binding", "stall"):
        metrics[f"sim.{bucket}_s"] = totals[f"sim.{bucket}_s"] * per
    return metrics
