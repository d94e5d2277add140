"""The benchmark's workloads: generated inputs, set-up, and one request each.

Every input is generated here from the workload seed; the program only
receives the generated matrices, right-hand sides and jobs, through its
public API (``import repro as pg``).  All workloads run on the simulated
``cuda`` executor (an A100, the paper's main device): it starts no real
threads, whereas the ``omp`` executor opens a thread pool as wide as its
simulated core count.

A request returns a :class:`Request` holding its wall time (measured only
around the calls a user waits for), its simulated times, and the answers
the harness checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import repro as pg
from repro.bindings import reset_models

#: Relative residual every closed-loop request asks for.
TOLERANCE = 1e-8
#: Iteration cap of every closed-loop solve.
MAX_ITERS = 1000

#: The five preconditioner rebuilds of ``precond_rebuild``, in request order.
REBUILD_KINDS = ("ilu", "ilu_f32", "ic", "isai", "amg")

#: Problem sizes the benchmark measures (the self-test swaps in smaller
#: ones).
SIZE = {
    "grid": 64,
    "small_n": 48,
    "large_n": 4096,
    "round_jobs": 100,
    "ladder_jobs": 300,
}


@dataclass
class Answer:
    """One solution to check: ``x`` should solve ``a @ x = rhs``."""

    a: sp.csr_matrix
    rhs: np.ndarray
    x: np.ndarray | None
    tolerance: float
    #: The program reported success (completed and converged).
    ok: bool


@dataclass
class Request:
    """What one request did, as the harness needs it."""

    wall: float
    #: Simulated seconds: one per closed-loop request, one per service job.
    sims: list
    answers: list
    #: Request kind (``precond_rebuild``'s preconditioner; else the workload).
    kind: str = ""
    #: Service-only details (results, SLO snapshot) for the traced run.
    details: dict = field(default_factory=dict)


class Timer:
    """Wall clock around the part of a request a user waits for."""

    def __init__(self) -> None:
        self.wall = 0.0

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - start


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for one input stream; warm-ups use negative indices."""
    return np.random.default_rng([part % 2**63 for part in (seed, *key)])


def poisson2d(grid: int) -> sp.csr_matrix:
    """5-point Laplacian on a ``grid`` x ``grid`` mesh (SPD)."""
    tri = sp.diags(
        [-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid), dtype=np.float64
    )
    eye = sp.identity(grid, dtype=np.float64)
    return (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsr()


def _solve_closed(timer, dev, rhs, make_handle) -> tuple:
    """Timed: get the solver handle, stage ``rhs``, solve, copy ``x`` out."""
    n = rhs.shape[0]
    with timer.timed():
        handle = make_handle()
        b = pg.as_tensor(rhs, device=dev)
        x = pg.as_tensor(device=dev, dim=(n, 1), fill=0.0)
        handle.apply(b, x)
        solution = x.numpy()
    return handle, solution


class SmallCgWarm:
    """CG + scalar Jacobi on a 64x64 Poisson grid, one persistent handle."""

    name = "small_cg_warm"
    why = (
        "CG+Jacobi on a 64x64 Poisson grid with one warm handle: framework "
        "overhead (core, bindings, solver loop, perf model) dominates and "
        "every cache hits"
    )
    cycle = 1
    #: Requests replayed on a fresh same-seed set-up to check determinism.
    replay = 5

    def __init__(self) -> None:
        self.grid = SIZE["grid"]

    def setup(self, seed: int) -> dict:
        # Restart the shared binding-overhead jitter streams so simulated
        # times depend only on the seed.
        reset_models()
        a = poisson2d(self.grid)
        dev = pg.device("cuda", fresh=True, seed=seed)
        mtx = pg.from_scipy(a, device=dev)
        precond = pg.preconditioner.Jacobi(dev, mtx)
        handle = pg.solver.cg(
            dev, mtx, precond, max_iters=MAX_ITERS,
            reduction_factor=TOLERANCE,
        )
        state = {"seed": seed, "a": a, "dev": dev, "handle": handle}
        # Warm-up: fills the solver workspace and the dispatch caches.
        for index in (-1, -2):
            self.request(state, index, Timer())
        return state

    def rhs(self, state: dict, index: int) -> np.ndarray:
        n = state["a"].shape[0]
        return _rng(state["seed"], 1, index).standard_normal((n, 1))

    def request(self, state: dict, index: int, timer: Timer) -> Request:
        rhs = self.rhs(state, index)
        dev, handle = state["dev"], state["handle"]
        start = dev.clock.now
        _, solution = _solve_closed(timer, dev, rhs, lambda: handle)
        return Request(
            wall=timer.wall,
            sims=[dev.clock.now - start],
            answers=[
                Answer(state["a"], rhs, solution, TOLERANCE, handle.converged)
            ],
            kind=self.name,
        )


class PrecondRebuild:
    """Per-step preconditioner rebuilds on SPD ``D_k A D_k`` matrices."""

    name = "precond_rebuild"
    why = (
        "each step rebuilds ILU, float-ILU, IC, ISAI or AMG on a new SPD "
        "D*A*D matrix and solves: preconditioner set-up and apply dominate,"
        " format caches miss"
    )
    cycle = len(REBUILD_KINDS)
    replay = len(REBUILD_KINDS)

    def __init__(self) -> None:
        self.grid = SIZE["grid"]

    def setup(self, seed: int) -> dict:
        reset_models()
        base = poisson2d(self.grid)
        dev = pg.device("cuda", fresh=True, seed=seed)
        state = {
            "seed": seed,
            "base": base,
            "rows": np.repeat(np.arange(base.shape[0]), np.diff(base.indptr)),
            "dev": dev,
        }
        # Warm-up: one rebuild of every kind.
        for index in range(-self.cycle, 0):
            self.request(state, index, Timer())
        return state

    def matrix(self, state: dict, index: int) -> tuple:
        """Step ``index``'s matrix ``D A D`` (SPD: D is positive) and rhs."""
        base = state["base"]
        rng = _rng(state["seed"], 2, index)
        scale = np.exp(rng.uniform(-0.5, 0.5, base.shape[0]))
        a = base.copy()
        a.data = base.data * scale[state["rows"]] * scale[base.indices]
        return a, rng.standard_normal((base.shape[0], 1))

    def request(self, state: dict, index: int, timer: Timer) -> Request:
        kind = REBUILD_KINDS[index % self.cycle]
        a, rhs = self.matrix(state, index)
        dev = state["dev"]

        def build():
            mtx = pg.from_scipy(a, device=dev)
            if kind in ("ilu", "ilu_f32"):
                precond = pg.preconditioner.Ilu(
                    dev, mtx,
                    storage_precision="float" if kind == "ilu_f32" else None,
                )
            elif kind == "ic":
                precond = pg.preconditioner.Ic(dev, mtx)
            elif kind == "isai":
                precond = pg.preconditioner.Isai(dev, mtx)
            else:
                precond = pg.preconditioner.Amg(dev, mtx)
            # The nonsymmetric preconditioners use BiCGSTAB, which stops on
            # the unpreconditioned residual the harness checks; GMRES is
            # left-preconditioned and stops on ||M^-1 r|| instead.
            make = pg.solver.cg if kind in ("ic", "amg") else pg.solver.bicgstab
            return make(
                dev, mtx, precond, max_iters=MAX_ITERS,
                reduction_factor=TOLERANCE,
            )

        start = dev.clock.now
        handle, solution = _solve_closed(timer, dev, rhs, build)
        return Request(
            wall=timer.wall,
            sims=[dev.clock.now - start],
            answers=[Answer(a, rhs, solution, TOLERANCE, handle.converged)],
            kind=kind,
        )


def _spd_tridiagonal(n: int, rng: np.random.Generator) -> sp.csr_matrix:
    """Diagonally dominant SPD tridiagonal system with random values."""
    diag = 4.0 + rng.random(n)
    off = -1.0 - 0.5 * rng.random(n - 1)
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


class ServiceMix:
    """Open-loop multi-tenant stream through ``pg.service.SolverService``.

    A request is one round: a fresh service answering a freshly generated
    burst of jobs.  Its wall time is the ``SolverService.run`` call; its
    simulated times are the jobs' latencies (queue wait included).
    """

    name = "service_mix"
    why = (
        "bursty multi-tenant jobs through SolverService: coalesced batch "
        "lanes, distributed large jobs and resilient solves; the only "
        "workload using those layers"
    )
    cycle = 1
    replay = 2
    #: Mean inter-arrival of a timed round, simulated seconds: bursty
    #: enough that most small jobs share batch lanes.
    burst_interarrival = 2.5e-5
    #: Every ``large_every``-th job is large and routes distributed.
    large_every = 25
    num_patterns = 4
    priority_levels = 2
    tenants = ("acme", "umbrella", "initech")
    job_max_iters = 200
    job_tolerance = 1e-9
    #: Arrival rates tried for ``sim_sustained_jobs_per_s`` (jobs per
    #: simulated second): 2**(1/16) apart from 250/s to 8000/s.
    ladder = tuple(250.0 * 2.0 ** (k / 16.0) for k in range(81))
    #: A rate is sustained when the p90 job latency and the drain time
    #: after the last arrival both stay within this limit.
    latency_limit = 5e-3

    def __init__(self) -> None:
        self.small_n = SIZE["small_n"]
        self.large_n = SIZE["large_n"]
        self.round_jobs = SIZE["round_jobs"]
        self.ladder_jobs = SIZE["ladder_jobs"]

    def setup(self, seed: int) -> dict:
        state = {
            "seed": seed,
            "staging": pg.device("cuda", fresh=True, seed=seed),
        }
        # Warm-up: one round through a throwaway service.
        self.request(state, -1, Timer())
        return state

    def jobs(self, state: dict, key: tuple, count: int, interarrival: float):
        """A seeded job stream and the SciPy matrix of every job."""
        rng = _rng(state["seed"], *key)
        gaps = rng.exponential(interarrival, size=count)
        arrivals = np.cumsum(gaps) - gaps[0]
        jobs, matrices = [], []
        for index in range(count):
            if index % self.large_every == self.large_every - 1:
                n = self.large_n
            else:
                n = self.small_n + 4 * int(rng.integers(self.num_patterns))
            a = _spd_tridiagonal(n, rng)
            jobs.append(
                pg.service.SolveJob(
                    matrix=pg.from_scipy(a, device=state["staging"]),
                    rhs=rng.standard_normal((n, 1)),
                    tenant=self.tenants[int(rng.integers(len(self.tenants)))],
                    priority=int(rng.integers(self.priority_levels)),
                    arrival=float(arrivals[index]),
                    solver="cg",
                    max_iters=self.job_max_iters,
                    reduction_factor=self.job_tolerance,
                )
            )
            matrices.append(a)
        return jobs, matrices

    def service(self):
        return pg.service.SolverService(
            num_workers=2,
            device="cuda",
            policy="edf",
            coalesce=True,
            distributed_threshold=self.large_n // 2,
            real_pool=False,
        )

    def serve(self, jobs, timer: Timer):
        """Run ``jobs`` through a fresh service; returns (service, results)."""
        svc = self.service()
        # Each round's simulated times depend only on its own jobs.
        reset_models()
        with timer.timed():
            results = svc.run(jobs)
        return svc, results

    def request(self, state: dict, index: int, timer: Timer) -> Request:
        jobs, matrices = self.jobs(
            state, (3, index), self.round_jobs, self.burst_interarrival
        )
        svc, results = self.serve(jobs, timer)
        answers = [
            Answer(
                a, job.rhs, result.x, job.reduction_factor,
                result.status == "completed" and result.converged,
            )
            for job, a, result in zip(jobs, matrices, results)
        ]
        return Request(
            wall=timer.wall,
            sims=[result.latency for result in results],
            answers=answers,
            kind=self.name,
            details={
                "jobs": jobs,
                "results": results,
                "slo": svc.slo_report(),
            },
        )

    def sustains(self, state: dict, rate: float) -> bool:
        """Whether ``rate`` jobs/s meets the latency limit without backlog."""
        # The same stream on every rung, its gaps scaled by 1/rate, so
        # pass/fail depends only on the load.
        jobs, _ = self.jobs(state, (4,), self.ladder_jobs, 1.0 / rate)
        svc, results = self.serve(jobs, Timer())
        latencies = [result.latency for result in results]
        drain = svc.now - jobs[-1].arrival
        return (
            all(result.status == "completed" for result in results)
            and float(np.percentile(latencies, 90)) <= self.latency_limit
            and drain <= self.latency_limit
        )

    def sustained_rate(self, state: dict) -> float:
        """Highest ladder rate sustained, found by bisection.

        Every rung serves the same jobs, only closer together, so pass/fail
        is monotone in the rate; 0 when even the lowest rate fails.
        """
        ladder = self.ladder
        if not self.sustains(state, ladder[0]):
            return 0.0
        if self.sustains(state, ladder[-1]):
            return ladder[-1]
        low, high = 0, len(ladder) - 1
        while high - low > 1:
            mid = (low + high) // 2
            if self.sustains(state, ladder[mid]):
                low = mid
            else:
                high = mid
        return ladder[low]


WORKLOADS = {
    cls.name: cls for cls in (SmallCgWarm, PrecondRebuild, ServiceMix)
}


def solo_solution(job) -> np.ndarray:
    """Solve ``job`` alone on a fresh device, the service's solo reference."""
    dev = pg.device("cuda", fresh=True)
    a = pg.to_scipy(job.matrix)
    mtx = pg.from_scipy(a, device=dev)
    b = pg.as_tensor(job.rhs, device=dev)
    _, x = pg.resilient_solve(
        dev, mtx, b, solver=job.solver, max_iters=job.max_iters,
        reduction_factor=job.reduction_factor,
        fallback=pg.FallbackChain(dev),
    )
    return x.numpy()
