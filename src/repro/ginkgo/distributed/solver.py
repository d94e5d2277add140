"""Distributed Krylov solvers (CG and GMRES) over simulated ranks.

One algorithm body, two routes
------------------------------
:class:`DistributedCgSolver` and :class:`DistributedGmresSolver` have no
iteration loop of their own: they run the scalar ``CgSolver`` and
``GmresSolver`` bodies, which reach their vectors only through a few
route hooks that :class:`DistributedIterativeSolver` and the vector types
supply:

* ``_buffer`` hands out pooled distributed :class:`Vector` s instead of
  workspace ``Dense`` buffers;
* the fused step kernels call the vector's ``_elementwise`` entry point,
  which runs rank-partitioned (thread-parallel on ``OmpExecutor``) and
  elementwise identical to the ``Dense`` kernel;
* every global reduction (dots, norms, and — through ``_all_reduce`` —
  the GMRES multi-dot) evaluates in global element order, the same
  einsum contraction the scalar path uses, while the communicator
  charges the all-reduce;
* ``_run``, which runs the loop, adds checkpoint/replay (see below).

Consequence: a distributed solve produces a residual history bitwise
identical to the scalar solver on the undistributed system, for any rank
count — the property the distributed benchmark gates on.

Communication-hiding variants
-----------------------------
Two solvers restructure the Krylov recurrences to attack the global
reductions that dominate high-latency solves (ROADMAP item 4):

* :class:`DistributedPipelinedCgSolver` — Ghysels–Vanroose pipelined CG.
  The three reductions of a blocking CG iteration collapse into one
  fused all-reduce of ``(r,u)``, ``(w,u)`` and ``(r,r)``, posted
  *non-blocking* and overlapped with the next preconditioner apply and
  SpMV; the extra vector recurrences (``z, q, s, p``) keep the
  iteration mathematically equivalent to CG in exact arithmetic.
* :class:`DistributedSStepGmresSolver` — s-step (communication-avoiding)
  GMRES.  Each restart cycle builds ``s`` monomial Krylov basis vectors
  scaled by the matrix's Gershgorin bound (reduction-free), then a
  *single* Gram-matrix all-reduce of ``(s+1)^2`` doubles serves all
  ``s`` iterations: prefix solves of the normal equations yield the
  per-iteration residual estimates and the optimal update.

Both relax the bitwise contract: reassociating reductions changes
rounding, so their residual histories track the blocking reference only
to a pinned tolerance (see DESIGN.md).  The blocking solvers keep byte
identity.

Fault tolerance
---------------
Every body hands its loop to ``_run(step, state, monitor, **tracked)``:
one step function, the scalars carried between steps, and the vectors
holding the rest of the iteration state.  The scalar ``_run`` is a plain
loop; when the executor injects faults
(:class:`~repro.ginkgo.fault.FaultyExecutor`), the distributed override
arms one checkpoint/replay recovery (:class:`_Recovery`) for all four
solvers:

* A checkpoint copies ``state`` and the tracked vectors.  A CG step is
  one iteration, checkpointed every ``checkpoint_every`` iterations
  (``x, r, p`` and ``rz``; pipelined CG its eight-vector recurrence plus
  ``(prev_gamma, alpha)``).  A GMRES step — blocking or s-step — is a
  whole restart cycle, which replays deterministically from ``x``, so
  every cycle start is an exact checkpoint of ``x`` alone.
* While a recovery is armed the communicator checks every reduced
  payload — blocking all-reduces and, on the non-blocking path, at
  ``wait()`` time — so a poisoned all-reduce triggers a replay.
* A dropped halo / corrupted all-reduce restores the checkpoint and
  replays; a :class:`RankFailure` first shrinks the partition over the
  survivors (``Partition.shrink`` + ``Communicator.shrink`` +
  ``Matrix.repartition``), poisons the lost rows, restores them from the
  checkpoint, then replays.
* Replayed iterations reproduce the original arithmetic exactly, and a
  replay-aware monitor wrapper suppresses duplicate logging, so the
  residual history stays bit-identical to a fault-free run — even across
  a shrink, because fused-mode reductions evaluate in global element
  order regardless of the rank count.  Only the ``sequential_ranks``
  baseline (rank-order partial sums) relaxes reduction order after a
  repartition.

Scalar solvers never arm a recovery: their faults escape to the
retry/fallback layer (``resilient_solve``).
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.distributed.matrix import Matrix
from repro.ginkgo.distributed.vector import Vector
from repro.ginkgo.exceptions import (
    CommunicationError,
    GinkgoError,
    RankFailure,
)
from repro.ginkgo.fault import injector_of
from repro.ginkgo.solver.base import IterativeSolver, SolverFactory
from repro.ginkgo.solver.cg import CgSolver, _safe_divide
from repro.ginkgo.solver.gmres import GmresSolver
from repro.ginkgo.solver.kernels import _bc, record_fused
from repro.perfmodel import KernelCost

#: Payload bytes of one scalar reduction result (always float64).
_REDUCE_BYTES = np.dtype(np.float64).itemsize


class _StateCorrupted(GinkgoError):
    """Internal: a reduction result was poisoned by injected corruption."""


#: Failures the checkpoint/replay driver can absorb.  RankFailure is a
#: CommunicationError subclass; device-side CudaErrors are *not* here —
#: they stay the retry/fallback layer's job.
RECOVERABLE = (CommunicationError, _StateCorrupted)


class _Recovery:
    """Checkpoint/replay state of one distributed solve.

    Driven by :meth:`DistributedIterativeSolver._run`; armed only when
    the solver's executor carries a
    :class:`~repro.ginkgo.fault.FaultInjector` and ``checkpoint_every``
    is positive; fault-free solves pay nothing.  Checkpoints are host
    copies of the tracked arenas (the ranks share one address space, so
    one copy models every rank checkpointing its block); save/restore
    time is charged as streaming kernels with injection paused — the
    checkpoint path itself is assumed reliable.
    """

    @staticmethod
    def arm(solver: "DistributedIterativeSolver", b: Vector, tracked: dict):
        injector = injector_of(solver._exec)
        if injector is None:
            return None
        every = int(solver._factory.params.get("checkpoint_every", 1) or 0)
        if every < 1:
            return None
        if solver._cycle_steps:
            every = 1
        budget = int(solver._factory.params.get("max_recoveries", 8))
        return _Recovery(solver, injector, b, tracked, every, budget)

    def __init__(self, solver, injector, b, tracked, every, budget) -> None:
        self._solver = solver
        self._exec = solver._exec
        self._injector = injector
        self._b = b
        self._every = every
        self.budget = budget
        self._tracked: dict[str, Vector] = tracked
        self._snap_vectors: dict[str, np.ndarray] = {}
        self._snap_state: dict = {}
        self._last_saved: int | None = None
        # The right-hand side is never checkpointed per iteration: it is
        # immutable, so one snapshot restores a failed rank's rows.
        self._b_snapshot = b._data.copy()
        self._seen_faults = len(injector.injected)
        self._decisions: dict[int, bool] = {}
        self.events: list[dict] = []
        solver.num_checkpoints = 0
        solver.num_recoveries = 0
        solver.recovery_events = self.events

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def due(self, iteration: int) -> bool:
        return (
            iteration != self._last_saved
            and (iteration - 1) % self._every == 0
        )

    def checkpoint(self, state: dict) -> None:
        """Snapshot the tracked arenas + the step state."""
        self._snap_vectors = {
            name: vec._data.copy() for name, vec in self._tracked.items()
        }
        self._snap_state = {
            key: value.copy() if isinstance(value, np.ndarray) else value
            for key, value in state.items()
        }
        self._last_saved = state["iteration"]
        nbytes = sum(s.nbytes for s in self._snap_vectors.values())
        with self._injector.paused():
            self._exec.run(
                KernelCost(
                    "checkpoint_save", 0.0, 2.0 * nbytes, launches=1
                )
            )
        self._solver.num_checkpoints += 1

    # ------------------------------------------------------------------
    # detection
    # ------------------------------------------------------------------
    def verify(self, value) -> None:
        """Raise when a fresh all-reduce corruption poisoned ``value``.

        Only NaN-mode corruption is detectable this way; a finite bit
        flip passes through silently, exactly like real silent data
        corruption (see the fault-tolerance contract in DESIGN.md).
        """
        new = self._injector.injected[self._seen_faults:]
        if not new:
            return
        self._seen_faults = len(self._injector.injected)
        poisoned = any(
            f.site == "allreduce" and f.kind == "corruption" for f in new
        )
        if poisoned and not np.all(
            np.isfinite(np.asarray(value, dtype=np.float64))
        ):
            raise _StateCorrupted("all-reduce payload corrupted")

    def wrap_monitor(self, monitor):
        """Memoize monitor decisions so replays never double-log."""

        def replay_aware(iteration, residual_norm):
            if iteration in self._decisions:
                return self._decisions[iteration]
            stop = monitor(iteration, residual_norm)
            self._decisions[iteration] = stop
            return stop

        return replay_aware

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, exc: Exception) -> dict:
        """Absorb ``exc``: shrink if a rank died, restore, return the state.

        Raises ``exc`` again once the recovery budget is exhausted (the
        retry/fallback layer then owns the failure).
        """
        if self.budget < 1 or not self._snap_vectors:
            raise exc
        self.budget -= 1
        solver = self._solver
        solver.num_recoveries += 1
        event = (
            "rank_recovered"
            if isinstance(exc, RankFailure)
            else "replay_recovered"
        )
        with self._injector.paused():
            if isinstance(exc, RankFailure):
                self._shrink(exc.rank)
            self._restore()
        detail = {
            "event": event,
            "error": type(exc).__name__,
            "iteration": self._snap_state.get("iteration"),
            "ranks": solver.comm.num_ranks,
        }
        self.events.append(detail)
        self._exec._log(
            event,
            error=detail["error"],
            iteration=detail["iteration"],
            ranks=detail["ranks"],
            recoveries=solver.num_recoveries,
        )
        return dict(self._snap_state)

    def _shrink(self, failed_rank: int) -> None:
        solver = self._solver
        partition = solver.partition
        lost = partition.range_of(failed_rank)
        survivors = partition.shrink(failed_rank)
        solver.comm.shrink(failed_rank)
        solver._matrix.repartition(survivors, lost_rows=lost)
        lo, hi = lost
        seen: set[int] = set()
        for vec in (self._b, *self._tracked.values(),
                    *solver._vpool.values()):
            if id(vec) in seen:
                continue
            seen.add(id(vec))
            vec.repartition(survivors)
            # The failed rank's block is gone: poison it so any read
            # before restore/overwrite surfaces as a breakdown instead
            # of silently using stale values.
            if hi > lo and np.issubdtype(vec._data.dtype, np.floating):
                vec._data[lo:hi] = np.nan
        np.copyto(self._b._data[lo:hi], self._b_snapshot[lo:hi])

    def _restore(self) -> None:
        nbytes = 0
        for name, snap in self._snap_vectors.items():
            vec = self._tracked[name]
            np.copyto(vec._data, snap)
            vec.mark_modified()
            nbytes += snap.nbytes
        self._exec.run(
            KernelCost("checkpoint_restore", 0.0, 2.0 * nbytes, launches=1)
        )
        self._seen_faults = len(self._injector.injected)


def _pcg_local_dots(r: Vector, u: Vector, w: Vector) -> np.ndarray:
    """Fused local reductions of the pipelined-CG triple, one kernel.

    Computes ``gamma = (r, u)``, ``delta = (w, u)`` and ``rr = (r, r)``
    per column in global element order, reading the three arenas once —
    the fused multi-dot the Ghysels–Vanroose formulation exists to
    amortise.  Returns the stacked ``(3, cols)`` float64 payload for the
    single all-reduce.
    """
    exec_ = r._exec
    rows, cols = r._data.shape
    result = np.stack(
        [
            np.einsum("ij,ij->j", r._data, u._data),
            np.einsum("ij,ij->j", w._data, u._data),
            np.einsum("ij,ij->j", r._data, r._data),
        ]
    ).astype(np.float64, copy=False)
    exec_.run(
        KernelCost(
            "pipelined_cg_dots",
            flops=6.0 * rows * cols,
            bytes=3.0 * rows * cols * r.value_bytes,
            launches=1,
        )
    )
    return result


def dist_pcg_step(z, q, s, p, x, r, u, w, m, n, alpha, beta) -> None:
    """Fused Ghysels–Vanroose recurrence update, rank-parallel.

    One streaming kernel updating all eight recurrence vectors from the
    overlapped products ``m = M^{-1} w`` and ``n = A m``::

        z = n + beta z ;  q = m + beta q ;  s = w + beta s ;  p = u + beta p
        x += alpha p   ;  r -= alpha s   ;  u -= alpha q   ;  w -= alpha z

    The auxiliary updates read ``w``/``u`` *before* their own updates
    run, matching the paper's ordering.
    """
    a = _bc(alpha, x.dtype)
    bt = _bc(beta, x.dtype)
    zd, qd, sd, pd = z._data, q._data, s._data, p._data
    xd, rd, ud, wd = x._data, r._data, u._data, w._data
    md, nd = m._data, n._data

    def op(lo, hi):
        zd[lo:hi] *= bt
        zd[lo:hi] += nd[lo:hi]
        qd[lo:hi] *= bt
        qd[lo:hi] += md[lo:hi]
        sd[lo:hi] *= bt
        sd[lo:hi] += wd[lo:hi]
        pd[lo:hi] *= bt
        pd[lo:hi] += ud[lo:hi]
        xd[lo:hi] += a * pd[lo:hi]
        rd[lo:hi] -= a * sd[lo:hi]
        ud[lo:hi] -= a * qd[lo:hi]
        wd[lo:hi] -= a * zd[lo:hi]

    x._elementwise("pipelined_cg_step", op, 18)
    for vec in (z, q, s, p, r, u, w):
        vec.mark_modified()


class DistributedIterativeSolver(IterativeSolver):
    """Base of the distributed solvers: pooled Vectors, shared comm, and
    the loop runner with checkpoint/replay."""

    #: True when one ``_run`` step is a whole restart cycle: cycles replay
    #: deterministically from ``x``, so every cycle start is checkpointed.
    _cycle_steps = False

    def __init__(self, factory: SolverFactory, matrix) -> None:
        if not isinstance(matrix, Matrix):
            raise GinkgoError(
                f"{type(self).__name__} requires a distributed Matrix, "
                f"got {type(matrix).__name__}"
            )
        if factory.preconditioner is not None:
            raise GinkgoError(
                "distributed solvers currently support only "
                "preconditioner=None (the implicit Identity); distributed "
                "preconditioners are not implemented"
            )
        super().__init__(factory, matrix)
        self._vpool: dict[str, Vector] = {}
        self._rhs: Vector | None = None

    @property
    def partition(self):
        return self._matrix.partition

    @property
    def comm(self):
        return self._matrix.comm

    def _buffer(self, name: str, like: Vector, copy: bool = False) -> Vector:
        """Pooled distributed Vector shaped like ``like``.

        All pooled vectors charge their reductions on the matrix's
        communicator so a solve's comm counters aggregate in one place.
        """
        vec = self._vpool.get(name)
        if (
            vec is None
            or vec.size != like.size
            or vec.dtype != like.dtype
            or vec.partition != like.partition
        ):
            vec = Vector.zeros(
                self._exec,
                like.partition,
                cols=like.size.cols,
                dtype=like.dtype,
                comm=self._matrix.comm,
            )
            self._vpool[name] = vec
        if copy:
            vec.copy_values_from(like)
        return vec

    def _check_distributed_operands(self, b, x) -> None:
        for name, vec in (("b", b), ("x", x)):
            if not isinstance(vec, Vector):
                raise GinkgoError(
                    f"{type(self).__name__} operates on distributed "
                    f"Vectors; operand {name} is {type(vec).__name__}"
                )
            if vec.partition != self._matrix.partition:
                raise GinkgoError(
                    f"operand {name} uses a different partition than the "
                    f"system matrix"
                )

    def _apply_impl(self, b: Vector, x: Vector) -> None:
        self._check_distributed_operands(b, x)
        # A rank failure repartitions the right-hand side too.
        self._rhs = b
        super()._apply_impl(b, x)

    def _run(self, step, state: dict, monitor, **tracked) -> None:
        """Run the loop with checkpoint/replay (see :class:`_Recovery`)."""
        recovery = _Recovery.arm(self, self._rhs, tracked)
        if recovery is None:
            return super()._run(step, state, monitor)
        monitor = recovery.wrap_monitor(monitor)
        self.comm._verifier = recovery.verify
        try:
            while True:
                if recovery.due(state["iteration"]):
                    recovery.checkpoint(state)
                try:
                    if step(state, monitor):
                        return
                except RECOVERABLE as exc:
                    # Resume from the checkpointed state: the replayed
                    # steps recompute from bit-exact vectors.
                    state.update(recovery.recover(exc))
        finally:
            self.comm._verifier = None


class DistributedCgSolver(DistributedIterativeSolver, CgSolver):
    """Distributed CG: the scalar ``CgSolver`` body on distributed Vectors.

    Under fault injection the loop checkpoints ``(x, r, p, rz)`` every
    ``checkpoint_every`` iterations and absorbs recoverable failures by
    restoring the checkpoint and replaying — see :class:`_Recovery`.
    """


class DistributedPipelinedCgSolver(DistributedIterativeSolver):
    """Pipelined CG (Ghysels & Vanroose): one overlapped reduction/iter.

    Blocking CG pays three all-reduces per iteration (``p.q``, the
    residual norm, ``r.z``), each a synchronisation point.  The
    pipelined formulation fuses them into a single all-reduce of the
    triple ``gamma = (r, u)``, ``delta = (w, u)``, ``rr = (r, r)``,
    posts it non-blocking, and computes the next preconditioner apply
    and SpMV while it is in flight — at high latency the reduction
    disappears behind the matrix work entirely.

    Cost of the latency win: extra recurrences (``z, q, s, p`` next to
    ``x, r, u, w``) reassociate the CG arithmetic, so residual histories
    match blocking CG only to rounding-level tolerance (pinned in the
    tests/benchmark, documented in DESIGN.md), and the recurrence for
    ``r`` drifts from the true residual ``b - A x`` a few digits earlier
    than blocking CG under loss of orthogonality.  The monitored
    residual of iteration ``i`` is computed by the reduction of pass
    ``i + 1`` (pipeline depth 1), so a converged solve performs one
    extra overlapped SpMV.

    Under fault injection the loop checkpoints the eight-vector
    recurrence state plus ``(prev_gamma, alpha)`` every
    ``checkpoint_every`` iterations; wait-time failures restore and
    replay exactly like blocking CG.
    """

    def _iterate(self, A, M, b, x, r, monitor) -> None:
        comm = self._matrix.comm
        u = self._buffer("pcg.u", r)
        M.apply(r, u)
        w = self._buffer("pcg.w", r)
        A.apply(u, w)
        m = self._buffer("pcg.m", r)
        n = self._buffer("pcg.n", r)
        # The auxiliary recurrences start at zero (beta_0 = 0 makes the
        # first update a plain copy, but a stale NaN from a previous
        # broken-down solve would survive `0 * NaN`).
        z = self._buffer("pcg.z", r).fill(0.0)
        q = self._buffer("pcg.q", r).fill(0.0)
        s = self._buffer("pcg.s", r).fill(0.0)
        p = self._buffer("pcg.p", r).fill(0.0)

        def step(state, monitor) -> bool:
            iteration = state["iteration"]
            # Fused local dots, then ONE non-blocking all-reduce …
            reduced = _pcg_local_dots(r, u, w)
            request = comm.iallreduce(
                reduced.size * _REDUCE_BYTES,
                label="iallreduce_pcg",
                payload=reduced,
            )
            # … hidden behind the next preconditioner apply + SpMV
            # (the point of the pipelined formulation).
            M.apply(w, m)
            A.apply(m, n)
            request.wait()
            gamma, delta, rr = reduced
            res_norm = np.sqrt(rr)
            # Pipeline depth 1: this pass's reduction delivers the
            # residual of the *previous* pass's update.
            if iteration > 1 and monitor(iteration - 1, res_norm):
                return True
            prev_gamma, alpha = state["prev_gamma"], state["alpha"]
            if prev_gamma is None:
                beta = np.zeros_like(gamma)
                alpha = _safe_divide(gamma, delta)
            else:
                beta = _safe_divide(gamma, prev_gamma)
                alpha = _safe_divide(
                    gamma, delta - _safe_divide(beta * gamma, alpha)
                )
            dist_pcg_step(z, q, s, p, x, r, u, w, m, n, alpha, beta)
            state.update(
                iteration=iteration + 1, prev_gamma=gamma, alpha=alpha
            )
            return False

        self._run(
            step,
            {"iteration": 1, "prev_gamma": None, "alpha": None},
            monitor,
            x=x, r=r, u=u, w=w, z=z, q=q, s=s, p=p,
        )


class DistributedGmresSolver(DistributedIterativeSolver, GmresSolver):
    """Distributed restarted GMRES: the scalar ``GmresSolver`` body.

    Single right-hand side.  The Krylov basis and Hessenberg matrix are
    replicated host-side (the scalar solver's workspace arrays); the
    three per-iteration reductions (the restart norm, the multi-dot, and
    the candidate norm) each charge one all-reduce.
    """

    _cycle_steps = True

    def _column(self, name: str, block: Vector, index: int) -> Vector:
        # Distributed Vectors have no column views: the one column is the
        # vector itself.
        if block.size.cols != 1:
            raise GinkgoError(
                "distributed GMRES supports a single right-hand side, "
                f"got {block.size.cols} columns"
            )
        return block


#: Default s-step cycle length: the monomial basis loses roughly one
#: decimal digit of conditioning per power, so small cycles are the
#: practical regime (Hoemmen 2010 reaches further only with Newton bases).
DEFAULT_S_STEP = 4


class DistributedSStepGmresSolver(DistributedIterativeSolver):
    """s-step (communication-avoiding) GMRES: one reduction per cycle.

    Each restart cycle of length ``s``:

    1. computes the preconditioned residual ``r = M^{-1}(b - A x)``;
    2. builds the monomial Krylov basis ``p_0 = r``,
       ``p_{i+1} = M^{-1}(A p_i) / rho`` with ``rho`` the matrix's
       Gershgorin bound (:meth:`Matrix.infinity_norm` — no per-vector
       norm reductions);
    3. all-reduces the Gram matrix ``G = P^T P`` — ``(s+1)^2`` doubles,
       the cycle's *only* global reduction;
    4. for ``k = 1..s`` solves the normal equations on the leading
       ``k x k`` corner of ``G`` (redundant O(s^3) host work on every
       rank): since ``A M^{-1} p_i = rho p_{i+1}`` exactly, the update
       ``x += P[:, :k] (y / rho)`` has preconditioned residual
       ``P (e_0 - S y)`` whose norm is ``sqrt(G[0,0] - y^T G[1:,0])`` —
       the per-iteration residual estimate fed to the monitor;
    5. applies the best update and restarts (re-deriving the true
       residual, which bounds the estimate drift per cycle).

    The estimates reassociate the orthogonalisation arithmetic, so
    residual histories track blocking GMRES only to a pinned tolerance;
    conditioning of the monomial basis limits ``s`` to small values
    (default 4).  Checkpoint/recovery is cycle-granular, exactly like
    blocking GMRES: cycles replay deterministically from ``x``.
    """

    _cycle_steps = True

    def _iterate(self, A, M, b, x, r0, monitor) -> None:
        s = int(self._factory.params.get("s_step", DEFAULT_S_STEP))
        if s < 1:
            raise GinkgoError(f"s_step must be >= 1, got {s}")
        if b.size.cols != 1:
            raise GinkgoError(
                "distributed s-step GMRES supports a single right-hand "
                f"side, got {b.size.cols} columns"
            )
        exec_ = self._exec
        ws = self._workspace
        n = b.size.rows
        w = self._buffer("sstep.w", b)
        r = self._buffer("sstep.r", b)
        pk = self._buffer("sstep.pk", b)
        inv_rho = 1.0 / (self._matrix.infinity_norm() or 1.0)

        def cycle(state, monitor) -> bool:
            """One s-step cycle; True once the solve stops."""
            total_iteration = state["iteration"]
            # Preconditioned residual r = M^{-1}(b - A x).
            w.copy_values_from(b)
            A.apply_advanced(-1.0, x, 1.0, w)
            M.apply(w, r)
            basis = ws.array("sstep.basis", (n, s + 1))
            basis[:, 0] = r._data[:, 0]
            record_fused(exec_, "sstep_init", n, b.value_bytes, 2)
            for i in range(s):
                # p_{i+1} = M^{-1}(A p_i) / rho — matrix work only, no
                # reductions; the halo exchanges ride the overlap path
                # when the matrix has it enabled.
                pk._data[:, 0] = basis[:, i]
                pk.mark_modified()
                A.apply(pk, w)
                M.apply(w, pk)
                basis[:, i + 1] = pk._data[:, 0] * inv_rho
                record_fused(exec_, "sstep_basis_scale", n, b.value_bytes, 2)
            # The cycle's single global reduction: every inner iteration's
            # orthogonalisation state in one (s+1)^2 payload.
            gram = basis.T @ basis
            exec_.run(
                KernelCost(
                    "sstep_gram",
                    flops=2.0 * n * (s + 1) ** 2,
                    bytes=float(n * (s + 1) * b.value_bytes + gram.nbytes),
                    launches=1,
                )
            )
            w._all_reduce(gram, "all_reduce_gram")
            if gram[0, 0] == 0.0:
                monitor(total_iteration, 0.0)
                return True

            y = None
            inner = 0
            stopped = False
            for k in range(1, s + 1):
                corner = gram[1 : k + 1, 1 : k + 1]
                rhs = gram[1 : k + 1, 0]
                try:
                    yk = np.linalg.solve(corner, rhs)
                except np.linalg.LinAlgError:
                    # Degenerate basis (Krylov space exhausted): fall
                    # back to the minimum-norm least-squares coefficients.
                    yk = np.linalg.lstsq(corner, rhs, rcond=None)[0]
                residual_norm = np.sqrt(
                    max(float(gram[0, 0] - rhs @ yk), 0.0)
                )
                # The prefix solves are O(s^3) redundant host work on
                # every rank, like the blocking solver's Givens updates.
                exec_.run(
                    KernelCost(
                        "sstep_normal_solve",
                        flops=float(k**3) / 3.0 + 2.0 * k * k,
                        bytes=8.0 * (k + 1) * (k + 1),
                        launches=2,
                    )
                )
                y = yk
                inner = k
                total_iteration += 1
                exec_.run(
                    KernelCost("residual_check", 0.0, 64.0, launches=4)
                )
                stopped = monitor(total_iteration, residual_norm)
                if stopped:
                    break

            x._data[:, 0] += basis[:, :inner] @ (y * inv_rho)
            x.mark_modified()
            record_fused(
                exec_, "sstep_x_update", n * inner, b.value_bytes, 2
            )
            state["iteration"] = total_iteration
            return stopped

        # Cycles replay deterministically from x (see GmresSolver).
        self._run(cycle, {"iteration": 0}, monitor, x=x)


class DistributedCg(SolverFactory):
    """Distributed CG factory: ``DistributedCg(exec, criteria=...)``.

    Parameters:
        checkpoint_every: Krylov-state checkpoint period under fault
            injection (default 1; 0 disables recovery).
        max_recoveries: Recoverable failures absorbed per solve before
            the error propagates (default 8).
    """

    solver_class = DistributedCgSolver
    parameter_names = ("checkpoint_every", "max_recoveries")


class DistributedGmres(SolverFactory):
    """Distributed GMRES factory.

    Parameters:
        krylov_dim: Restart length (default 30, as in the scalar solver).
        checkpoint_every: Checkpoint period under fault injection
            (GMRES checkpoints at restart-cycle starts; 0 disables).
        max_recoveries: Recoverable failures absorbed per solve before
            the error propagates (default 8).
    """

    solver_class = DistributedGmresSolver
    parameter_names = ("krylov_dim", "checkpoint_every", "max_recoveries")


class DistributedPipelinedCg(SolverFactory):
    """Pipelined CG factory: one overlapped all-reduce per iteration.

    Parameters:
        checkpoint_every: Krylov-state checkpoint period under fault
            injection (default 1; 0 disables recovery).
        max_recoveries: Recoverable failures absorbed per solve before
            the error propagates (default 8).
    """

    solver_class = DistributedPipelinedCgSolver
    parameter_names = ("checkpoint_every", "max_recoveries")


class DistributedSStepGmres(SolverFactory):
    """s-step GMRES factory: one all-reduce per ``s_step`` iterations.

    Parameters:
        s_step: Cycle length / basis size (default 4; the monomial basis
            limits practical values to single digits).
        checkpoint_every: Checkpoint period under fault injection
            (cycle-granular, like blocking GMRES; 0 disables).
        max_recoveries: Recoverable failures absorbed per solve before
            the error propagates (default 8).
    """

    solver_class = DistributedSStepGmresSolver
    parameter_names = ("s_step", "checkpoint_every", "max_recoveries")
