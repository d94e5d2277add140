"""Algebraic multigrid (``gko::multigrid::Pgm`` + ``gko::solver::Multigrid``).

An aggregation-based AMG in the style of Ginkgo's parallel graph match
(PGM): greedy pairwise aggregation on the strength graph, piecewise-
constant prolongation, Galerkin coarse operators, damped-Jacobi smoothing,
and a direct solve on the coarsest level.  One V-cycle per apply makes it
usable directly as a preconditioner for the Krylov solvers.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.ginkgo.exceptions import BadDimension, GinkgoError
from repro.ginkgo.lin_op import LinOp, LinOpFactory
from repro.ginkgo.matrix.csr import Csr
from repro.ginkgo.matrix.dense import Dense
from repro.perfmodel import KernelCost, blas1_cost, spmv_cost


def pairwise_aggregation(matrix: sp.csr_matrix) -> np.ndarray:
    """Greedy pairwise matching on the strength graph (PGM-style).

    Each node pairs with its strongest unmatched neighbour; unmatched
    leftovers join the aggregate of their strongest neighbour.

    Returns:
        Aggregate index per node (length n, values in [0, n_coarse)).
    """
    n = matrix.shape[0]
    sym = (abs(matrix) + abs(matrix).T).tocsr()
    sym.setdiag(0.0)
    sym.eliminate_zeros()
    aggregate = np.full(n, -1, dtype=np.int64)
    next_id = 0
    # Pass 1: pair each node with its strongest unmatched neighbour.
    for node in range(n):
        if aggregate[node] >= 0:
            continue
        start, stop = sym.indptr[node], sym.indptr[node + 1]
        neighbours = sym.indices[start:stop]
        weights = sym.data[start:stop]
        best, best_weight = -1, 0.0
        for neighbour, weight in zip(neighbours, weights):
            if aggregate[neighbour] < 0 and weight > best_weight:
                best, best_weight = int(neighbour), float(weight)
        aggregate[node] = next_id
        if best >= 0:
            aggregate[best] = next_id
        next_id += 1
    # Pass 2: singletons with an aggregated strong neighbour merge into it.
    # Aggregate sizes are tracked as nodes move, so later nodes see the
    # sizes earlier moves left.  Only pass-1 singletons can be alone when
    # visited: aggregates lose members only by emptying a singleton.
    sizes = np.bincount(aggregate, minlength=next_id)
    for node in np.flatnonzero(sizes[aggregate] == 1).tolist():
        start, stop = sym.indptr[node], sym.indptr[node + 1]
        if stop - start == 0 or sizes[aggregate[node]] != 1:
            continue
        neighbours = sym.indices[start:stop]
        weights = sym.data[start:stop]
        target = aggregate[neighbours[np.argmax(weights)]]
        sizes[aggregate[node]] -= 1
        sizes[target] += 1
        aggregate[node] = target
    # Compact aggregate ids.
    unique, compact = np.unique(aggregate, return_inverse=True)
    return compact.astype(np.int64)


def prolongation_from_aggregates(aggregate: np.ndarray) -> sp.csr_matrix:
    """Piecewise-constant prolongation P with P[i, agg(i)] = 1."""
    n = aggregate.size
    n_coarse = int(aggregate.max()) + 1 if n else 0
    return sp.csr_matrix(
        (np.ones(n), (np.arange(n), aggregate)), shape=(n, n_coarse)
    )


class _Level:
    """One multigrid level: operator, prolongation, Jacobi smoother."""

    def __init__(self, matrix: sp.csr_matrix, omega: float) -> None:
        self.matrix = matrix
        diag = matrix.diagonal()
        inv = np.zeros_like(diag)
        mask = diag != 0
        inv[mask] = 1.0 / diag[mask]
        self.inv_diag = omega * inv
        aggregate = pairwise_aggregation(matrix)
        self.prolongation = prolongation_from_aggregates(aggregate)
        self.coarse_matrix = (
            self.prolongation.T @ matrix @ self.prolongation
        ).tocsr()


class MultigridOperator(LinOp):
    """Generated AMG operator: ``apply`` runs one V-cycle."""

    def __init__(self, factory: "Pgm", matrix) -> None:
        if not matrix.size.is_square:
            raise BadDimension(
                f"multigrid requires a square matrix, got {matrix.size}"
            )
        super().__init__(matrix.executor, matrix.size)
        self._matrix = matrix
        self._omega = factory.smoother_relaxation
        self._pre_smooth = factory.pre_smoother_steps
        self._post_smooth = factory.post_smoother_steps

        levels: list[_Level] = []
        current = matrix._scipy_view().tocsr().astype(np.float64)
        for _ in range(factory.max_levels):
            if current.shape[0] <= factory.coarse_size:
                break
            level = _Level(current, self._omega)
            if level.coarse_matrix.shape[0] >= current.shape[0]:
                break  # aggregation stalled
            levels.append(level)
            current = level.coarse_matrix
        self._levels = levels
        self._coarse_solver = splu(current.tocsc())
        self._coarse_n = current.shape[0]
        # Setup cost: one Galerkin triple product per level.
        for level in levels:
            self._exec.run(
                KernelCost(
                    "amg_setup_level",
                    flops=4.0 * level.matrix.nnz,
                    bytes=8.0 * level.matrix.nnz * 12,
                    launches=6,
                )
            )

    @property
    def num_levels(self) -> int:
        """Number of fine levels (excluding the direct coarsest solve)."""
        return len(self._levels)

    @property
    def level_sizes(self) -> list:
        return [lvl.matrix.shape[0] for lvl in self._levels] + [self._coarse_n]

    # ------------------------------------------------------------------
    def _smooth(self, level: _Level, rhs, x):
        """One damped-Jacobi sweep: x += omega D^-1 (rhs - A x)."""
        residual = rhs - level.matrix @ x
        return x + level.inv_diag[:, None] * residual

    def _vcycle(self, depth: int, rhs: np.ndarray) -> np.ndarray:
        if depth == len(self._levels):
            return self._coarse_solver.solve(rhs)
        level = self._levels[depth]
        x = np.zeros_like(rhs)
        for _ in range(self._pre_smooth):
            x = self._smooth(level, rhs, x)
            self._record_smooth(level, rhs.shape[1])
        residual = rhs - level.matrix @ x
        self._record_spmv(level, rhs.shape[1])
        coarse_rhs = level.prolongation.T @ residual
        self._record_transfer(level, rhs.shape[1])
        correction = self._vcycle(depth + 1, coarse_rhs)
        x = x + level.prolongation @ correction
        self._record_transfer(level, rhs.shape[1])
        for _ in range(self._post_smooth):
            x = self._smooth(level, rhs, x)
            self._record_smooth(level, rhs.shape[1])
        return x

    def _record_spmv(self, level: _Level, num_rhs: int) -> None:
        self._exec.run(
            spmv_cost(
                "csr", level.matrix.shape[0], level.matrix.shape[1],
                level.matrix.nnz, 8, 4, num_rhs=num_rhs,
            )
        )

    def _record_smooth(self, level: _Level, num_rhs: int) -> None:
        self._record_spmv(level, num_rhs)
        self._exec.run(
            blas1_cost("jacobi_smooth", level.matrix.shape[0] * num_rhs, 8, 4)
        )

    def _record_transfer(self, level: _Level, num_rhs: int) -> None:
        self._exec.run(
            spmv_cost(
                "csr", level.prolongation.shape[1],
                level.prolongation.shape[0], level.prolongation.nnz,
                8, 4, num_rhs=num_rhs,
            )
        )

    # ------------------------------------------------------------------
    def _apply_impl(self, b: Dense, x: Dense) -> None:
        result = self._vcycle(0, b._data.astype(np.float64))
        np.copyto(x._data, result.astype(x.dtype, copy=False))

    def _apply_advanced_impl(self, alpha, b: Dense, beta, x: Dense) -> None:
        from repro.ginkgo.matrix.dense import _scalar_value

        a = _scalar_value(alpha)
        bt = _scalar_value(beta)
        result = self._vcycle(0, b._data.astype(np.float64))
        x._data *= x.dtype.type(bt)
        x._data += x.dtype.type(a) * result.astype(x.dtype, copy=False)


class Pgm(LinOpFactory):
    """Aggregation-AMG factory (one V-cycle per apply).

    Args:
        exec_: Executor.
        max_levels: Hierarchy depth cap (default 10).
        coarse_size: Stop coarsening below this many rows (default 64).
        smoother_relaxation: Damped-Jacobi omega (default 2/3).
        pre_smoother_steps / post_smoother_steps: Sweeps per cycle leg.
    """

    def __init__(
        self,
        exec_,
        max_levels: int = 10,
        coarse_size: int = 64,
        smoother_relaxation: float = 2.0 / 3.0,
        pre_smoother_steps: int = 1,
        post_smoother_steps: int = 1,
    ) -> None:
        super().__init__(exec_)
        if max_levels < 1:
            raise GinkgoError(f"max_levels must be >= 1, got {max_levels}")
        if coarse_size < 1:
            raise GinkgoError(f"coarse_size must be >= 1, got {coarse_size}")
        self.max_levels = int(max_levels)
        self.coarse_size = int(coarse_size)
        self.smoother_relaxation = float(smoother_relaxation)
        self.pre_smoother_steps = int(pre_smoother_steps)
        self.post_smoother_steps = int(post_smoother_steps)

    def generate(self, matrix) -> MultigridOperator:
        return MultigridOperator(self, matrix)
