"""Conjugate Gradient (``gko::solver::Cg``).

The classical preconditioned CG for symmetric positive-definite systems,
with per-column coefficients so multiple right-hand sides converge
independently in one apply.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.solver.base import IterativeSolver, SolverFactory


def _safe_divide(num, den):
    """Elementwise num/den with 0 where den == 0 (breakdown guard)."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros_like(num)
    mask = den != 0
    np.divide(num, den, out=out, where=mask)
    return out


class CgSolver(IterativeSolver):
    """Generated CG operator (fused step kernels, as in Ginkgo)."""

    def _iterate(self, A, M, b, x, r, monitor) -> None:
        from repro.ginkgo.lazy import fused_step
        from repro.ginkgo.solver.kernels import cg_step_1, cg_step_2

        exec_ = self._exec
        z = self._buffer("cg.z", r)
        M.apply(r, z)
        p = self._buffer("cg.p", z, copy=True)
        q = self._buffer("cg.q", r)

        def step(state, monitor) -> bool:
            iteration, rz = state["iteration"], state["rz"]
            A.apply(p, q)
            pq = p.compute_dot(q)
            alpha = _safe_divide(rz, pq)
            # cg_step_2 is one fused kernel standing in for the two eager
            # axpys (x += alpha p, r -= alpha q) — mark it as a fused
            # region so attribution counts the amortisation.
            with fused_step(exec_, "cg::step_2", ops_replaced=2):
                cg_step_2(x, r, p, q, alpha)
            res_norm = r.compute_norm2()
            if monitor(iteration, res_norm):
                return True
            M.apply(r, z)
            rz_new = r.compute_dot(z)
            beta = _safe_divide(rz_new, rz)
            # cg_step_1 fuses the scale+add of p = z + beta p.
            with fused_step(exec_, "cg::step_1", ops_replaced=2):
                cg_step_1(p, z, beta)
            state["iteration"], state["rz"] = iteration + 1, rz_new
            return False

        # "iteration" is the one the next step runs; x, r, p (with rz)
        # are the whole state — z and q are recomputed each step.
        self._run(
            step, {"iteration": 1, "rz": r.compute_dot(z)}, monitor,
            x=x, r=r, p=p,
        )


class Cg(SolverFactory):
    """CG factory: ``Cg(exec, criteria=..., preconditioner=...)``."""

    solver_class = CgSolver
    parameter_names = ()
