"""Fused solver step kernels.

Ginkgo implements each solver's vector-update tail as one fused device
kernel (``cg::step_1``, ``cgs::step_2``, ...) rather than a chain of BLAS-1
calls — a key reason its Krylov iterations launch far fewer kernels than
Python-dispatched frameworks (the effect measured in the paper's Fig. 3c).

These helpers perform the update numerically on the operands' buffers and
record exactly one kernel with the combined byte traffic.  The CG steps go
through the vector type's elementwise entry point, so the same helper runs
on a ``Dense`` and, rank-partitioned, on a distributed ``Vector``.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.matrix.dense import Dense
from repro.perfmodel import blas1_cost


def _bc(coef, dtype):
    """Broadcastable coefficient: scalar or (1, k) row of per-column values."""
    arr = np.asarray(coef, dtype=dtype)
    return arr if arr.ndim == 0 else arr.reshape(1, -1)


def record_fused(exec_, name: str, length: int, value_bytes: int, num_vectors: int) -> None:
    """Record one fused kernel touching ``num_vectors`` vector operands."""
    exec_.run(blas1_cost(name, length, value_bytes, num_vectors))


def cg_step_1(p, z, beta) -> None:
    """Fused ``p = z + beta * p`` (one kernel, 3 vector operands)."""
    b = _bc(beta, p.dtype)
    pd, zd = p._data, z._data

    def op(lo, hi):
        # In place on a local view: ``pd[lo:hi] *= b`` would also copy the
        # result back through __setitem__.
        view = pd[lo:hi]
        view *= b
        view += zd[lo:hi]

    p._elementwise("cg_step_1", op, 3)


def cg_step_2(x, r, p, q, alpha) -> None:
    """Fused ``x += alpha p ; r -= alpha q`` (one kernel, 6 operands)."""
    a = _bc(alpha, x.dtype)
    xd, rd, pd, qd = x._data, r._data, p._data, q._data

    def op(lo, hi):
        x_view, r_view = xd[lo:hi], rd[lo:hi]
        x_view += a * pd[lo:hi]
        r_view -= a * qd[lo:hi]

    x._elementwise("cg_step_2", op, 6)
    r.mark_modified()


def cgs_step_1(u: Dense, p: Dense, r: Dense, q: Dense, beta) -> None:
    """Fused ``u = r + beta q ; p = u + beta (q + beta p)`` (one kernel)."""
    b = _bc(beta, u.dtype)
    u._data[...] = r._data + b * q._data
    p._data[...] = u._data + b * (q._data + b * p._data)
    record_fused(u.executor, "cgs_step_1", u.size.num_elements, u.value_bytes, 6)


def cgs_step_2(q: Dense, t: Dense, u: Dense, v: Dense, alpha) -> None:
    """Fused ``q = u - alpha v ; t = u + q`` (one kernel)."""
    a = _bc(alpha, q.dtype)
    q._data[...] = u._data - a * v._data
    t._data[...] = u._data + q._data
    record_fused(q.executor, "cgs_step_2", q.size.num_elements, q.value_bytes, 5)


def cgs_step_3(x: Dense, r: Dense, u_hat: Dense, w: Dense, alpha) -> None:
    """Fused ``x += alpha u_hat ; r -= alpha w`` (one kernel)."""
    a = _bc(alpha, x.dtype)
    x._data += a * u_hat._data
    r._data -= a * w._data
    record_fused(x.executor, "cgs_step_3", x.size.num_elements, x.value_bytes, 6)


def gmres_multidot(basis_block, w: Dense, count: int):
    """Fused multi-dot: coefficients of ``w`` against ``count`` basis vectors.

    One batched reduction kernel (plus its finalisation pass), as in
    Ginkgo's ``gmres::multi_dot``.  Evaluated as an einsum contraction so
    the per-system reduction order matches the batched lockstep kernels
    bit-for-bit (BLAS gemv blocks its accumulation differently).  The
    vector type then combines the result globally (an all-reduce for a
    distributed ``Vector``, nothing for ``Dense``).
    """
    coeffs = np.einsum("ij,i->j", basis_block[:, :count], w._data[:, 0])
    w.executor.run(
        blas1_cost(
            "gmres_multidot",
            w.size.rows * count,
            w.value_bytes,
            2,
        )
    )
    return w._all_reduce(coeffs, "all_reduce_multidot")


def gmres_update(basis_block, w: Dense, coeffs, count: int) -> None:
    """Fused rank-``count`` update ``w -= V[:, :count] @ coeffs``."""
    w._data[:, 0] -= np.einsum("ij,j->i", basis_block[:, :count], coeffs)
    record_fused(
        w.executor, "gmres_update", w.size.rows * count, w.value_bytes, 2
    )
