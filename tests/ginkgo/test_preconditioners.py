"""Preconditioner and factorization tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ginkgo import BadDimension
from repro.ginkgo.accessor import (
    arithmetic_dtype_for,
    resolve_storage_dtype,
    select_block_precision,
)
from repro.ginkgo.exceptions import GinkgoError
from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.factorization import ic0, ilu0, lu
from repro.ginkgo.matrix import Csr, Dense
from repro.ginkgo.preconditioner import Ic, Ilu, Isai, Jacobi
from repro.ginkgo.solver import Cg, Gmres
from repro.ginkgo.stop import Iteration, ResidualNorm
from repro.perfmodel import factorization_cost
from repro.suitesparse.generators import poisson_2d

CRIT = Iteration(500) | ResidualNorm(1e-10)


def _iterations_with(ref, matrix, precond_factory, solver_cls=Cg):
    mtx = Csr.from_scipy(ref, matrix)
    solver = solver_cls(
        ref, criteria=CRIT, preconditioner=precond_factory
    ).generate(mtx)
    b = Dense.full(ref, (matrix.shape[0], 1), 1.0, np.float64)
    x = Dense.zeros(ref, (matrix.shape[0], 1), np.float64)
    solver.apply(b, x)
    assert solver.converged
    return solver.num_iterations, np.asarray(x)


class TestJacobi:
    def test_scalar_jacobi_is_diagonal_inverse(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        op = Jacobi(ref).generate(mtx)
        r = rng.standard_normal((spd_small.shape[0], 1))
        z = Dense.zeros(ref, r.shape, np.float64)
        op.apply(Dense(ref, r), z)
        np.testing.assert_allclose(
            np.asarray(z), r / spd_small.diagonal()[:, None]
        )

    def test_block_jacobi_inverts_blocks(self, ref):
        blocks = sp.block_diag(
            [np.array([[4.0, 1.0], [1.0, 3.0]])] * 5, format="csr"
        )
        mtx = Csr.from_scipy(ref, blocks)
        op = Jacobi(ref, max_block_size=2).generate(mtx)
        b = Dense.full(ref, (10, 1), 1.0, np.float64)
        z = Dense.zeros(ref, (10, 1), np.float64)
        op.apply(b, z)
        expect = np.linalg.solve(blocks.toarray(), np.ones((10, 1)))
        np.testing.assert_allclose(np.asarray(z), expect, atol=1e-12)

    def test_block_jacobi_accelerates_cg(self, ref):
        # Strongly block-structured problem: block Jacobi needs fewer
        # iterations than scalar Jacobi.
        rng = np.random.default_rng(42)
        blocks = []
        for _ in range(15):
            q = rng.standard_normal((4, 4))
            blocks.append(q @ q.T + 4 * np.eye(4))
        matrix = sp.block_diag(blocks, format="csr") + 0.01 * sp.eye(60)
        scalar_iters, _ = _iterations_with(ref, matrix.tocsr(), Jacobi(ref))
        block_iters, _ = _iterations_with(
            ref, matrix.tocsr(), Jacobi(ref, max_block_size=4)
        )
        assert block_iters < scalar_iters

    def test_invalid_block_size(self, ref):
        with pytest.raises(GinkgoError):
            Jacobi(ref, max_block_size=0)

    def test_requires_square(self, ref, rect_small):
        mtx = Csr.from_scipy(ref, rect_small)
        with pytest.raises(BadDimension):
            Jacobi(ref).generate(mtx)

    def test_zero_diagonal_handled(self, ref):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 2.0]]))
        op = Jacobi(ref).generate(Csr.from_scipy(ref, mat))
        z = Dense.zeros(ref, (2, 1), np.float64)
        op.apply(Dense.full(ref, (2, 1), 1.0, np.float64), z)
        # Zero diagonal entries are skipped (z stays 0 there).
        assert np.asarray(z)[0, 0] == 0.0


class TestIluIc:
    def test_ilu_reduces_gmres_iterations(self, ref, general_small):
        plain, _ = _iterations_with(ref, general_small, None, Gmres)
        precond, _ = _iterations_with(ref, general_small, Ilu(ref), Gmres)
        assert precond <= plain

    def test_ic_reduces_cg_iterations(self, ref, spd_small):
        plain, _ = _iterations_with(ref, spd_small, None)
        precond, _ = _iterations_with(ref, spd_small, Ic(ref))
        assert precond < plain

    def test_ilu_apply_is_two_triangular_solves(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        op = Ilu(ref).generate(mtx)
        r = rng.standard_normal((spd_small.shape[0], 1))
        z = Dense.zeros(ref, r.shape, np.float64)
        op.apply(Dense(ref, r), z)
        l_np = op.factorization.l_factor.to_scipy().toarray()
        u_np = op.factorization.u_factor.to_scipy().toarray()
        expect = np.linalg.solve(u_np, np.linalg.solve(l_np, r))
        np.testing.assert_allclose(np.asarray(z), expect, atol=1e-10)


class TestIsai:
    def test_isai_approximates_inverse(self, ref, spd_small, rng):
        mtx = Csr.from_scipy(ref, spd_small)
        op = Isai(ref).generate(mtx)
        w = op.approximate_inverse.to_scipy()
        product = (w @ spd_small).toarray()
        # On the pattern, W A should be close to identity.
        diag_err = np.abs(np.diag(product) - 1.0).max()
        assert diag_err < 0.2

    def test_isai_accelerates_cg(self, ref, spd_small):
        plain, _ = _iterations_with(ref, spd_small, None)
        precond, _ = _iterations_with(ref, spd_small, Isai(ref))
        assert precond < plain

    def test_invalid_sparsity_power(self, ref):
        with pytest.raises(GinkgoError):
            Isai(ref, sparsity_power=0)


def _scaled_poisson(nx, seed):
    """SPD ``D A D`` on an nx x nx Poisson grid, D positive and random."""
    scale = np.exp(np.random.default_rng(seed).uniform(-0.5, 0.5, nx * nx))
    return (sp.diags(scale) @ poisson_2d(nx) @ sp.diags(scale)).tocsr()


def _isai_oracle(exec_, mtx, sparsity_power=1, storage_precision=None):
    """ISAI set-up as one dense solve per row, with per-row SciPy slicing.

    This is the loop the stacked set-up replaced, kept as the reference:
    same pattern, same local systems, same inverse and the same charge.
    """
    working = np.dtype(mtx.dtype)
    a = mtx._scipy_view().tocsr().astype(arithmetic_dtype_for(working))
    pattern = a.copy()
    for _ in range(sparsity_power - 1):
        pattern = (pattern @ a).tocsr()
    pattern.sort_indices()
    n = a.shape[0]
    a_csc = a.tocsc()
    rows, cols, vals = [], [], []
    for i in range(n):
        j_set = pattern.indices[pattern.indptr[i]:pattern.indptr[i + 1]]
        if j_set.size == 0:
            continue
        sub = a_csc[:, j_set][j_set, :].toarray()
        rhs = np.zeros(j_set.size, dtype=a.dtype)
        local = np.searchsorted(j_set, i)
        if local < j_set.size and j_set[local] == i:
            rhs[local] = 1.0
        try:
            w = np.linalg.solve(sub.T, rhs)
        except np.linalg.LinAlgError as exc:
            raise GinkgoError(f"ISAI: singular local system in row {i}") from exc
        rows.extend([i] * j_set.size)
        cols.extend(j_set.tolist())
        vals.extend(w.tolist())
    inverse = Csr.from_scipy(
        exec_, sp.csr_matrix((vals, (rows, cols)), shape=(n, n)),
        value_dtype=resolve_storage_dtype(storage_precision, working),
        index_dtype=mtx.index_dtype,
    )
    exec_.run(
        factorization_cost(
            "ilu0", n, mtx.nnz, mtx.value_bytes, mtx.index_bytes
        ).scaled(2.0)
    )
    return inverse


def _with_empty_row(matrix, row):
    """``matrix`` with row and column ``row`` removed from the pattern."""
    keep = np.ones(matrix.shape[0])
    keep[row] = 0.0
    out = (sp.diags(keep) @ matrix @ sp.diags(keep)).tocsr()
    out.eliminate_zeros()
    return out


_NONSYMMETRIC = (
    _scaled_poisson(10, 4)
    + sp.random(100, 100, density=0.02, random_state=4)
).tocsr()

ISAI_IDENTITY_CASES = {
    "power1": (_scaled_poisson(12, 1), np.float64, {}),
    "power2": (_scaled_poisson(12, 2), np.float64, {"sparsity_power": 2}),
    "power3": (_scaled_poisson(9, 3), np.float64, {"sparsity_power": 3}),
    "float32_system": (_scaled_poisson(12, 5), np.float32, {}),
    "float_storage": (
        _scaled_poisson(12, 6), np.float64, {"storage_precision": "float"}
    ),
    "half_storage": (
        _scaled_poisson(12, 7), np.float64, {"storage_precision": "half"}
    ),
    "nonsymmetric": (_NONSYMMETRIC, np.float64, {"sparsity_power": 2}),
    "empty_row": (_with_empty_row(_scaled_poisson(8, 8), 5), np.float64, {}),
    "one_by_one": (sp.csr_matrix(np.array([[4.0]])), np.float64, {}),
}


class TestStackedIsaiSetup:
    """The stacked ISAI set-up is byte-identical to the per-row loop."""

    @pytest.mark.parametrize("case", sorted(ISAI_IDENTITY_CASES))
    def test_matches_per_row_oracle(self, case):
        matrix, dtype, options = ISAI_IDENTITY_CASES[case]
        results = []
        for build in (
            lambda dev, mtx: Isai(dev, **options).generate(mtx)
            .approximate_inverse,
            lambda dev, mtx: _isai_oracle(dev, mtx, **options),
        ):
            dev = ReferenceExecutor.create(noisy=False)
            mtx = Csr.from_scipy(dev, matrix.astype(dtype))
            inverse = build(dev, mtx)
            results.append((inverse, dev.clock.now))
        (new, new_clock), (old, old_clock) = results
        for name in ("row_ptrs", "col_idxs", "values"):
            got, want = getattr(new, name), getattr(old, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert new_clock == old_clock

    @pytest.mark.parametrize(
        "dense, row",
        [
            # Row 3's system is singular; the others are not.
            ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], 3),
            # Every system is singular.  Row 3's (size 2) is stacked
            # before row 0's (size 3), yet row 0 is the one named.
            ([[1, 1, 1, 0], [1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]], 0),
        ],
    )
    def test_singular_local_system_names_first_row(self, ref, dense, row):
        matrix = sp.csr_matrix(np.array(dense, dtype=np.float64))
        mtx = Csr.from_scipy(ref, matrix)
        message = f"ISAI: singular local system in row {row}"
        with pytest.raises(GinkgoError, match=message):
            _isai_oracle(ReferenceExecutor.create(noisy=False), mtx)
        with pytest.raises(GinkgoError, match=message):
            Isai(ref).generate(mtx)


def _block_inverse_oracle(matrix, bs, storage_precision, dtype):
    """Per-block ``np.linalg.inv`` and storage picks, block by block."""
    working = np.dtype(dtype)
    a = matrix.astype(arithmetic_dtype_for(working)).tocsr()
    n = a.shape[0]
    expected = np.zeros((n, n), dtype=a.dtype)
    storage = []
    for start in range(0, n, bs):
        stop = min(start + bs, n)
        block = a[start:stop, start:stop].toarray()
        inv = np.linalg.inv(block)
        if storage_precision == "adaptive":
            cond = float(np.linalg.norm(block, 1) * np.linalg.norm(inv, 1))
            dt = select_block_precision(cond, working)
        else:
            dt = resolve_storage_dtype(storage_precision, working)
        storage.append(dt)
        expected[start:stop, start:stop] = inv.astype(dt).astype(a.dtype)
    return expected, tuple(storage)


class TestStackedBlockJacobi:
    """Stacked block inverses equal per-block ``np.linalg.inv``."""

    @pytest.mark.parametrize(
        "nx, bs, storage_precision, dtype",
        [
            (10, 4, None, np.float64),  # 100 % 4 == 0
            (10, 8, None, np.float64),  # ragged last block of 4 rows
            (9, 5, None, np.float32),  # ragged, float32 system
            (9, 8, "float", np.float64),
            (10, 3, "adaptive", np.float64),
            (9, 6, "adaptive", np.float32),
        ],
    )
    def test_matches_per_block_inverse(
        self, ref, nx, bs, storage_precision, dtype
    ):
        # Row scalings of 1, 10^1.5 and 10^4 per row step, by block,
        # spread the block condition numbers over all three adaptive
        # storage precisions.
        rows = np.arange(nx * nx)
        steps = np.array([0.0, 1.5, 4.0])[(rows // bs) % 3]
        scale = sp.diags(10.0 ** (steps * (rows % bs)))
        matrix = (scale @ _scaled_poisson(nx, bs)).tocsr()
        expected, storage = _block_inverse_oracle(
            matrix, bs, storage_precision, dtype
        )
        mtx = Csr.from_scipy(ref, matrix.astype(dtype))
        op = Jacobi(
            ref, max_block_size=bs, storage_precision=storage_precision
        ).generate(mtx)
        assert op.storage_dtypes == storage
        if storage_precision == "adaptive":
            assert len(set(storage)) > 1
        # Applying to the identity reads the block inverses back exactly.
        n = nx * nx
        eye = Dense(ref, np.eye(n, dtype=dtype))
        out = Dense.zeros(ref, (n, n), dtype)
        op.apply(eye, out)
        assert np.array_equal(np.asarray(out), expected.astype(dtype))

    def test_adaptive_picks_near_thresholds(self, ref):
        # Block condition numbers straddle the half/float and float/double
        # cut-offs, where any other estimate (a 2-norm, a different
        # rounding) would flip some picks.
        rng = np.random.default_rng(3)
        bs = 4
        blocks = []
        for cond in np.geomspace(30.0, 3e6, 60):
            u, _ = np.linalg.qr(rng.standard_normal((bs, bs)))
            v, _ = np.linalg.qr(rng.standard_normal((bs, bs)))
            blocks.append(u @ np.diag(np.geomspace(1.0, 1.0 / cond, bs)) @ v.T)
        matrix = sp.block_diag(blocks, format="csr")
        _, storage = _block_inverse_oracle(matrix, bs, "adaptive", np.float64)
        op = Jacobi(
            ref, max_block_size=bs, storage_precision="adaptive"
        ).generate(Csr.from_scipy(ref, matrix))
        assert op.storage_dtypes == storage

    def test_singular_block_names_first_singular_block(self, ref):
        # Blocks [4:8) and the ragged [8:10) are singular; the ragged
        # block is inverted first (smaller size group), yet [4:8) is named.
        dense = np.eye(10)
        dense[4:8, 4:8] = 1.0
        dense[8:10, 8:10] = 1.0
        mtx = Csr.from_scipy(ref, sp.csr_matrix(dense))
        with pytest.raises(
            GinkgoError, match=r"Jacobi block \[4:8\) is singular"
        ):
            Jacobi(ref, max_block_size=4).generate(mtx)


class TestIlu0Factorization:
    def test_product_matches_on_pattern(self, ref, general_small):
        mtx = Csr.from_scipy(ref, general_small)
        fact = ilu0(mtx)
        l_np = fact.l_factor.to_scipy()
        u_np = fact.u_factor.to_scipy()
        product = (l_np @ u_np).toarray()
        a_np = general_small.toarray()
        mask = a_np != 0
        # ILU(0): L U equals A exactly on A's sparsity pattern.
        np.testing.assert_allclose(product[mask], a_np[mask], atol=1e-9)

    def test_l_unit_diagonal(self, ref, general_small):
        fact = ilu0(Csr.from_scipy(ref, general_small))
        np.testing.assert_allclose(
            fact.l_factor.to_scipy().diagonal(), 1.0
        )

    def test_factors_are_triangular(self, ref, general_small):
        fact = ilu0(Csr.from_scipy(ref, general_small))
        l_np = fact.l_factor.to_scipy().toarray()
        u_np = fact.u_factor.to_scipy().toarray()
        assert np.allclose(l_np, np.tril(l_np))
        assert np.allclose(u_np, np.triu(u_np))

    def test_dense_pattern_reproduces_lu(self, ref):
        # On a fully dense matrix, ILU(0) is the complete LU.
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
        fact = ilu0(Csr.from_scipy(ref, sp.csr_matrix(a)))
        product = (
            fact.l_factor.to_scipy() @ fact.u_factor.to_scipy()
        ).toarray()
        np.testing.assert_allclose(product, a, atol=1e-10)

    def test_missing_diagonal_raises(self, ref):
        mat = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))
        mat.eliminate_zeros()
        with pytest.raises(GinkgoError, match="diagonal"):
            ilu0(Csr.from_scipy(ref, mat))

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            ilu0(Csr.from_scipy(ref, rect_small))


class TestIc0Factorization:
    def test_llt_matches_on_pattern(self, ref, spd_small):
        fact = ic0(Csr.from_scipy(ref, spd_small))
        l_np = fact.l_factor.to_scipy()
        product = (l_np @ l_np.T).toarray()
        a_np = spd_small.toarray()
        mask = np.tril(a_np) != 0
        np.testing.assert_allclose(
            np.tril(product)[mask], np.tril(a_np)[mask], atol=1e-9
        )

    def test_lt_factor_is_transpose(self, ref, spd_small):
        fact = ic0(Csr.from_scipy(ref, spd_small))
        np.testing.assert_allclose(
            fact.lt_factor.to_scipy().toarray(),
            fact.l_factor.to_scipy().T.toarray(),
        )

    def test_indefinite_matrix_raises(self, ref):
        mat = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(GinkgoError, match="positive"):
            ic0(Csr.from_scipy(ref, mat))


class TestFullLu:
    def test_reconstructs_permuted_matrix(self, ref, general_small):
        fact = lu(Csr.from_scipy(ref, general_small))
        l_np = fact.l_factor.to_scipy().toarray()
        u_np = fact.u_factor.to_scipy().toarray()
        pr = fact.row_permutation.permutation
        pc = fact.col_permutation.permutation
        a_np = general_small.toarray()
        # SuperLU: Pr A Pc = L U, i.e. A[argsort(perm_r)][:, argsort(perm_c)].
        permuted = a_np[np.argsort(pr), :][:, np.argsort(pc)]
        np.testing.assert_allclose(l_np @ u_np, permuted, atol=1e-9)

    def test_requires_square(self, ref, rect_small):
        with pytest.raises(BadDimension):
            lu(Csr.from_scipy(ref, rect_small))
