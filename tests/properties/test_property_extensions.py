"""Property-based tests for the extension modules (hypothesis)."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.ndimage import correlate

from repro.ginkgo.executor import ReferenceExecutor
from repro.ginkgo.matrix.csr import Csr
from repro.ginkgo.matrix.stencil import StencilOp, convolution_matrix
from repro.ginkgo.multigrid import (
    pairwise_aggregation,
    prolongation_from_aggregates,
)
from repro.ginkgo.reorder import bandwidth, permute, rcm
from repro.ginkgo.scaling import equilibrate
from repro.suitesparse.generators import poisson_2d

REF = ReferenceExecutor.create(noisy=False)


@st.composite
def odd_kernels(draw):
    kh = draw(st.sampled_from([1, 3, 5]))
    kw = draw(st.sampled_from([1, 3, 5]))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).standard_normal((kh, kw))


@st.composite
def square_matrices(draw, max_dim: int = 25):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    density = draw(st.floats(min_value=0.05, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    mat = sp.random(
        n, n, density=density, format="csr",
        random_state=np.random.default_rng(seed),
    )
    row_sums = np.asarray(np.abs(mat).sum(axis=1)).ravel()
    return (mat + sp.diags(row_sums + 1.0)).tocsr()


class TestStencilProperties:
    @given(
        kernel=odd_kernels(),
        height=st.integers(3, 12),
        width=st.integers(3, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_for_random_kernels(self, kernel, height, width,
                                              seed):
        image = np.random.default_rng(seed).standard_normal((height, width))
        op = StencilOp(REF, (height, width), kernel)
        expect = correlate(image, kernel, mode="constant")
        np.testing.assert_allclose(op.apply_image(image), expect, atol=1e-10)

    @given(kernel=odd_kernels(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, kernel, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        op = StencilOp(REF, (8, 8), kernel)
        combined = op.apply_image(2.0 * a + 3.0 * b)
        separate = 2.0 * op.apply_image(a) + 3.0 * op.apply_image(b)
        np.testing.assert_allclose(combined, separate, atol=1e-9)

    @given(
        height=st.integers(2, 10),
        width=st.integers(2, 10),
    )
    @settings(max_examples=20, deadline=None)
    def test_identity_kernel_is_identity_matrix(self, height, width):
        mat = convolution_matrix((height, width), np.array([[1.0]]))
        np.testing.assert_array_equal(
            mat.toarray(), np.eye(height * width)
        )


class TestReorderProperties:
    @given(mat=square_matrices())
    @settings(max_examples=25, deadline=None)
    def test_rcm_never_increases_bandwidth_much(self, mat):
        # RCM produces a valid permutation whose symmetric application
        # preserves the spectrum (same matrix up to relabeling).
        engine = Csr.from_scipy(REF, mat)
        perm = rcm(engine)
        reordered = permute(engine, perm)
        assert reordered.nnz == engine.nnz
        # Eigenvalue multiset preserved (permutation similarity).
        original = np.sort(np.linalg.eigvals(mat.toarray()).real)
        after = np.sort(
            np.linalg.eigvals(reordered.to_scipy().toarray()).real
        )
        np.testing.assert_allclose(after, original, atol=1e-8)

    @given(mat=square_matrices())
    @settings(max_examples=25, deadline=None)
    def test_permutation_is_bijection(self, mat):
        engine = Csr.from_scipy(REF, mat)
        order = rcm(engine).permutation
        assert np.array_equal(np.sort(order), np.arange(mat.shape[0]))


class TestEquilibrationProperties:
    @given(
        mat=square_matrices(),
        exponent=st.floats(min_value=0.0, max_value=6.0),
        sweeps=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_scaled_entries_bounded(self, mat, exponent, sweeps):
        n = mat.shape[0]
        skew = sp.diags(np.logspace(-exponent, exponent, n))
        engine = Csr.from_scipy(REF, (skew @ mat).tocsr())
        eq = equilibrate(engine, iterations=sweeps)
        scaled = abs(eq.scaled_matrix.to_scipy())
        if scaled.nnz:
            assert scaled.max() < 50.0

    @given(mat=square_matrices(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scaling_identity(self, mat, seed):
        # D_r A D_c must equal the reported scaled matrix exactly.
        engine = Csr.from_scipy(REF, mat)
        eq = equilibrate(engine)
        dr = np.asarray(eq.row_scale.values)
        dc = np.asarray(eq.col_scale.values)
        rebuilt = sp.diags(dr) @ mat @ sp.diags(dc)
        np.testing.assert_allclose(
            eq.scaled_matrix.to_scipy().toarray(),
            rebuilt.toarray(),
            atol=1e-12,
        )


def _aggregation_oracle(matrix):
    """Pairwise aggregation with the O(n^2) pass 2 it used to run.

    Pass 2 recounts each node's aggregate with ``np.count_nonzero`` over
    the whole aggregate vector; kept as the reference for the O(nnz)
    size-tracking pass.
    """
    n = matrix.shape[0]
    sym = (abs(matrix) + abs(matrix).T).tocsr()
    sym.setdiag(0.0)
    sym.eliminate_zeros()
    aggregate = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for node in range(n):
        if aggregate[node] >= 0:
            continue
        start, stop = sym.indptr[node], sym.indptr[node + 1]
        best, best_weight = -1, 0.0
        for neighbour, weight in zip(
            sym.indices[start:stop], sym.data[start:stop]
        ):
            if aggregate[neighbour] < 0 and weight > best_weight:
                best, best_weight = int(neighbour), float(weight)
        aggregate[node] = next_id
        if best >= 0:
            aggregate[best] = next_id
        next_id += 1
    for node in range(n):
        start, stop = sym.indptr[node], sym.indptr[node + 1]
        if stop - start == 0:
            continue
        if np.count_nonzero(aggregate == aggregate[node]) == 1:
            best = sym.indices[start:stop][np.argmax(sym.data[start:stop])]
            aggregate[node] = aggregate[best]
    return np.unique(aggregate, return_inverse=True)[1].astype(np.int64)


def _poisson_with_isolated_nodes(nx, isolated):
    """2D Poisson with the given nodes decoupled (diagonal entry only)."""
    mat = poisson_2d(nx).tolil()
    for node in isolated:
        mat[node, :] = 0.0
        mat[:, node] = 0.0
        mat[node, node] = 4.0
    return mat.tocsr()


class TestAggregationProperties:
    @given(mat=square_matrices())
    @settings(max_examples=50, deadline=None)
    def test_matches_quadratic_pass_two(self, mat):
        assert np.array_equal(
            pairwise_aggregation(mat), _aggregation_oracle(mat)
        )

    def test_matches_quadratic_pass_two_with_isolated_nodes(self):
        # Isolated nodes stay singletons; their neighbours lose a partner
        # and some end up alone after pass 1, so pass 2 moves them.
        mat = _poisson_with_isolated_nodes(12, [0, 13, 14, 50, 77, 143])
        agg = pairwise_aggregation(mat)
        assert np.array_equal(agg, _aggregation_oracle(mat))
        for node in (0, 13, 14, 50, 77, 143):
            assert np.count_nonzero(agg == agg[node]) == 1

    def test_later_singletons_see_earlier_moves(self):
        # NaN edges are never matched in pass 1, so nodes 1 and 3 both end
        # up alone.  In pass 2 node 1 joins node 3 (argmax picks the NaN),
        # and node 3 must then see an aggregate of two and stay, instead
        # of following its own first NaN edge into node 0's pair.
        nan = np.nan
        mat = sp.csr_matrix(
            np.array(
                [
                    [4.0, 1.0, 2.0, nan],
                    [1.0, 4.0, 1.0, nan],
                    [2.0, 1.0, 4.0, 0.0],
                    [nan, nan, 0.0, 4.0],
                ]
            )
        )
        agg = pairwise_aggregation(mat)
        assert np.array_equal(agg, _aggregation_oracle(mat))
        assert np.array_equal(agg, [0, 1, 0, 1])

    @given(mat=square_matrices())
    @settings(max_examples=25, deadline=None)
    def test_aggregation_is_total_and_compact(self, mat):
        agg = pairwise_aggregation(mat)
        assert agg.size == mat.shape[0]
        assert agg.min() >= 0
        # Ids are contiguous 0..max.
        assert set(np.unique(agg)) == set(range(agg.max() + 1))

    @given(mat=square_matrices())
    @settings(max_examples=25, deadline=None)
    def test_galerkin_product_preserves_row_sums(self, mat):
        # For the piecewise-constant P: (P^T A P) 1 = P^T (A 1), so total
        # row-sum mass is conserved across the coarse transfer.
        agg = pairwise_aggregation(mat)
        p = prolongation_from_aggregates(agg)
        coarse = (p.T @ mat @ p).tocsr()
        fine_mass = mat.sum()
        np.testing.assert_allclose(coarse.sum(), fine_mass, rtol=1e-10)
