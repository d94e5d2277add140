"""Stacked small dense solves for preconditioner set-up.

ISAI solves one small dense system per row pattern and block-Jacobi
inverts one small diagonal block per block.  Ginkgo runs each as one
batched kernel; :func:`stacked_local_solves` is the NumPy counterpart.
It gathers every local block ``A[J, J]`` with one sorted-key search over
``A``'s canonical CSR (key ``row * n + col``), groups the index sets by
length (no padding, so each system is exactly the matrix a per-set loop
would build), and hands each group to one stacked ``np.linalg.solve`` or
``np.linalg.inv``.  LAPACK sees the same matrix per system either way,
so the results are byte-identical to solving the sets one by one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Systems per stacked LAPACK call.  Bounds the gathered-block temporaries
#: (``CHUNK * m * m`` values for a size-``m`` group) so set-up does not
#: raise the peak memory of large generates.
CHUNK = 512


def stacked_local_solves(a, offsets, indices, singular, rhs=None):
    """Gather ``A[J_s, J_s]`` for many index sets and solve or invert them.

    Args:
        a: Square SciPy sparse matrix.
        offsets: Index-set boundaries: set ``s`` is
            ``indices[offsets[s]:offsets[s + 1]]`` (CSR layout).  Empty
            sets are skipped.
        indices: Column indices of the sets; each set sorted, no repeats.
        singular: ``singular(s)`` builds the exception raised when set
            ``s`` is the first (lowest-numbered) singular local block.
        rhs: ``None`` inverts every block.  Otherwise ``rhs(ids, sets)``
            returns the ``(k, m, 1)`` right-hand sides of a chunk.

    Yields:
        ``(ids, sets, blocks, out)`` per chunk of equal-size sets, in
        ascending size and then set order: the set numbers ``(k,)``, their
        indices ``(k, m)``, the dense blocks ``(k, m, m)``, and the
        solutions ``(k, m, 1)`` or inverses ``(k, m, m)``.
    """
    a = sp.csr_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    n = a.shape[0]
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.indptr))
    keys = keys * n + a.indices
    offsets = np.asarray(offsets)
    lengths = np.diff(offsets)
    order = np.argsort(lengths, kind="stable")
    sizes, starts = np.unique(lengths[order], return_index=True)
    bounds = np.append(starts, order.size)
    failure = None
    first_singular = lengths.size
    for m, lo, hi in zip(sizes.tolist(), bounds[:-1], bounds[1:]):
        if m == 0:
            continue
        for start in range(lo, hi, CHUNK):
            ids = order[start:min(start + CHUNK, hi)]
            sets = indices[offsets[ids][:, None] + np.arange(m)]
            blocks = _gather(a, keys, sets)
            if failure is None:
                try:
                    if rhs is None:
                        out = np.linalg.inv(blocks)
                    else:
                        out = np.linalg.solve(blocks, rhs(ids, sets))
                except np.linalg.LinAlgError as exc:
                    failure = exc
                else:
                    yield ids, sets, blocks, out
                    continue
            # After the first failure, only look for the lowest singular
            # set: slogdet runs the same LU as solve/inv, so its zero sign
            # flags exactly the systems LAPACK rejects.
            bad = ids[np.linalg.slogdet(blocks)[0] == 0]
            if bad.size:
                first_singular = min(first_singular, int(bad[0]))
    if failure is not None:
        raise singular(first_singular) from failure


def _gather(a, keys, sets) -> np.ndarray:
    """Dense ``A[J, J]`` for every row of ``sets`` (absent entries zero)."""
    n = a.shape[0]
    query = sets[:, :, None].astype(np.int64) * n + sets[:, None, :]
    blocks = np.zeros(query.shape, dtype=a.dtype)
    if keys.size:
        pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        hit = keys[pos] == query
        blocks[hit] = a.data[pos[hit]]
    return blocks
