"""Accessor layer: storage precision decoupled from arithmetic precision.

Ginkgo's headline mixed-precision results (Anzt et al., *Ginkgo: A Modern
Linear Operator Algebra Framework for HPC*) come from one mechanism: an
**accessor** that separates the precision values are *stored* in from the
precision arithmetic *runs* in.  A float64 Krylov solver can then read a
float32 (or float16) preconditioner — the kernels convert on the fly at
read time, memory traffic drops with the storage width, and because SpMV
and triangular solves are bandwidth-bound the saving is a real speedup,
not an accounting trick.

This module is the pure-Python reproduction of that layer:

* :class:`ReducedPrecisionAccessor` wraps a values array, stores it at a
  configurable ``storage_dtype``, and serves reads converted to the
  arithmetic dtype.  When storage and arithmetic precision coincide the
  accessor is a zero-cost pass-through — *the same array object*, so the
  default uniform-precision path stays byte-identical to code that never
  heard of accessors.
* :func:`resolve_storage_dtype` turns a user-facing storage spec
  (``None``, ``"float"``, ``"float32"``, a numpy dtype, ...) into the
  dtype values are stored at, defaulting to the working precision.
* :func:`canonical_value_suffix` / :data:`VALUE_SUFFIX_ALIASES` are the
  **single** normalisation point for value-type spellings.  The binding
  registry names types ``half``/``float``/``double`` (C++ style); the
  config layer and the Pythonic API also accept ``float16``/``float32``/
  ``float64``/``single``.  Both :mod:`repro.bindings.dispatch` and
  :mod:`repro.ginkgo.config.validate` route through this table, so a
  spelling accepted by validation can never crash at dispatch.
* :func:`select_block_precision` is Ginkgo's adaptive block-Jacobi rule:
  each diagonal block is stored at the narrowest precision whose unit
  roundoff its condition number tolerates, never wider than the working
  precision.

This module is intentionally a leaf (numpy + exceptions only) so the
bindings, config, and preconditioner layers can all import it without
cycles.
"""

from __future__ import annotations

import numpy as np

from repro.ginkgo.exceptions import GinkgoError

#: Canonical C++-style suffix -> numpy storage dtype (paper Table 1).
SUFFIX_DTYPES = {
    "half": np.dtype(np.float16),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}

#: Every accepted value-type spelling -> canonical suffix.  This is the
#: one table the config validator, the dispatch layer, and the Pythonic
#: API all normalise through.
VALUE_SUFFIX_ALIASES = {
    "half": "half",
    "float16": "half",
    "float": "float",
    "float32": "float",
    "single": "float",
    "double": "double",
    "float64": "double",
}

#: Storage itemsize -> float dtype.
_FLOAT_BY_ITEMSIZE = {dt.itemsize: dt for dt in SUFFIX_DTYPES.values()}

#: numpy dtype -> canonical suffix.
_DTYPE_SUFFIXES = {
    np.dtype(np.float16): "half",
    np.dtype(np.float32): "float",
    np.dtype(np.float64): "double",
}

#: Adaptive block-Jacobi thresholds: a block is stored at the narrowest
#: precision whose unit roundoff u satisfies cond(block) * u << 1.  With
#: u(half) ~ 5e-4 and u(float) ~ 6e-8, the usual Ginkgo-style cutoffs:
ADAPTIVE_HALF_COND_LIMIT = 1.0e2
ADAPTIVE_FLOAT_COND_LIMIT = 1.0e6


def canonical_value_suffix(spec) -> str:
    """Normalise any accepted value-type spelling/dtype to its suffix.

    Accepts the C++-style suffixes (``half``/``float``/``double``), the
    numpy-style names (``float16``/``float32``/``float64``), ``single``,
    or anything ``np.dtype`` resolves to a supported float type.

    Raises:
        GinkgoError: For unknown spellings or unsupported dtypes.
    """
    if isinstance(spec, str):
        suffix = VALUE_SUFFIX_ALIASES.get(spec.lower())
        if suffix is None:
            raise GinkgoError(
                f"unknown value type {spec!r}; "
                f"accepted spellings: {sorted(VALUE_SUFFIX_ALIASES)}"
            )
        return suffix
    dt = np.dtype(spec)
    suffix = _DTYPE_SUFFIXES.get(dt)
    if suffix is None:
        raise GinkgoError(
            f"unsupported value dtype {dt}; supported: "
            f"{sorted(str(k) for k in _DTYPE_SUFFIXES)}"
        )
    return suffix


def value_dtype_for(spec) -> np.dtype:
    """The numpy storage dtype for any accepted value-type spelling."""
    return SUFFIX_DTYPES[canonical_value_suffix(spec)]


def resolve_storage_dtype(storage_precision, working_dtype) -> np.dtype:
    """Resolve a storage-precision spec against the working precision.

    Args:
        storage_precision: ``None`` (store at working precision — the
            default, uniform path), a spelling accepted by
            :func:`canonical_value_suffix`, or a numpy dtype.
        working_dtype: The operator's working (arithmetic) precision.

    Returns:
        The dtype values are stored at.
    """
    working = np.dtype(working_dtype)
    if storage_precision is None:
        return working
    return value_dtype_for(storage_precision)


def arithmetic_dtype_for(dtype) -> np.dtype:
    """The dtype arithmetic actually runs in for a working dtype.

    Mirrors the engine's half-precision kernel contract (see
    :mod:`repro.ginkgo.matrix.base`): numpy/SciPy cannot compute with
    ``float16`` operands reliably, so half-precision kernels accumulate
    in ``float32`` and round back — exactly like Ginkgo's half kernels.
    """
    dt = np.dtype(dtype)
    if dt == np.float16:
        return np.dtype(np.float32)
    return dt


def select_block_precision(cond_estimate: float, working_dtype) -> np.dtype:
    """Adaptive block-Jacobi storage precision for one diagonal block.

    Ginkgo's adaptive precision block-Jacobi stores each inverted block
    at the narrowest precision whose unit roundoff the block's condition
    number tolerates (Anzt et al., *Adaptive Precision in Block-Jacobi
    Preconditioning*): well-conditioned blocks lose nothing in half
    precision, ill-conditioned ones keep full precision.  The result is
    never wider than the working precision.

    Args:
        cond_estimate: Condition-number estimate of the block (1-norm or
            2-norm; non-finite estimates force the working precision).
        working_dtype: The solve's working precision (upper bound).

    Returns:
        The storage dtype for this block.
    """
    return _FLOAT_BY_ITEMSIZE[
        int(_block_storage_itemsizes(cond_estimate, working_dtype))
    ]


def _block_storage_itemsizes(cond_estimates, working_dtype) -> np.ndarray:
    """Vectorised :func:`select_block_precision`: storage itemsize per block.

    Takes an array of condition estimates and returns the itemsize (2, 4
    or 8 bytes) of each block's storage precision, by the same rule.
    """
    conds = np.asarray(cond_estimates, dtype=np.float64)
    working = np.dtype(working_dtype).itemsize
    chosen = np.select(
        [conds <= ADAPTIVE_HALF_COND_LIMIT, conds <= ADAPTIVE_FLOAT_COND_LIMIT],
        [2, 4],
        8,
    )
    # Non-finite or non-positive estimates force the working precision,
    # and storage is never wider than the working precision.
    chosen = np.where(np.isfinite(conds) & (conds > 0), chosen, working)
    return np.minimum(chosen, working)


class ReducedPrecisionAccessor:
    """Store values at one precision, read them at another.

    The accessor owns the only stored copy of the values (at
    ``storage_dtype``) and serves :meth:`read` in ``arithmetic_dtype``,
    converting on the fly.  The converted view is cached — accessor
    payloads (preconditioner storage) are immutable, and the real
    machine's accessor converts in registers without materialising
    anything; host-side caching keeps the wall-clock overhead one-off
    while the *simulated* cost of every kernel touching the data is
    charged at :attr:`storage_bytes` width by the call sites.

    When ``storage_dtype == values.dtype`` the accessor stores the array
    object as-is and :meth:`read` returns it unchanged — a pass-through
    guaranteeing the uniform-precision path is bit-identical (same
    object, same bits) to pre-accessor code.
    """

    def __init__(self, values, storage_dtype, arithmetic_dtype=None) -> None:
        values = np.asarray(values)
        self._storage_dtype = np.dtype(storage_dtype)
        self._arithmetic_dtype = (
            np.dtype(arithmetic_dtype)
            if arithmetic_dtype is not None
            else arithmetic_dtype_for(values.dtype)
        )
        if values.dtype == self._storage_dtype:
            self._stored = values
        else:
            self._stored = values.astype(self._storage_dtype)
        self._read_cache: np.ndarray | None = None

    @property
    def storage_dtype(self) -> np.dtype:
        return self._storage_dtype

    @property
    def arithmetic_dtype(self) -> np.dtype:
        return self._arithmetic_dtype

    @property
    def storage_bytes(self) -> int:
        """Bytes per stored value — what bandwidth-bound kernels pay."""
        return self._storage_dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total stored payload size."""
        return self._stored.nbytes

    @property
    def is_uniform(self) -> bool:
        """Whether storage and arithmetic precision coincide."""
        return self._storage_dtype == self._arithmetic_dtype

    @property
    def stored(self) -> np.ndarray:
        """The raw storage-precision array (what the device would hold)."""
        return self._stored

    def read(self) -> np.ndarray:
        """The values at arithmetic precision, converted on the fly.

        Uniform accessors return the stored array itself (no copy, no
        rounding); reduced-storage accessors convert once and cache.
        """
        if self._stored.dtype == self._arithmetic_dtype:
            return self._stored
        if self._read_cache is None:
            self._read_cache = self._stored.astype(self._arithmetic_dtype)
        return self._read_cache

    def __repr__(self) -> str:
        return (
            f"ReducedPrecisionAccessor(storage={self._storage_dtype.name}, "
            f"arithmetic={self._arithmetic_dtype.name}, "
            f"shape={self._stored.shape})"
        )
