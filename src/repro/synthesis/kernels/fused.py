"""The fused GUM kernel: one row-major code cache shared by every marginal.

Inherits :class:`~repro.synthesis.kernels.vectorized.VectorizedKernel`'s
step — the RNG-consuming orchestration, with each cell's row range read off
the cached counts (``cumsum(counts) - counts``) — and replaces its per-run
cache and the hooks around that step:

- **code matrix** — every marginal's cell codes live in one row-major
  ``(n, M)`` matrix in the narrowest unsigned dtype that holds the largest
  marginal (``uint16`` for every NetDPSyn marginal: the largest ToN
  marginals have a few thousand cells).  Each marginal's ``state.codes`` is
  a column view.  The M codes of one row share a cache line, so the
  patch's gather and scatter over the freed rows touch one line per row,
  and a ``uint16`` column sorts on numpy's O(n) radix path with no per-step
  cast (in-range codes order exactly like their int64 values).  Wider
  marginals take a wider dtype and the comparison sort — same grouping;
- **duplication draws** — the reference consumes one
  ``rng.integers(0, match, size=n_dup)`` call per refilled cell; a single
  ``rng.integers(0, bounds)`` call with the per-cell bounds repeated
  per-slot consumes the *identical* stream (PCG64 draws one bounded word per
  element either way — pinned by the parity suite against future numpy
  changes) at ~1/100th of the Python dispatch cost;
- **cache patch** — the new codes of the freed rows for *every* marginal
  come from one BLAS matmul against an ``(attrs, M)`` stride matrix (float64
  products of in-domain codes are < 2^53, so the round-trip through float
  is exact); the counts, one flat arena with per-marginal offsets, take ONE
  signed-weight ``bincount`` over the offset-shifted old and new codes; the
  new codes go back as a contiguous row scatter.

With numba present the grouping and the patch swap in the ``@njit(nogil=True)``
twins of :mod:`~repro.synthesis.kernels.numba_kernel`, driven over the
columns of the same matrix.

``fused`` is the head of the ``auto`` resolution order; on the 50k-record
ToN workload it runs >= 3x faster than ``reference`` single-core (the
benchmark gate in ``benchmarks/bench_engine_scaling.py``).
"""

from __future__ import annotations

import numpy as np

from repro.synthesis.kernels.base import cell_codes
from repro.synthesis.kernels.numba_kernel import (
    _compiled,
    _group_rows_py,
    _patch_rows_py,
    _strides_for,
    numba_available,
)
from repro.synthesis.kernels.vectorized import VectorizedKernel


def code_dtype(max_cells: int) -> np.dtype:
    """Narrowest unsigned dtype holding every code of a ``max_cells`` marginal."""
    return np.min_scalar_type(max(int(max_cells) - 1, 0))


class FusedKernel(VectorizedKernel):
    """The vectorized step over a row-major code matrix and a counts arena."""

    name = "fused"
    uses_cache = True

    def prepare(self, data, states):
        """Build the fused per-run state: code matrix, counts arena, strides.

        Each marginal's ``codes``/``counts`` are re-bound to views into the
        fused storage (a column of the code matrix, a slice of the arena),
        so the inherited ``step`` orchestration (which reads
        ``state.codes``/``state.counts``) sees exactly the per-marginal
        caches it expects while the patch below updates them all at once.
        """
        n, n_attrs = data.shape
        m = len(states)
        sizes = np.array([state.target.size for state in states], dtype=np.int64)
        offsets = np.zeros(m, dtype=np.int64)
        np.cumsum(sizes[:-1], out=offsets[1:])
        codes = np.empty((n, m), dtype=code_dtype(sizes.max()))
        counts = np.zeros(int(sizes.sum()), dtype=np.float64)
        strides = np.zeros((n_attrs, m), dtype=np.float64)
        for k, state in enumerate(states):
            column = cell_codes(data[:, state.axes], state.shape)
            codes[:, k] = column
            state.codes = codes[:, k]
            state.counts = counts[offsets[k] : offsets[k] + sizes[k]]
            state.counts[...] = np.bincount(column, minlength=int(sizes[k]))
            strides[state.axes, k] = _strides_for(state.shape)
        self._codes = codes
        self._code_rows = codes.view(np.dtype((np.void, codes.itemsize * m))).ravel()
        self._counts = counts
        self._offsets = offsets
        self._strides = strides
        self._jit = numba_available()
        if self._jit:
            self._axes = [
                np.ascontiguousarray(state.axes, dtype=np.int64) for state in states
            ]
            self._int_strides = [_strides_for(state.shape) for state in states]

    def _group_rows(self, codes, perm, size):
        """``perm`` grouped by cell over one column of the code matrix.

        numpy's stable sort is a radix sort on 8/16-bit codes and a
        comparison sort (timsort) on wider ones; the compiled twin is a
        stable counting sort.  All three give the same grouping.
        """
        if self._jit:
            group = _compiled("group_rows", _group_rows_py)
            return group(codes, perm, np.int64(size))
        return super()._group_rows(codes, perm, size)

    def _dup_offsets(self, rng, match, n_dup, dup_idx):
        """All per-cell duplication draws as one bounds-broadcast call.

        ``Generator.integers`` with an array of highs draws exactly one
        bounded word per element in element order — the same words, in the
        same order, as the reference's per-cell calls, leaving the generator
        in the identical state (pinned by ``tests/test_kernels.py``).
        """
        return rng.integers(0, np.repeat(match[dup_idx], n_dup[dup_idx]))

    def _apply_updates(self, data, states, freed):
        """Re-code the rewritten ``freed`` rows for every marginal at once.

        Integer deltas on float64 counts are exact, so the arena stays equal
        to a fresh ``bincount`` of the code matrix.
        """
        if self._jit:
            patch = _compiled("patch_rows", _patch_rows_py)
            rows = np.ascontiguousarray(freed, dtype=np.int64)
            for state, axes, strides in zip(states, self._axes, self._int_strides):
                patch(data, rows, axes, strides, state.codes, state.counts)
            return
        codes = self._codes
        size = freed.shape[0] * codes.shape[1]
        # One matmul re-codes the freed rows for every marginal: exact,
        # because every product and partial sum is an integer < 2^53.
        rows = data.take(freed, axis=0).astype(np.float64)
        new = (rows @ self._strides).astype(codes.dtype)
        shifted = np.empty((2,) + new.shape, dtype=np.int64)
        np.add(new, self._offsets, out=shifted[0])
        np.add(codes.take(freed, axis=0), self._offsets, out=shifted[1])
        weights = np.empty(2 * size, dtype=np.float64)
        weights[:size] = 1.0
        weights[size:] = -1.0
        self._counts += np.bincount(
            shifted.ravel(), weights=weights, minlength=self._counts.size
        )
        # Contiguous row scatter: a freed row's M codes move as one item.
        self._code_rows[freed] = new.view(self._code_rows.dtype).ravel()
