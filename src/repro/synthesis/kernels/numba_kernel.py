"""The numba GUM kernel: JIT-compiled, nogil cache maintenance.

Extends :class:`~repro.synthesis.kernels.vectorized.VectorizedKernel` — the
RNG-consuming orchestration is inherited unchanged, so bit-identity with the
reference kernel is preserved by construction — and replaces the
per-marginal cache patch (the only remaining allocation-heavy pass) with an
``@njit(nogil=True, cache=True)`` loop:

- the numpy patch allocates a ``bincount`` array of the full marginal size
  per marginal per step just to apply ``len(freed)`` deltas; the compiled
  loop applies them in place, touching ``O(len(freed))`` cells;
- the reference/vectorized row grouping is a stable ``argsort`` —
  ``O(n log n)`` per step and the single largest cost in the profile; the
  compiled kernel replaces it with an ``O(n + cells)`` counting sort that
  produces the bit-identical grouping (stable counting sort *is* a stable
  sort);
- the compiled regions release the GIL, so thread-backend shards overlap
  their update passes instead of serializing on the interpreter.

numba is strictly optional: the kernel registers itself in the registry
unconditionally (so ``kernel="numba"`` is always a *valid* name) but reports
itself unavailable when numba cannot be imported, and ``auto`` resolution
falls through to ``vectorized``.  Compilation happens lazily on first use
and is cached on disk (``cache=True``), so only the first shard of the first
run pays the JIT cost.

The compiled functions' pure-Python twins (:func:`_patch_rows_py`,
:func:`_group_rows_py`) are the source of truth — the njit wrapper is
applied to them at first use — so the parity tests can verify the update
logic against the numpy implementation even on hosts without numba.  They
take any 1-D integer code array: this kernel's int64 caches, or a strided
column of the fused kernel's row-major ``uint16`` code matrix.
"""

from __future__ import annotations

import numpy as np

from repro.synthesis.kernels.vectorized import VectorizedKernel

#: Cached result of the one real ``import numba`` probe (None = not probed).
_NUMBA_OK: bool | None = None


def numba_available() -> bool:
    """Whether numba actually imports (probed once, result cached).

    A real import, not ``find_spec``: an installed-but-broken numba (e.g. a
    numba/numpy ABI mismatch) must make the kernel report *unavailable* so
    ``auto`` resolution falls back to ``vectorized``, rather than passing
    the probe and then crashing on the first compiled call mid-run.
    """
    global _NUMBA_OK
    if _NUMBA_OK is None:
        try:
            import numba  # noqa: F401

            _NUMBA_OK = True
        except Exception:
            _NUMBA_OK = False
    return _NUMBA_OK


def _patch_rows_py(data, rows, axes, strides, codes, counts):
    """Re-code ``rows`` of ``data`` for one marginal and patch its counts.

    The loop twin of :meth:`_MarginalState.apply_row_updates`: for each
    rewritten row, the new flat cell code is the stride-weighted sum of the
    row's values on the marginal's axes (exactly ``ravel_multi_index`` for
    in-domain values), the old code's count decremented, the new one
    incremented.  Integer deltas on float64 counts are exact, so the cached
    counts stay equal to a fresh ``bincount``.
    """
    for i in range(rows.shape[0]):
        r = rows[i]
        new = 0
        for j in range(axes.shape[0]):
            new += np.int64(data[r, axes[j]]) * strides[j]
        old = codes[r]
        counts[old] -= 1.0
        counts[new] += 1.0
        codes[r] = new


def _group_rows_py(codes, perm, size):
    """Stable counting sort of ``perm`` by ``codes[perm]``.

    The loop twin of ``perm[argsort(codes[perm], kind="stable")]``: returns
    the row indices grouped by cell (within-cell order following ``perm``)
    — bit-identical to the numpy grouping, in ``O(n + size)`` instead of
    ``O(n log n)``.
    """
    n = perm.shape[0]
    counts = np.zeros(size + 1, dtype=np.int64)
    for i in range(n):
        counts[codes[perm[i]] + 1] += 1
    for c in range(size):
        counts[c + 1] += counts[c]
    rows_by_cell = np.empty(n, dtype=perm.dtype)
    cursor = counts[:size].copy()
    for i in range(n):
        r = perm[i]
        c = codes[r]
        rows_by_cell[cursor[c]] = r
        cursor[c] += 1
    return rows_by_cell


#: Lazily compiled njit twins (filled on first use).
_JIT = {}


def _compiled(name, py_fn):
    fn = _JIT.get(name)
    if fn is None:
        import numba

        fn = _JIT[name] = numba.njit(nogil=True, cache=True)(py_fn)
    return fn


def _strides_for(shape: tuple) -> np.ndarray:
    """C-order ravel strides of a marginal's cell grid."""
    strides = np.ones(len(shape), dtype=np.int64)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    return strides


class NumbaKernel(VectorizedKernel):
    """The vectorized kernel with a compiled, GIL-releasing cache patch."""

    name = "numba"
    uses_cache = True

    @classmethod
    def available(cls) -> bool:
        return numba_available()

    def prepare(self, data, states):
        super().prepare(data, states)
        # Precompute each marginal's ravel strides once per run; keyed by
        # state identity because _MarginalState is __slots__-frozen.
        self._strides = {id(state): _strides_for(state.shape) for state in states}

    def _group_rows(self, codes, perm, size):
        group = _compiled("group_rows", _group_rows_py)
        return group(codes, perm, np.int64(size))

    def _apply_updates(self, data, states, freed):
        patch = _compiled("patch_rows", _patch_rows_py)
        rows = np.ascontiguousarray(freed, dtype=np.int64)
        for state in states:
            strides = self._strides.get(id(state))
            if strides is None:
                strides = _strides_for(state.shape)
            patch(
                data,
                rows,
                np.ascontiguousarray(state.axes, dtype=np.int64),
                strides,
                state.codes,
                state.counts,
            )
