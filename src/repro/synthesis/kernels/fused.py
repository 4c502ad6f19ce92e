"""The fused GUM kernel: whole-step numpy passes over one row-major code cache.

Restructures the reference per-cell loops into whole-step operations while
consuming the random stream *exactly* like
:mod:`~repro.synthesis.kernels.reference` (see the RNG order contract in
:mod:`~repro.synthesis.kernels.base`), so its output is bit-identical:

- **code matrix** — every marginal's cell codes live in one row-major
  ``(n, M)`` matrix in the narrowest unsigned dtype that holds the largest
  marginal (``uint16`` for every NetDPSyn marginal: the largest ToN
  marginals have a few thousand cells), built once per run and patched only
  for the rows a step rewrites; each marginal's ``state.codes`` is a column
  view.  A ``uint16`` column sorts on numpy's O(n) radix path with no
  per-step cast (in-range codes order exactly like their int64 values);
  wider marginals take a wider dtype and the comparison sort — same
  grouping;
- **cell offsets** — the cached counts equal a fresh ``bincount`` of the
  codes, so a cell's rows in the stable grouping start at
  ``cumsum(counts) - counts`` and span ``counts`` rows; no ``searchsorted``;
- **free/refill** — one ``repeat``/``arange`` segment gather per pass and one
  fancy-indexed write per pass instead of per-cell slicing;
- **duplication draws** — the reference consumes one
  ``rng.integers(0, match, size=n_dup)`` call per refilled cell; a single
  ``rng.integers(0, bounds)`` call with the per-cell bounds repeated
  per-slot consumes the *identical* stream (PCG64 draws one bounded word per
  element either way — pinned by the parity suite against future numpy
  changes);
- **cache patch** — the new codes of the freed rows for *every* marginal
  come from one BLAS matmul against an ``(attrs, M)`` stride matrix (float64
  products of in-domain codes are < 2^53, so the round-trip through float
  is exact); the counts, one flat arena with per-marginal offsets, take ONE
  signed-weight ``bincount`` over the offset-shifted old and new codes; the
  new codes go back as a contiguous row scatter (a row's M codes share a
  cache line).

The free/refill writes commute with the reference's sequential per-cell
writes: freed rows come from over-full cells and duplication sources from
under-full cells, the two cell sets are disjoint (``excess > 0`` vs
``deficit > 0``), so no source row is ever written within a step and the
freed slots partition exactly.

With numba importable, the grouping and the patch run the
``@njit(nogil=True, cache=True)`` compilations of :func:`_group_rows_py` (an
``O(n + cells)`` stable counting sort) and :func:`_patch_rows_py` over the
columns of the same matrix.  The twins are plain Python and the source of
truth, so the tests prove them without numba.

``fused`` is what ``auto`` (and the legacy names ``vectorized`` and
``numba``) resolve to; on the 50k-record ToN workload it runs >= 3x faster
than ``reference`` single-core (the benchmark gate in
``benchmarks/bench_engine_scaling.py``).
"""

from __future__ import annotations

import numpy as np

from repro.synthesis.kernels.base import GumKernel, _segment_gather, cell_codes

#: Cached result of the one real ``import numba`` probe (None = not probed).
_NUMBA_OK: bool | None = None


def numba_available() -> bool:
    """Whether numba actually imports (probed once, result cached).

    A real import, not ``find_spec``: an installed-but-broken numba (e.g. a
    numba/numpy ABI mismatch) must keep the kernel on its numpy path rather
    than pass the probe and crash on the first compiled call mid-run.
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

    For each rewritten row, the new flat cell code is the stride-weighted
    sum of the row's values on the marginal's axes (exactly
    ``ravel_multi_index`` for in-domain values), the old code's count
    decremented, the new one incremented.  Integer deltas on float64 counts
    are exact, so the cached counts stay equal to a fresh ``bincount``.
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


def code_dtype(max_cells: int) -> np.dtype:
    """Narrowest unsigned dtype holding every code of a ``max_cells`` marginal."""
    return np.min_scalar_type(max(int(max_cells) - 1, 0))


class FusedKernel(GumKernel):
    """Whole-step numpy passes over a row-major code matrix and a counts arena."""

    name = "fused"

    def prepare(self, data, states):
        """Build the per-run state: code matrix, counts arena, strides.

        Each marginal's ``codes``/``counts`` are bound to views into the
        fused storage (a column of the code matrix, a slice of the arena),
        so :meth:`step` reads one marginal's cache while
        :meth:`_apply_updates` patches them all at once.
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

    def step(self, data, states, k, alpha, config, rng):
        state = states[k]
        n = data.shape[0]
        counts = state.counts
        diff = state.target - counts
        pre_error = float(np.abs(diff).sum()) / (2.0 * n)

        excess = np.clip(-diff, 0.0, None)
        deficit = np.clip(diff, 0.0, None)
        excess_total = excess.sum()
        deficit_total = deficit.sum()
        moves = int(round(alpha * min(excess_total, deficit_total)))
        if moves <= 0:
            return pre_error

        perm = rng.permutation(n)
        rows_by_cell = self._group_rows(state.codes, perm, state.target.size)
        cell_len = counts.astype(np.int64)
        cell_start = np.cumsum(cell_len) - cell_len

        # --- free rows from over-represented cells (one pass) --------------
        over_cells = np.nonzero(excess > 0)[0]
        over_excess = excess[over_cells]
        over_quota = rng.multinomial(moves, over_excess / excess_total)
        cap = np.where(
            over_excess >= 1.0,
            np.minimum(over_quota, np.floor(over_excess).astype(np.int64)),
            over_quota,
        )
        take = np.minimum(cap, cell_len[over_cells])
        if int(take.sum()) <= 0:
            return pre_error
        freed = rows_by_cell.take(_segment_gather(cell_start[over_cells], take))
        rng.shuffle(freed)

        # --- refill freed rows for under-represented cells (one pass) ------
        under_cells = np.nonzero(deficit > 0)[0]
        fill_quota = rng.multinomial(len(freed), deficit[under_cells] / deficit_total)
        nz = fill_quota > 0
        cells_nz = under_cells[nz]
        quota_nz = fill_quota[nz].astype(np.int64)
        match = cell_len[cells_nz]
        # round() and np.rint both round half to even, so the per-cell split
        # equals the reference's int(round(quota * fraction)).
        n_dup = np.where(
            match > 0,
            np.minimum(
                np.rint(quota_nz * config.duplicate_fraction).astype(np.int64), quota_nz
            ),
            0,
        )
        seg_start = np.cumsum(quota_nz) - quota_nz

        dup_slots = _segment_gather(seg_start, n_dup)
        if len(dup_slots):
            # One bounds-broadcast draw: ``Generator.integers`` with an array
            # of highs draws one bounded word per element in element order,
            # the same words as the reference's per-cell calls.
            offsets = rng.integers(0, np.repeat(match, n_dup))
            sources = rows_by_cell.take(np.repeat(cell_start[cells_nz], n_dup) + offsets)
            data[freed[dup_slots]] = data.take(sources, axis=0)

        repl_slots = _segment_gather(seg_start + n_dup, quota_nz - n_dup)
        if len(repl_slots):
            cell_per = np.repeat(cells_nz, quota_nz - n_dup)
            coords = np.unravel_index(cell_per, state.shape)
            rows_repl = freed[repl_slots]
            for axis, values in zip(state.axes, coords):
                data[rows_repl, axis] = values

        # --- incremental count/code maintenance for every marginal ----------
        self._apply_updates(data, states, freed)
        return pre_error

    def _group_rows(self, codes, perm, size):
        """``perm`` grouped by cell, stable in ``perm`` order.

        Any stable grouping is bit-equivalent to the reference's
        ``argsort(codes[perm], kind="stable")``.  numpy's stable sort is a
        radix sort on 8/16-bit codes and a comparison sort (timsort) on
        wider ones; the compiled twin is a stable counting sort.
        """
        if self._jit:
            group = _compiled("group_rows", _group_rows_py)
            return group(codes, perm, np.int64(size))
        return perm.take(np.argsort(codes.take(perm), kind="stable"))

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
